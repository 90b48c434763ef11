package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

type opKind int

const (
	opDecide opKind = iota
	opPut
	opDelete
)

// op is one HTTP request of the generated traffic and its expected
// status.
type op struct {
	kind       opKind
	method     string
	path       string
	body       []byte
	wantStatus int
	dec        *decision // decides only
}

func decideOp(name string, d *decision) op {
	return op{kind: opDecide, method: http.MethodPost, path: "/v1/problems/" + name + "/decide",
		body: d.body, wantStatus: http.StatusOK, dec: d}
}

func putOp(name string, t *template, replace bool) op {
	want := http.StatusCreated
	if replace {
		want = http.StatusOK
	}
	return op{kind: opPut, method: http.MethodPut, path: "/v1/problems/" + name, body: t.doc, wantStatus: want}
}

func deleteOp(name string) op {
	return op{kind: opDelete, method: http.MethodDelete, path: "/v1/problems/" + name, wantStatus: http.StatusNoContent}
}

// source draws the next operation of a traffic stream. A source bound
// to a worker (pin >= 0) is stateful and its operations must run in
// order on that worker's connection.
type source interface {
	pin() int
	next(r *rand.Rand) op
	templates() []*template
}

// mixSource draws a tenant by zipf rank and then one of its decisions
// uniformly. It is stateless, so any worker may send its operations.
type mixSource struct {
	tenants []tenant
	cdf     []float64
}

func newMixSource(ts []tenant, zipfS float64) *mixSource {
	return &mixSource{tenants: ts, cdf: zipfCDF(len(ts), zipfS)}
}

func (s *mixSource) pin() int { return -1 }

func (s *mixSource) next(r *rand.Rand) op {
	t := s.tenants[pick(s.cdf, r)]
	return decideOp(t.name, t.tpl.decisions[r.Intn(len(t.tpl.decisions))])
}

func (s *mixSource) templates() []*template {
	var out []*template
	for _, t := range s.tenants {
		out = append(out, t.tpl)
	}
	return out
}

// churnSource is one namespace of registry_churn: it tracks which of
// its names are loaded with which template, and after every PUT it
// sends a decide on the name just loaded, which finds cold caches.
type churnSource struct {
	worker  int
	prefix  string
	pool    []*template
	live    map[string]*template
	counter int
	pending string
}

const (
	churnMaxLive = 24
	churnMinLive = 4
)

func (s *churnSource) pin() int               { return s.worker }
func (s *churnSource) templates() []*template { return s.pool }

func (s *churnSource) fresh() string {
	s.counter++
	return fmt.Sprintf("%s%04d", s.prefix, s.counter)
}

func (s *churnSource) add(name string, t *template) { s.live[name] = t }

func (s *churnSource) next(r *rand.Rand) op {
	if n := s.pending; n != "" {
		s.pending = ""
		t := s.live[n]
		return decideOp(n, t.decisions[r.Intn(len(t.decisions))])
	}
	names := sortedNames(s.live)
	x := r.Float64()
	switch {
	case x < 0.12 && len(names) < churnMaxLive:
		n, t := s.fresh(), s.pool[r.Intn(len(s.pool))]
		s.live[n], s.pending = t, n
		return putOp(n, t, false)
	case x < 0.22:
		n, t := names[r.Intn(len(names))], s.pool[r.Intn(len(s.pool))]
		s.live[n], s.pending = t, n
		return putOp(n, t, true)
	case x < 0.26 && len(names) > churnMinLive:
		n := names[r.Intn(len(names))]
		delete(s.live, n)
		return deleteOp(n)
	}
	n := names[r.Intn(len(names))]
	t := s.live[n]
	return decideOp(n, t.decisions[r.Intn(len(t.decisions))])
}

// decideResp is the part of a decide answer the benchmark reads.
type decideResp struct {
	Verdict        *bool           `json:"verdict"`
	Counterexample string          `json:"counterexample"`
	CertainAnswers []string        `json:"certain_answers"`
	Kind           string          `json:"kind"`
	Error          string          `json:"error"`
	ElapsedMS      float64         `json:"elapsed_ms"`
	QueueWaitMS    float64         `json:"queue_wait_ms"`
	Stats          json.RawMessage `json:"stats"`
	Trace          *struct {
		Spans []spanData `json:"spans"`
	} `json:"trace"`
}

type spanData struct {
	SpanID     string  `json:"span_id"`
	ParentID   string  `json:"parent_span_id"`
	Name       string  `json:"name"`
	DurationMS float64 `json:"duration_ms"`
}

// outcome classifies one finished operation.
type outcome int

const (
	outOK      outcome = iota
	outWrong           // answered, with a wrong verdict or certain-answer set
	outRefused         // 429 or 503: admission, rate limit, breaker, storage
	outFailed          // transport error or any other status
)

// sample is one finished operation of a phase.
type sample struct {
	kind    opKind
	decider string
	out     outcome
	due     time.Time // scheduled send time (open loop) or send time
	sent    time.Time
	done    time.Time
	bytes   int
	stats   int // bytes of the response's stats object
	resp    decideResp
	traceID string
	detail  string
}

// latMS is the latency from the due time, which charges a stall to
// every request scheduled behind it.
func (s *sample) latMS() float64 { return ms(s.done.Sub(s.due)) }

// clientMS is the latency from the moment the request was written.
func (s *sample) clientMS() float64 { return ms(s.done.Sub(s.sent)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// client issues the benchmark's requests over loopback keep-alive
// connections, at most one per worker.
type client struct {
	base  string
	hc    *http.Client
	trace bool // ask for ?trace=1 and send a traceparent header
	mu    sync.Mutex
	seq   uint64
}

func newClient(base string, workers int) *client {
	tr := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// traceparent mints the next request's W3C trace context.
func (c *client) traceparent() (string, string) {
	c.mu.Lock()
	c.seq++
	n := c.seq
	c.mu.Unlock()
	id := fmt.Sprintf("5e1f%028x", n)
	return id, "00-" + id + "-" + fmt.Sprintf("%016x", n) + "-01"
}

// do sends o and classifies the answer; s.due must be set by the
// caller.
func (c *client) do(o op, s *sample) {
	s.kind = o.kind
	if o.dec != nil {
		s.decider = o.dec.decider
	}
	url := c.base + o.path
	if c.trace && o.kind == opDecide {
		url += "?trace=1"
	}
	req, err := http.NewRequest(o.method, url, bytes.NewReader(o.body))
	if err != nil {
		s.out, s.detail = outFailed, err.Error()
		return
	}
	if c.trace {
		var tp string
		s.traceID, tp = c.traceparent()
		req.Header.Set("traceparent", tp)
	}
	s.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		s.done = time.Now()
		s.out, s.detail = outFailed, err.Error()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	s.bytes = len(body)
	switch {
	case err != nil:
		s.out, s.detail = outFailed, err.Error()
		return
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		s.out, s.detail = outRefused, fmt.Sprintf("%s %s: %d %s", o.method, o.path, resp.StatusCode, body)
		return
	case resp.StatusCode != o.wantStatus:
		s.out, s.detail = outFailed, fmt.Sprintf("%s %s: status %d, want %d: %s", o.method, o.path, resp.StatusCode, o.wantStatus, body)
		return
	}
	if o.kind != opDecide {
		s.out = outOK
		return
	}
	if err := json.Unmarshal(body, &s.resp); err != nil {
		s.out, s.detail = outFailed, err.Error()
		return
	}
	// Only the size of the stats is used; a run keeps every sample, so
	// the generator's heap stays small without the stats themselves.
	s.stats, s.resp.Stats = len(s.resp.Stats), nil
	got := expect{verdict: s.resp.Verdict, certain: s.resp.CertainAnswers}
	if o.dec.Property == "certain" {
		got.verdict = nil
	}
	if !got.equal(o.dec.want) {
		s.out, s.detail = outWrong, fmt.Sprintf("%s %s: got %v, want %v", o.path, o.body, got, o.dec.want)
		return
	}
	s.out = outOK
}

// phase is one measured stretch of traffic.
type phase struct {
	name    string
	rate    float64 // 0 for closed loop
	start   time.Time
	end     time.Time
	samples []sample
}

func (p *phase) seconds() float64 { return p.end.Sub(p.start).Seconds() }

// counts tallies operations by outcome.
func (p *phase) counts() (sent, ok, wrong, refused, failed int) {
	for i := range p.samples {
		sent++
		switch p.samples[i].out {
		case outOK:
			ok++
		case outWrong:
			wrong++
		case outRefused:
			refused++
		default:
			failed++
		}
	}
	return
}

// latencies returns the latencies of the successful operations of one
// kind, none for a phase that did not run.
func (p *phase) latencies(kind opKind) []float64 {
	if p == nil {
		return nil
	}
	var out []float64
	for i := range p.samples {
		if s := &p.samples[i]; s.kind == kind && s.out == outOK {
			out = append(out, s.latMS())
		}
	}
	return out
}

// lagMS is the lateness of every operation's send behind its due
// time: the dispatcher's late wake-ups plus the time the operation
// waited in a queue for a free worker. An operation that never reached
// the wire counts as on time.
func (p *phase) lagMS() []float64 {
	out := make([]float64, len(p.samples))
	for i := range p.samples {
		if s := &p.samples[i]; !s.sent.IsZero() {
			out[i] = ms(s.sent.Sub(s.due))
		}
	}
	return out
}

// lagGrew reports a generator that fell further behind its schedule as
// the phase went on: the median send lateness of the last quarter of
// arrivals exceeds that of the first quarter by more than 5 ms. At the
// workloads' fixed rates, well below saturation, that growth means a
// backlog in the generator or the server, and the phase's latencies
// would measure the backlog, not the service. Medians ignore the
// isolated stalls a busy machine causes.
func (p *phase) lagGrew() bool {
	lag := p.lagMS()
	q := len(lag) / 4
	if q < 10 {
		return false
	}
	return p50(lag[len(lag)-q:]) > p50(lag[:q])+5
}

// runOpen sends a seeded Poisson arrival schedule at rate per second
// for dur. A dispatcher hands each operation to the workers at its due
// time; a pinned source's operations go to its worker's queue, in
// order. Latency counts from the due time.
func runOpen(name string, c *client, srcs []source, rate float64, dur time.Duration, workers int, r *rand.Rand) *phase {
	var due []time.Duration
	var ops []op
	var pins []int
	for t := time.Duration(0); ; {
		t += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			break
		}
		src := srcs[r.Intn(len(srcs))]
		due = append(due, t)
		ops = append(ops, src.next(r))
		pins = append(pins, src.pin())
	}
	p := &phase{name: name, rate: rate, samples: make([]sample, len(ops))}
	// Each queue can hold the whole schedule, so the dispatcher never
	// blocks behind a slow worker.
	shared := make(chan int, len(ops))
	own := make([]chan int, workers)
	for i := range own {
		own[i] = make(chan int, len(ops))
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(mine <-chan int) {
			defer wg.Done()
			sh := (<-chan int)(shared)
			for mine != nil || sh != nil {
				var i int
				var ok bool
				select {
				case i, ok = <-mine:
					if !ok {
						mine = nil
						continue
					}
				case i, ok = <-sh:
					if !ok {
						sh = nil
						continue
					}
				}
				c.do(ops[i], &p.samples[i])
			}
		}(own[w])
	}
	p.start = time.Now()
	for i, d := range due {
		at := p.start.Add(d)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		p.samples[i].due = at
		if w := pins[i]; w >= 0 {
			own[w%workers] <- i
		} else {
			shared <- i
		}
	}
	close(shared)
	for _, ch := range own {
		close(ch)
	}
	wg.Wait()
	p.end = time.Now()
	return p
}

// runClosed keeps every worker busy back to back for dur. A pinned
// source is driven only by its own worker.
func runClosed(name string, c *client, srcs []source, dur time.Duration, workers int, seed int64) *phase {
	p := &phase{name: name}
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	p.start = time.Now()
	deadline := p.start.Add(dur)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(w)))
			var mine []source
			for _, s := range srcs {
				if s.pin() < 0 || s.pin()%workers == w {
					mine = append(mine, s)
				}
			}
			for time.Now().Before(deadline) {
				var s sample
				s.due = time.Now()
				c.do(mine[r.Intn(len(mine))].next(r), &s)
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	p.end = time.Now()
	for _, ss := range per {
		p.samples = append(p.samples, ss...)
	}
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].due.Before(p.samples[j].due) })
	return p
}
