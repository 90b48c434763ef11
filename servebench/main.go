// Command servebench is the served-traffic benchmark of rcserved. It
// builds each workload's problems from a seed, computes every expected
// verdict in-process, starts the real rcserved binary as a child
// process and drives it over loopback HTTP with at most one connection
// per CPU. It prints a human-readable report and, as its last line,
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (latency at the
// workload's nominal and high fixed rates, goodput at saturation, set-up
// time, server CPU per operation, peak RSS, PUT latency). With -trace 1
// the run repeats the traffic with ?trace=1 and times each layer from
// outside, and the metrics are the per-layer ones.
//
// Run it through run.sh from the repository root, which builds both
// binaries from the checkout:
//
//	bash servebench/run.sh --workload tenant_mix --seed 1 --seconds 45 --trace 0
//	bash servebench/run.sh --validate        # every workload, outputs only, no timing
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"relcomplete/internal/durable"
)

func main() {
	wl := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+" (-validate: empty means all)")
	seed := flag.Int64("seed", 1, "seed of the generated problems and arrivals")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	validate := flag.Bool("validate", false, "send every workload operation and check its output, without timing")
	root := flag.String("root", ".", "repository checkout holding examples/")
	bin := flag.String("rcserved", "", "rcserved binary")
	flag.Parse()
	if *bin == "" {
		fatalf("-rcserved is required")
	}
	// The generator shares the machine with the server; fewer
	// collections keep its own pauses out of the measured latencies.
	debug.SetGCPercent(400)

	tmp := filepath.Join(*root, ".bench_build", "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(tmp)

	var res *result
	var err error
	switch {
	case *validate:
		res, err = validateAll(*wl, *seed, *root, *bin, tmp)
	case *trace == 1:
		res, err = runTraced(*wl, *seed, *root, *bin, tmp, time.Duration(*seconds)*time.Second)
	case *trace == 0:
		res, err = runEndToEnd(*wl, *seed, *root, *bin, tmp, time.Duration(*seconds)*time.Second)
	default:
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		os.RemoveAll(tmp)
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servebench: "+format+"\n", args...)
	os.Exit(1)
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally accumulates operation outcomes over a whole run.
type tally struct {
	attempted, wrong, refused, failed int
	firstErr                          string
	invalid                           []string
}

func (t *tally) add(p *phase) {
	for i := range p.samples {
		s := &p.samples[i]
		t.attempted++
		switch s.out {
		case outWrong:
			t.wrong++
		case outRefused:
			t.refused++
		case outFailed:
			t.failed++
		}
		if s.out != outOK && t.firstErr == "" {
			t.firstErr = s.detail
		}
	}
}

// correct: no wrong answer, no unexpected status, and no phase whose
// generator fell behind its own schedule. Refusals (429/503) are load
// shedding, counted as failed operations but not as incorrect output.
func (t *tally) correct() bool { return t.wrong == 0 && t.failed == 0 && len(t.invalid) == 0 }

func (t *tally) result(m map[string]metric) *result {
	return &result{Correct: t.correct(), Attempted: t.attempted, Failed: t.wrong + t.refused + t.failed, Metrics: m}
}

func (t *tally) report(w io.Writer) {
	fmt.Fprintf(w, "operations: attempted=%d wrong=%d refused=%d failed=%d error_frac=%.6f\n",
		t.attempted, t.wrong, t.refused, t.failed, ratio(float64(t.wrong+t.refused+t.failed), float64(t.attempted)))
	if t.firstErr != "" {
		fmt.Fprintf(w, "first error: %s\n", t.firstErr)
	}
	for _, s := range t.invalid {
		fmt.Fprintf(w, "INVALID: %s\n", s)
	}
}

// printPhase writes one phase's honesty line: requests sent, succeeded,
// failed and refused, latency and generator lateness.
func printPhase(p *phase, t *tally) {
	sent, ok, wrong, refused, failed := p.counts()
	lat := p.latencies(opDecide)
	rate := "closed"
	if p.rate > 0 {
		rate = fmt.Sprintf("%.0f/s", p.rate)
	}
	fmt.Printf("phase %-10s rate=%-7s %6.2fs sent=%d ok=%d wrong=%d refused=%d failed=%d decide_p50=%.3fms decide_p99=%.3fms (n=%d) lag_p99=%.3fms\n",
		p.name, rate, p.seconds(), sent, ok, wrong, refused, failed, orZero(p50(lat)), orZero(p99(lat)), len(lat), orZero(p99(p.lagMS())))
	if p.rate > 0 && p.lagGrew() {
		t.invalid = append(t.invalid, fmt.Sprintf("phase %s: generator lateness grew through the phase", p.name))
	}
	t.add(p)
}

// instance is one set-up rcserved ready for traffic.
type instance struct {
	c       *child
	dataDir string
}

// setUp starts rcserved and brings it to the measured state: ready,
// every resident problem loaded (PUT, or replayed from the pre-seeded
// data dir), one warm-up decide per (problem, decision) answered. It
// returns the elapsed time and the PUT and warm-up phases.
func setUp(w *spec, bin, seedDir, dataDir string, keepAccess bool, workers int) (*instance, time.Duration, []*phase, error) {
	args := append([]string(nil), w.args...)
	if w.durable {
		if err := copyDir(seedDir, dataDir); err != nil {
			return nil, 0, nil, err
		}
		args = append(args, "-data-dir", dataDir)
	}
	start := time.Now()
	c, err := startChild(bin, args, keepAccess)
	if err != nil {
		return nil, 0, nil, err
	}
	cl := newClient(c.base, workers)
	defer cl.close()
	var phases []*phase
	if !w.durable {
		var puts []op
		for _, t := range w.resident {
			puts = append(puts, putOp(t.name, t.tpl, false))
		}
		phases = append(phases, runList("put", cl, puts, 1))
	}
	var warm []op
	for _, t := range w.resident {
		for _, d := range t.tpl.decisions {
			warm = append(warm, decideOp(t.name, d))
		}
	}
	phases = append(phases, runList("warmup", cl, warm, workers))
	return &instance{c: c, dataDir: dataDir}, time.Since(start), phases, nil
}

// runList sends a fixed list of operations as fast as the workers
// allow, in order within each worker.
func runList(name string, c *client, ops []op, workers int) *phase {
	p := &phase{name: name, samples: make([]sample, len(ops))}
	next := make(chan int, len(ops)) // holds the whole list: the feeder never blocks
	for i := range ops {
		next <- i
	}
	close(next)
	done := make(chan struct{})
	p.start = time.Now()
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range next {
				p.samples[i].due = time.Now()
				c.do(ops[i], &p.samples[i])
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	p.end = time.Now()
	return p
}

// seedData writes the workload's resident set to a fresh data dir
// through the durable log, as rcserved would have committed it.
func seedData(w *spec, dir string) error {
	l, _, err := durable.Open(dir, durable.Options{})
	if err != nil {
		return err
	}
	for _, t := range w.resident {
		if err := l.AppendPut(t.name, t.tpl.doc); err != nil {
			l.Close()
			return err
		}
	}
	return l.Close()
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// putProbeOps is how many PUTs the put phases of a run send, in all,
// on workloads whose traffic has none.
const putProbeOps = 1000

// probePuts loads the workload's templates in turn under the fresh
// names probe-<from> to probe-<to-1> on the warm server, one connection
// per CPU as in the saturation phase; the deletes that follow restore
// the workload's own resident set.
func probePuts(w *spec, from, to int) (puts, dels []op) {
	tpls := w.templates()
	for i := from; i < to; i++ {
		name := fmt.Sprintf("probe-%04d", i)
		puts = append(puts, putOp(name, tpls[i%len(tpls)], false))
		dels = append(dels, deleteOp(name))
	}
	return puts, dels
}

// setUpReps is how many times a run sets the server up; setup_s is the
// median.
const setUpReps = 5

// rounds is how many times a --trace 0 run cycles through its nominal,
// high-rate, saturation and put phases. Each metric of those phases is
// the median of its per-round values, so a slowdown of the shared
// machine that covers fewer than half of the rounds does not move it.
const rounds = 5

// prepare builds the workload and, for a durable one, its pre-seeded
// data dir.
func prepare(name string, seed int64, root, tmp string) (*spec, string, error) {
	w, err := buildWorkload(name, seed, root)
	if err != nil {
		return nil, "", err
	}
	seedDir := filepath.Join(tmp, "seed")
	if w.durable {
		if err := seedData(w, seedDir); err != nil {
			return nil, "", err
		}
	}
	return w, seedDir, nil
}

func runEndToEnd(name string, seed int64, root, bin, tmp string, total time.Duration) (*result, error) {
	w, seedDir, err := prepare(name, seed, root, tmp)
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	var t tally
	var setups []float64
	var inst *instance
	for rep := 0; rep < setUpReps; rep++ {
		in, d, phases, err := setUp(w, bin, seedDir, filepath.Join(tmp, fmt.Sprintf("data-%d", rep)), false, workers)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		for _, p := range phases {
			t.add(p)
		}
		if rep < setUpReps-1 {
			if err := in.c.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up server: %w", err)
			}
			continue
		}
		inst = in
	}
	defer inst.c.stop()
	fmt.Printf("workload %s seed %d: %d resident problems, %d templates, workers=%d, rates nominal=%.0f/s high=%.0f/s, limit=%.0fms\n",
		w.name, seed, len(w.resident), len(w.templates()), workers, w.nominal, w.high, w.limitMS)
	fmt.Printf("set-up: median %.3fs over %d (%v)\n", p50(setups), len(setups), fmtSecs(setups))

	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	cl := newClient(inst.c.base, workers)
	defer cl.close()
	var nominal, high, sat, putProbe []*phase
	var cpuPerOp []float64
	var last procStat
	for k := 0; k < rounds; k++ {
		nominal = append(nominal, runOpen(fmt.Sprintf("nominal-%d", k), cl, w.sources, w.nominal, total*40/100/rounds, workers, r))
		printPhase(nominal[k], &t)
		high = append(high, runOpen(fmt.Sprintf("high-%d", k), cl, w.sources, w.high, total*30/100/rounds, workers, r))
		printPhase(high[k], &t)
		before := inst.c.proc()
		sat = append(sat, runClosed(fmt.Sprintf("sat-%d", k), cl, w.sources, total*30/100/rounds, workers, r.Int63()))
		last = inst.c.proc()
		if before.readErr != nil || last.readErr != nil {
			return nil, fmt.Errorf("reading /proc of rcserved: %v %v", before.readErr, last.readErr)
		}
		printPhase(sat[k], &t)
		_, satOK, _, _, _ := sat[k].counts()
		cpuPerOp = append(cpuPerOp, ratio(ms(last.cpu-before.cpu), float64(satOK)))
		if !w.durable {
			puts, dels := probePuts(w, k*putProbeOps/rounds, (k+1)*putProbeOps/rounds)
			putProbe = append(putProbe, runList(fmt.Sprintf("put-%d", k), cl, puts, workers))
			printPhase(putProbe[k], &t)
			printPhase(runList(fmt.Sprintf("delete-%d", k), cl, dels, workers), &t)
		}
	}
	if err := inst.c.stop(); err != nil {
		return nil, fmt.Errorf("stopping rcserved: %w", err)
	}

	// Per-round values; each result metric is their median.
	var nominalP50, highP50, sloOK, goodput, putP50 []float64
	var nominalLat, highLat, puts []float64
	for k := 0; k < rounds; k++ {
		nl, hl := nominal[k].latencies(opDecide), high[k].latencies(opDecide)
		nominalP50, highP50 = append(nominalP50, p50(nl)), append(highP50, p50(hl))
		nominalLat, highLat = append(nominalLat, nl...), append(highLat, hl...)
		highSent, _, _, _, _ := high[k].counts()
		inLimit := 0
		for i := range high[k].samples {
			if s := &high[k].samples[i]; s.out == outOK && s.latMS() <= w.limitMS {
				inLimit++
			}
		}
		sloOK = append(sloOK, ratio(float64(inLimit), float64(highSent)))
		goodput = append(goodput, float64(len(sat[k].latencies(opDecide)))/sat[k].seconds())
		var pl []float64
		if w.durable {
			pl = append(nominal[k].latencies(opPut), high[k].latencies(opPut)...)
		} else {
			pl = putProbe[k].latencies(opPut)
		}
		putP50 = append(putP50, p50(pl))
		puts = append(puts, pl...)
	}
	m := map[string]metric{
		"setup_s":          {p50(setups), "s"},
		"decide_p50_ms":    {p50(nominalP50), "ms"},
		"slo_ok_frac.high": {p50(sloOK), "frac"},
		"peak_rss_mb":      {float64(last.hwmKB) / 1024, "MB"},
	}
	// These follow the speed of the shared machine, which moved by up to
	// 1.6x over minutes with no steal time reported, or repeat
	// decide_p50_ms at rates far below saturation. Between runs they
	// moved by more than a regression bound could allow, so they are
	// reported here and not in the result line (see README.md).
	more := map[string]metric{
		"decide_p50_ms.high":   {p50(highP50), "ms"},
		"goodput_per_s":        {p50(goodput), "1/s"},
		"server_cpu_ms_per_op": {p50(cpuPerOp), "ms"},
		"put_p50_ms":           {p50(putP50), "ms"},
		"decide_p99_ms":        {chunkP99(nominalLat), "ms"},
		"decide_p99_ms.high":   {chunkP99(highLat), "ms"},
		"put_p99_ms":           {chunkP99(puts), "ms"},
	}
	fmt.Printf("per round: goodput_per_s %s; server_cpu_ms_per_op %s\n", fmtSecs(goodput), fmtSecs(cpuPerOp))
	t.report(os.Stdout)
	fmt.Println("result metrics:")
	printMetrics(m)
	fmt.Println("reported only:")
	printMetrics(more)
	return t.result(m), nil
}

func fmtSecs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// validateAll sends every operation of the named workload (all of them
// when empty) once, checks every output and times nothing: every
// resident (problem, decision) pair, and for registry_churn a stretch
// of its PUT/DELETE/decide script.
func validateAll(name string, seed int64, root, bin, tmp string) (*result, error) {
	names := workloadNames
	if name != "" {
		names = []string{name}
	}
	var t tally
	workers := runtime.NumCPU()
	for _, n := range names {
		w, seedDir, err := prepare(n, seed, root, filepath.Join(tmp, n))
		if err != nil {
			return nil, err
		}
		inst, _, phases, err := setUp(w, bin, seedDir, filepath.Join(tmp, n, "data"), false, workers)
		if err != nil {
			return nil, err
		}
		var script []op
		r := rand.New(rand.NewSource(seed))
		for _, s := range w.sources {
			if s.pin() >= 0 {
				for i := 0; i < 300; i++ {
					script = append(script, s.next(r))
				}
			}
		}
		cl := newClient(inst.c.base, 1)
		phases = append(phases, runList("script", cl, script, 1))
		cl.close()
		if err := inst.c.stop(); err != nil {
			return nil, err
		}
		before := t.attempted
		bad := t.wrong + t.failed + t.refused
		for _, p := range phases {
			t.add(p)
		}
		fmt.Printf("validate %-15s %d templates, %d resident, %d operations checked, %d not ok\n",
			n, len(w.templates()), len(w.resident), t.attempted-before, t.wrong+t.failed+t.refused-bad)
	}
	t.report(os.Stdout)
	return t.result(map[string]metric{}), nil
}
