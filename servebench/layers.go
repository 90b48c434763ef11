package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"relcomplete/internal/core"
	"relcomplete/internal/durable"
	"relcomplete/internal/eval"
	"relcomplete/internal/obs"
	"relcomplete/internal/probjson"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
	"relcomplete/internal/server"
)

// layerDeciders are the deciders every workload runs, so their
// per-decider layer metrics exist on each.
var layerDeciders = []string{"rcdp_weak", "rcdp_viable", "minp_strong"}

// layerRow is one line of the per-layer table.
type layerRow struct {
	name   string
	value  float64
	unit   string
	inJSON bool
}

type layerTable struct{ rows []layerRow }

// add records a per-layer metric reported in the result line.
func (lt *layerTable) add(name string, v float64, unit string) {
	lt.rows = append(lt.rows, layerRow{name, orZero(v), unit, true})
}

// note records a table-only row: a layer this workload may not reach.
func (lt *layerTable) note(name string, v float64, unit string) {
	lt.rows = append(lt.rows, layerRow{name, v, unit, false})
}

func (lt *layerTable) metrics() map[string]metric {
	m := map[string]metric{}
	for _, r := range lt.rows {
		if r.inJSON {
			m[r.name] = metric{r.value, r.unit}
		}
	}
	return m
}

func (lt *layerTable) print(workload string) {
	fmt.Printf("per-layer table, workload %s:\n", workload)
	fmt.Printf("  %-36s %14s %s\n", "layer metric", "value", "unit")
	rows := append([]layerRow(nil), lt.rows...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, r := range rows {
		v := fmt.Sprintf("%14.4f", r.value)
		if math.IsNaN(r.value) {
			v = fmt.Sprintf("%14s", "n/a")
		}
		fmt.Printf("  %-36s %s %s\n", r.name, v, r.unit)
	}
}

// runTraced measures the per-layer metrics. The traffic runs three
// times at the nominal rate or above: untraced (the reference), with
// ?trace=1 on every decide and the access log parsed (span and
// handling-time attribution), and untraced at the high rate (queue
// wait). Then each layer's public functions are timed in-process on
// the workload's own documents.
func runTraced(name string, seed int64, root, bin, tmp string, total time.Duration) (*result, error) {
	w, seedDir, err := prepare(name, seed, root, tmp)
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	var t tally
	inst, _, phases, err := setUp(w, bin, seedDir, filepath.Join(tmp, "data"), true, workers)
	if err != nil {
		return nil, err
	}
	defer inst.c.stop()
	for _, p := range phases {
		t.add(p)
	}
	ctx := context.Background()
	r := rand.New(rand.NewSource(seed ^ 0x7ace))
	cl := newClient(inst.c.base, workers)
	defer cl.close()

	m0, err := inst.c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	plain := runOpen("untraced", cl, w.sources, w.nominal, total*30/100, workers, r)
	printPhase(plain, &t)
	m1, err := inst.c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	cl.trace = true
	traced := runOpen("traced", cl, w.sources, w.nominal, total*30/100, workers, r)
	cl.trace = false
	printPhase(traced, &t)
	high := runOpen("high", cl, w.sources, w.high, total*20/100, workers, r)
	printPhase(high, &t)
	m2, err := inst.c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	if err := inst.c.stop(); err != nil {
		return nil, fmt.Errorf("stopping rcserved: %w", err)
	}

	lt := &layerTable{}
	d := delta(m0, m1)
	ops := float64(len(plain.latencies(opDecide)))
	c := func(counter string) float64 { return d["relcomplete_"+counter+"_total"] }
	perOp := func(counter string) float64 { return ratio(c(counter), ops) }

	// Service layers, from the untraced and traced phases.
	var respBytes, statsBytes, elapsed []float64
	incomplete := 0
	byDecider := map[string][]float64{}
	for i := range plain.samples {
		s := &plain.samples[i]
		if s.kind != opDecide || s.out != outOK {
			continue
		}
		respBytes = append(respBytes, float64(s.bytes))
		statsBytes = append(statsBytes, float64(s.stats))
		elapsed = append(elapsed, s.resp.ElapsedMS)
		byDecider[s.decider] = append(byDecider[s.decider], s.resp.ElapsedMS)
		if s.resp.Verdict != nil && !*s.resp.Verdict && strings.HasPrefix(s.decider, "rcdp") {
			incomplete++
		}
	}
	var net, self, unattributed, searchSelf, fp, clientTraced, clientPlain []float64
	missing := 0
	for i := range traced.samples {
		s := &traced.samples[i]
		if s.kind != opDecide || s.out != outOK {
			continue
		}
		clientTraced = append(clientTraced, s.clientMS())
		a, ok := inst.c.accessFor(s.traceID)
		if !ok {
			missing++
			continue
		}
		net = append(net, s.clientMS()-a.DurationMS)
		self = append(self, a.DurationMS-s.resp.ElapsedMS-s.resp.QueueWaitMS)
		if s.resp.Trace == nil {
			continue
		}
		top, srch, fpSum, sawSearch := spanTimes(s.resp.Trace.Spans)
		unattributed = append(unattributed, s.resp.ElapsedMS-top)
		if sawSearch {
			searchSelf = append(searchSelf, srch)
		}
		if fpSum > 0 {
			fp = append(fp, fpSum)
		}
	}
	if missing > 0 {
		fmt.Printf("note: %d traced decides had no access-log line\n", missing)
	}
	for i := range plain.samples {
		if s := &plain.samples[i]; s.kind == opDecide && s.out == outOK {
			clientPlain = append(clientPlain, s.clientMS())
		}
	}
	var queue []float64
	for i := range high.samples {
		if s := &high.samples[i]; s.kind == opDecide && s.out == outOK {
			queue = append(queue, s.resp.QueueWaitMS)
		}
	}
	lt.add("httpx.net_ms_p50", p50(net), "ms")
	lt.add("server.self_ms_p50", p50(self), "ms")
	lt.add("server.resp_bytes", p50(respBytes), "bytes")
	lt.add("obs.stats_bytes", p50(statsBytes), "bytes")
	lt.add("obs.trace_overhead_frac", p50(clientTraced)/p50(clientPlain)-1, "frac")
	lt.add("admission.queue_wait_ms_p99", p99(queue), "ms")
	lt.add("unattributed_ms_p50", p50(unattributed), "ms")
	lt.add("core.decide_ms_p50", p50(elapsed), "ms")
	for _, dn := range layerDeciders {
		lt.add("core.decide_ms_p50."+dn, p50(byDecider[dn]), "ms")
	}
	for dn, xs := range byDecider {
		if !contains(layerDeciders, dn) {
			lt.note("core.decide_ms_p50."+dn, p50(xs), "ms")
		}
	}
	lt.add("core.models_checked_per_op", perOp("models_checked"), "count")
	lt.add("core.valuations_per_op", perOp("valuations_enumerated"), "count")
	lt.add("core.extensions_per_op", perOp("extensions_tested"), "count")
	lt.add("core.cex_waste_ratio", ratio(c("counterexamples_found"), float64(incomplete)), "ratio")
	lt.add("cc.checks_per_op", perOp("cc_checks"), "count")
	lt.add("cc.violation_ratio", ratio(c("cc_violations"), c("cc_checks")), "ratio")
	lt.add("relation.intern_hit_ratio", ratio(c("intern_hits"), c("intern_hits")+c("values_interned")), "ratio")
	lt.add("relation.index_probe_hit_ratio", ratio(c("index_probe_hits"), c("index_probes")), "ratio")
	lt.add("search.items_per_op", perOp("search_items"), "count")
	lt.add("search.cancellations_per_op", perOp("search_cancellations"), "count")
	lt.add("search.cancel_ms_per_op", perOp("search_cancel_ns")/1e6, "ms")
	lt.add("search.self_ms_p50", p50(searchSelf), "ms")
	lt.add("eval.plan_runs_per_op", perOp("plan_runs"), "count")
	lt.add("eval.plan_compilations_per_op", perOp("plan_compilations"), "count")
	lt.add("eval.plan_cache_hit_ratio", ratio(c("plan_cache_hits"), c("plan_cache_hits")+c("plan_compilations")), "ratio")
	lt.add("eval.rows_probed_per_op", perOp("rows_probed"), "count")
	lt.add("eval.rhs_cache_hit_ratio", ratio(c("rhs_cache_hits"), c("rhs_cache_hits")+c("rhs_cache_misses")), "ratio")
	lt.note("eval.fp_ms_p50", p50(fp), "ms")
	lt.add("runtime.gc_pause_ms_per_op", ratio(d["relcomplete_go_gc_pause_seconds_total"]*1000, ops), "ms")
	lt.add("runtime.heap_mb", m1["relcomplete_go_heap_objects_bytes"]/(1<<20), "MB")
	lt.add("durable.snapshots", delta(m0, m2)["relcomplete_snapshots_written_total"], "count")

	// Layers timed in-process on the workload's documents.
	if err := timeLayers(w, lt, tmp, inst.dataDir, total*20/100); err != nil {
		return nil, err
	}

	// Attribution of the traced client latency.
	fmt.Printf("attribution of traced decides (p50, ms): client=%.3f net=%.3f server.self=%.3f core=%.3f unattributed=%.3f\n",
		p50(clientTraced), p50(net), p50(self), p50(elapsed), p50(unattributed))
	fmt.Printf("share of untraced client p50 %.3fms: net+server.self=%.1f%% core=%.1f%%\n", p50(clientPlain),
		100*(p50(net)+p50(self))/p50(clientPlain), 100*p50(elapsed)/p50(clientPlain))
	lt.print(w.name)
	t.report(os.Stdout)
	return t.result(lt.metrics()), nil
}

// spanTimes sums a decide's span tree: the top-level spans (the
// decider phases, children of the request root, which is not in the
// tree), the self time of search.* spans, and eval.fp time.
func spanTimes(spans []spanData) (top, searchSelf, fp float64, sawSearch bool) {
	ids := map[string]bool{}
	children := map[string]float64{}
	for _, s := range spans {
		ids[s.SpanID] = true
		children[s.ParentID] += s.DurationMS
	}
	for _, s := range spans {
		if !ids[s.ParentID] {
			top += s.DurationMS
		}
		if strings.HasPrefix(s.Name, "search.") {
			sawSearch = true
			searchSelf += s.DurationMS - children[s.SpanID]
		}
		if s.Name == "eval.fp" {
			fp += s.DurationMS
		}
	}
	return top, searchSelf, fp, sawSearch
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// timeLayers calls each layer's public functions on the workload's own
// documents and problems and records the medians, spending about
// budget on the repeated calls.
func timeLayers(w *spec, lt *layerTable, tmp, dataDir string, budget time.Duration) error {
	tpls := w.templates()
	reps := func(n int, f func(i int) error) ([]float64, error) {
		var out []float64
		deadline := time.Now().Add(budget / 8)
		for i := 0; i < n || (i < 4*n && time.Now().Before(deadline)); i++ {
			start := time.Now()
			if err := f(i); err != nil {
				return nil, err
			}
			out = append(out, ms(time.Since(start)))
		}
		return out, nil
	}

	decode, err := reps(len(tpls), func(i int) error {
		_, _, err := probjson.Decode(tpls[i%len(tpls)].doc)
		return err
	})
	if err != nil {
		return err
	}
	lt.add("probjson.decode_ms_p50", p50(decode), "ms")

	reg := server.NewRegistry(0, nil, nil)
	put, err := reps(len(tpls), func(i int) error {
		_, _, err := reg.Put(fmt.Sprintf("p%d", i), tpls[i%len(tpls)].doc)
		return err
	})
	if err != nil {
		return err
	}
	lt.add("registry.put_ms_p50", p50(put), "ms")

	// The durable log on a scratch dir in the checkout: append every
	// document, then replay.
	walDir := filepath.Join(tmp, "layer-wal")
	dm := obs.NewMetrics()
	l, _, err := durable.Open(walDir, durable.Options{Metrics: dm})
	if err != nil {
		return err
	}
	userBytes := 0.0
	appendMS, err := reps(len(tpls), func(i int) error {
		doc := tpls[i%len(tpls)].doc
		userBytes += float64(len(doc))
		return l.AppendPut(fmt.Sprintf("p%d", i), doc)
	})
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	lt.add("durable.append_ms_p50", p50(appendMS), "ms")
	// The fsync histogram's buckets are decades wide, so its exact sum
	// and count give the mean, not a percentile.
	fsync := 0.0
	for _, h := range dm.Snapshot().Histograms {
		if h.Name == "wal_fsync_seconds" {
			fsync = ratio(h.Sum*1000, float64(h.Count))
		}
	}
	lt.add("durable.fsync_ms_mean", fsync, "ms")
	walBytes := 0.0
	if fi, err := os.Stat(filepath.Join(walDir, "wal.log")); err == nil {
		walBytes = float64(fi.Size())
	}
	lt.add("durable.bytes_per_user_byte", ratio(walBytes, userBytes), "ratio")
	replayDir := walDir
	if w.durable {
		replayDir = dataDir // the served run's own WAL and snapshots
	}
	replay, err := reps(3, func(int) error {
		l, _, err := durable.Open(replayDir, durable.Options{})
		if err != nil {
			return err
		}
		return l.Close()
	})
	if err != nil {
		return err
	}
	lt.add("durable.replay_ms", p50(replay), "ms")

	// Query compilation, CC checks, tuple insertion and the deciders, on
	// the decoded problems.
	type built struct {
		p  *core.Problem
		db *relation.Database
	}
	var bs []built
	var queries []*query.Query
	for _, t := range tpls {
		p, ci, err := probjson.Decode(t.doc)
		if err != nil {
			return err
		}
		if p.Query.Calc != nil {
			queries = append(queries, p.Query.Calc)
		}
		for _, c := range p.CCs.Constraints {
			queries = append(queries, c.Left, c.Right)
		}
		db, err := p.AnyModel(ci)
		if err != nil {
			return err
		}
		if db != nil {
			bs = append(bs, built{p, db})
		}
	}
	compile, err := reps(len(queries), func(i int) error {
		_, err := eval.Compile(queries[i%len(queries)])
		return err
	})
	if err != nil {
		return err
	}
	lt.add("eval.compile_us_p50", 1000*p50(compile), "us")
	satisfied, err := reps(len(bs), func(i int) error {
		b := bs[i%len(bs)]
		_, err := b.p.CCs.Satisfied(b.db, b.p.Master, eval.Options{})
		return err
	})
	if err != nil {
		return err
	}
	lt.add("cc.satisfied_us_p50", 1000*p50(satisfied), "us")
	type insert struct {
		db  *relation.Database
		rel string
		tup relation.Tuple
	}
	var ins []insert
	for _, b := range bs {
		if rel, tup := newTuple(b.db); tup != nil {
			ins = append(ins, insert{b.db, rel, tup})
		}
	}
	if len(ins) > 0 {
		withTuple, err := reps(len(ins), func(i int) error {
			in := ins[i%len(ins)]
			in.db.WithTuple(in.rel, in.tup)
			return nil
		})
		if err != nil {
			return err
		}
		lt.add("relation.with_tuple_us_p50", 1000*p50(withTuple), "us")
	} else {
		lt.add("relation.with_tuple_us_p50", math.NaN(), "us")
	}

	// Direct decides with metrics on, as the server runs them; the
	// filled metrics then serve the snapshot timing.
	om := obs.NewMetrics()
	direct := map[string][]float64{}
	for round := 0; round < 3; round++ {
		for _, t := range tpls {
			for _, d := range t.decisions {
				p, ci, err := buildDoc(t.doc, d)
				if err != nil {
					return err
				}
				p.Options.Obs = om
				start := time.Now()
				if _, err := decide(context.Background(), p, ci, d.Property, d.Model); err != nil {
					return err
				}
				direct[d.decider] = append(direct[d.decider], ms(time.Since(start)))
			}
		}
	}
	for _, dn := range layerDeciders {
		lt.add("core.direct_ms_p50."+dn, p50(direct[dn]), "ms")
	}
	for dn, xs := range direct {
		if !contains(layerDeciders, dn) {
			lt.note("core.direct_ms_p50."+dn, p50(xs), "ms")
		}
	}
	snap, err := reps(200, func(int) error { om.Snapshot(); return nil })
	if err != nil {
		return err
	}
	lt.add("obs.snapshot_us_p50", 1000*p50(snap), "us")
	return nil
}

// newTuple returns a tuple that db's first possible relation does not
// hold yet, so that WithTuple really inserts: an existing tuple with
// its first value replaced by a fresh constant, or by a value of the
// first attribute's finite domain not used in that position. It
// returns a nil tuple when every relation is empty or full.
func newTuple(db *relation.Database) (string, relation.Tuple) {
	for _, rel := range db.Schema().Relations() {
		inst := db.Relation(rel.Name)
		ts := inst.Tuples()
		if len(ts) == 0 {
			continue
		}
		firsts := []relation.Value{"servebench-new"}
		if d := rel.Attrs[0].Domain; d.IsFinite() {
			firsts = d.Values()
		}
		for _, v := range firsts {
			t := append(relation.Tuple(nil), ts[0]...)
			t[0] = v
			if !inst.Contains(t) {
				return rel.Name, t
			}
		}
	}
	return "", nil
}
