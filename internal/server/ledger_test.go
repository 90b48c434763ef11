package server

import (
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"relcomplete/internal/fault"
	"relcomplete/internal/obs"
)

// solverCounters are the counters a decide's ledger can carry: the
// core, eval, cc and search counters. The relation index and intern
// counters are left out — they live behind a process-global hook and
// appear on /metrics only — as are the server's own counters.
func solverCounters() []obs.Counter {
	var out []obs.Counter
	for c := obs.Counter(0); c <= obs.DeadlineErrors; c++ {
		switch c {
		case obs.IndexBuilds, obs.IndexInserts, obs.IndexProbes, obs.IndexProbeHits,
			obs.IndexProbeMisses, obs.ValuesInterned, obs.InternHits:
			continue
		}
		out = append(out, c)
	}
	return out
}

// decideAll runs the requests concurrently, released together, and
// returns the responses in request order.
func decideAll(t *testing.T, base, name string, reqs []DecideRequest) []DecideResponse {
	t.Helper()
	out := make([]DecideResponse, len(reqs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req DecideRequest) {
			defer wg.Done()
			<-start
			_, out[i] = decide(t, base, name, req)
		}(i, req)
	}
	close(start)
	wg.Wait()
	return out
}

// With one worker per decide, a decide's work is a function of its
// problem alone, so its stats must not depend on what runs beside it:
// 16 concurrent decides on one resident problem each report exactly
// the counters of the same decide run alone.
func TestLedgerExactUnderConcurrency(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxConcurrent: 16})
	putOrders(t, ts.URL, "orders")
	for _, req := range []DecideRequest{
		{Property: "rcdp", Model: "strong"},
		{Property: "rcdp", Model: "weak"},
		{Property: "minp", Model: "strong"},
		{Property: "certain"},
	} {
		// The first decide fills the problem's plan, domain and
		// candidate caches; every later one reuses them.
		decide(t, ts.URL, "orders", req)
		resp, alone := decide(t, ts.URL, "orders", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status=%d error=%s", req, resp.StatusCode, alone.Error)
		}
		if alone.Stats.Counters["models_checked"] == 0 {
			t.Fatalf("%+v: reference decide checked no models: %v", req, alone.Stats.Counters)
		}
		reqs := make([]DecideRequest, 16)
		for i := range reqs {
			reqs[i] = req
		}
		for i, dr := range decideAll(t, ts.URL, "orders", reqs) {
			if !reflect.DeepEqual(dr.Stats.Counters, alone.Stats.Counters) {
				t.Errorf("%+v: concurrent decide %d counters\n%v\nwant (alone)\n%v",
					req, i, dr.Stats.Counters, alone.Stats.Counters)
			}
			if len(dr.Stats.Histograms) != 0 {
				t.Errorf("%+v: decide %d stats carry histograms", req, i)
			}
		}
	}
}

// Every decide's ledger folds into the server-wide metrics, and nothing
// else reaches them: over a concurrent mixed run — parallel searches,
// query and budget overrides, budget and deadline failures — the sum
// of the responses' stats equals the /metrics delta for every solver
// counter.
func TestLedgerSumsToMetricsDelta(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, MaxConcurrent: 8})
	putOrders(t, ts.URL, "orders")
	counters := solverCounters()
	before := make(map[obs.Counter]int64, len(counters))
	for _, c := range counters {
		before[c] = s.Metrics().Get(c)
	}

	var reqs []DecideRequest
	for i := 0; i < 3; i++ {
		reqs = append(reqs,
			DecideRequest{Property: "rcdp", Model: "strong"},
			DecideRequest{Property: "rcdp", Model: "weak"},
			DecideRequest{Property: "rcdp", Model: "viable"},
			DecideRequest{Property: "minp", Model: "strong"},
			DecideRequest{Property: "consistency"},
			DecideRequest{Property: "extensibility"},
			DecideRequest{Property: "certain"},
			DecideRequest{Property: "rcqp", Model: "strong"},
			DecideRequest{Property: "rcdp", Model: "strong", Query: "Q(i) := Order(i) & Order('zzz')"},
			DecideRequest{Property: "rcdp", Model: "strong", Budget: &BudgetRequest{MaxValuations: 1}},
			DecideRequest{Property: "rcdp", Model: "weak", TimeoutMS: 1},
		)
	}
	sum := map[string]int64{}
	kinds := map[string]int{}
	for _, dr := range decideAll(t, ts.URL, "orders", reqs) {
		kinds[dr.Kind]++
		for name, v := range dr.Stats.Counters {
			sum[name] += v
		}
	}
	if kinds[KindBudget] == 0 {
		t.Fatalf("no budget failure in the run: %v", kinds)
	}
	for _, c := range counters {
		if delta := s.Metrics().Get(c) - before[c]; delta != sum[c.String()] {
			t.Errorf("%s: /metrics delta %d, responses sum %d", c, delta, sum[c.String()])
		}
	}
	if sum["budget_errors"] != int64(kinds[KindBudget]) {
		t.Errorf("budget_errors sum %d, budget answers %d", sum["budget_errors"], kinds[KindBudget])
	}
	if sum["deadline_errors"] != int64(kinds[KindDeadline]) {
		t.Errorf("deadline_errors sum %d, deadline answers %d", sum["deadline_errors"], kinds[KindDeadline])
	}
}

// A decide cut short by its deadline while other decides run on the
// same resident problem reports progress over its own ledger only:
// the models in its deadline detail are exactly the models in its
// stats, not the server's running total.
func TestLedgerDeadlineProgressOwnModels(t *testing.T) {
	// Every query evaluation sleeps, so a decide outlives a 30ms
	// deadline after checking a few models.
	plan := fault.NewPlan(fault.Rule{
		Site: fault.SiteEvalAnswers, Kind: fault.KindDelay, Delay: 10 * time.Millisecond, Every: 1,
	})
	s, ts := newTestServer(t, Config{Workers: 1, MaxConcurrent: 16, FaultPlan: plan})
	putOrders(t, ts.URL, "orders")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				decide(t, ts.URL, "orders", DecideRequest{Property: "rcdp", Model: "weak"})
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	waitFor(t, "background decides in flight", func() bool { return s.Admission().InFlight() >= 3 })

	resp, dr := decide(t, ts.URL, "orders", DecideRequest{Property: "rcdp", Model: "weak", TimeoutMS: 30})
	if resp.StatusCode != http.StatusRequestTimeout || dr.Deadline == nil {
		t.Fatalf("status=%d kind=%q deadline=%+v", resp.StatusCode, dr.Kind, dr.Deadline)
	}
	own := dr.Stats.Counters
	for _, c := range []struct {
		name     string
		progress int64
	}{
		{"models_checked", dr.Deadline.ModelsChecked},
		{"models_admitted", dr.Deadline.ModelsAdmitted},
		{"valuations_enumerated", dr.Deadline.ValuationsEnumerated},
		{"extensions_tested", dr.Deadline.ExtensionsTested},
	} {
		if c.progress != own[c.name] {
			t.Errorf("deadline progress %s = %d, the decide's own ledger says %d", c.name, c.progress, own[c.name])
		}
	}
	if own["deadline_errors"] != 1 {
		t.Errorf("deadline_errors = %d, want 1", own["deadline_errors"])
	}
	if dr.Deadline.ModelsChecked == 0 {
		t.Errorf("deadline fired before any model was checked: %+v", dr.Deadline)
	}
}
