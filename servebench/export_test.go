package main

import (
	"context"
	"testing"

	"relcomplete/internal/core"
	"relcomplete/internal/ctable"
	"relcomplete/internal/paperex"
	"relcomplete/internal/probjson"
	"relcomplete/internal/reduction"
	"relcomplete/internal/workload"
)

// roundTrip exports p and ci, decodes the document as rcserved does and
// checks that the decoded problem answers the property as the in-memory
// one does and, when truth is non-nil, as the ground truth says.
func roundTrip(t *testing.T, label string, p *core.Problem, ci *ctable.CInstance, property, model string, truth *bool) {
	t.Helper()
	ctx := context.Background()
	want, err := decide(ctx, p, ci, property, model)
	if err != nil {
		t.Fatalf("%s: in-memory decide: %v", label, err)
	}
	if truth != nil && !want.equal(verdictOf(*truth)) {
		t.Fatalf("%s: in-memory problem answers %v, ground truth %t", label, want, *truth)
	}
	doc, err := exportDoc(p, ci)
	if err != nil {
		t.Fatalf("%s: export: %v", label, err)
	}
	dp, dci, err := probjson.Decode(doc)
	if err != nil {
		t.Fatalf("%s: decode of exported document: %v\n%s", label, err, doc)
	}
	got, err := decide(ctx, dp, dci, property, model)
	if err != nil {
		t.Fatalf("%s: decide on decoded problem: %v", label, err)
	}
	if !got.equal(want) {
		t.Fatalf("%s %s_%s: decoded problem answers %v, in-memory %v", label, property, model, got, want)
	}
	again, err := exportDoc(dp, dci)
	if err != nil || string(again) != string(doc) {
		t.Fatalf("%s: export of the decoded problem differs:\n%s\n%s", label, doc, again)
	}
}

func TestExportGadgetsAgainstGroundTruth(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		q := workload.ExistsForallExistsFamily(1, 3, 1, 3, seed)
		weak, err := reduction.NewWeakRCDPGadget(q)
		if err != nil {
			t.Fatal(err)
		}
		f := !q.Eval()
		roundTrip(t, "weak RCDP", weak.Problem, weak.I, "rcdp", "weak", &f)

		q = workload.ExistsForallExistsFamily(2, 1, 1, 3, seed)
		viable, err := reduction.NewExistsForallExistsGadget(q, false)
		if err != nil {
			t.Fatal(err)
		}
		v := q.Eval()
		roundTrip(t, "viable RCDP", viable.Problem, viable.T, "rcdp", "viable", &v)

		minp, err := reduction.NewExistsForallExistsGadget(q, true)
		if err != nil {
			t.Fatal(err)
		}
		m := !q.Eval()
		roundTrip(t, "strong MINP", minp.Problem, minp.T, "minp", "strong", &m)

		circ := workload.CircuitFamily(2, 8, seed%2 == 0, seed)
		fp, err := reduction.NewCircuitFPGadget(circ)
		if err != nil {
			t.Fatal(err)
		}
		taut, err := circ.Tautology()
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, "weak FP circuit", fp.Problem, fp.I, "rcdp", "weak", &taut)
	}
}

func TestExportScenarios(t *testing.T) {
	s := paperex.Reduced()
	patient, err := s.Problem(s.Q1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := workload.NewBoundedScenario(6, core.Options{})
	bci := b.Instance(4, 2, 7)
	for _, d := range cheapDecisions() {
		roundTrip(t, "paperex Figure 1 Q1", patient, s.T, d.Property, d.Model, nil)
		roundTrip(t, "bounded scenario", b.Problem, bci, d.Property, d.Model, nil)
	}
}

// TestWorkloadsBuild builds every workload, which computes each
// expected answer in-process and checks every gadget against its
// ground truth.
func TestWorkloadsBuild(t *testing.T) {
	for _, name := range workloadNames {
		w, err := buildWorkload(name, 3, "..")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(w.resident) == 0 || len(w.sources) == 0 {
			t.Fatalf("%s: empty workload", name)
		}
	}
}
