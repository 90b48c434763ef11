package core

// Cross-model property tests on randomised problems: the structural
// relationships the paper states in Section 2.2 must hold on every
// input, independently of the specific decider code paths.

import (
	"context"
	"errors"
	"testing"

	"relcomplete/internal/ctable"
	"relcomplete/internal/relation"
)

func TestPropertyStrongImpliesWeakAndViable(t *testing.T) {
	// Section 2.2 observation (a): strong ⇒ weak and strong ⇒ viable.
	for i, rp := range randomProblems(t, 777, 80) {
		strong, err := rp.p.RCDP(rp.ci, Strong)
		if errors.Is(err, ErrInconsistent) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !strong {
			continue
		}
		weak, err := rp.p.RCDP(rp.ci, Weak)
		if err != nil {
			t.Fatal(err)
		}
		viable, err := rp.p.RCDP(rp.ci, Viable)
		if err != nil {
			t.Fatal(err)
		}
		if !weak || !viable {
			t.Fatalf("case %d: strong but weak=%v viable=%v\nquery: %s\nci: %v\nmaster: %v",
				i, weak, viable, rp.p.Query, rp.ci, rp.p.Master)
		}
	}
}

func TestPropertyGroundStrongEqualsViable(t *testing.T) {
	// Section 2.2 observation (b): for ground instances, strongly
	// complete ⟺ viably complete ⟺ relatively complete.
	for i, rp := range randomProblems(t, 888, 80) {
		if !rp.ci.IsGround() {
			continue
		}
		strong, err1 := rp.p.RCDP(rp.ci, Strong)
		viable, err2 := rp.p.RCDP(rp.ci, Viable)
		if errors.Is(err1, ErrInconsistent) && errors.Is(err2, ErrInconsistent) {
			continue
		}
		if err1 != nil || err2 != nil {
			t.Fatalf("case %d: %v / %v", i, err1, err2)
		}
		if strong != viable {
			t.Fatalf("case %d: ground strong=%v viable=%v", i, strong, viable)
		}
	}
}

func TestPropertyCertainAnswersSoundness(t *testing.T) {
	// Every certain answer must be an answer in every model, and the
	// certain answers over extensions must contain the certain answers
	// over models (monotone queries).
	for i, rp := range randomProblems(t, 999, 60) {
		certT, err := rp.p.CertainAnswers(rp.ci)
		if errors.Is(err, ErrInconsistent) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		models, err := rp.p.Models(rp.ci, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, db := range models {
			ans, err := rp.p.begin(context.Background()).answers(context.Background(), db)
			if err != nil {
				t.Fatal(err)
			}
			have := map[string]bool{}
			for _, a := range ans {
				have[a.Key()] = true
			}
			for _, c := range certT {
				if !have[c.Key()] {
					t.Fatalf("case %d: certain answer %v missing from model %v", i, c, db)
				}
			}
		}
		certExt, anyExt, err := rp.p.CertainAnswersOfExtensions(rp.ci)
		if err != nil {
			t.Fatal(err)
		}
		if !anyExt {
			continue
		}
		// By monotonicity certT ⊆ certExt.
		inExt := map[string]bool{}
		for _, c := range certExt {
			inExt[c.Key()] = true
		}
		for _, c := range certT {
			if !inExt[c.Key()] {
				t.Fatalf("case %d: certT %v not in certExt %v", i, certT, certExt)
			}
		}
	}
}

func TestPropertyMinimalImpliesComplete(t *testing.T) {
	// A minimal complete instance is in particular complete.
	for i, rp := range randomProblems(t, 1111, 60) {
		for _, m := range []Model{Strong, Weak, Viable} {
			minimal, err := rp.p.MINP(rp.ci, m)
			if errors.Is(err, ErrInconsistent) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if !minimal {
				continue
			}
			complete, err := rp.p.RCDP(rp.ci, m)
			if err != nil {
				t.Fatal(err)
			}
			if !complete {
				t.Fatalf("case %d model %v: minimal but not complete", i, m)
			}
		}
	}
}

func TestPropertyRowOrderIrrelevant(t *testing.T) {
	// The deciders must not depend on row insertion order.
	for i, rp := range randomProblems(t, 2222, 40) {
		rows := rp.ci.AllRows()
		if len(rows) < 2 {
			continue
		}
		// Rebuild the c-instance with rows reversed.
		rev := ctable.NewCInstance(rp.ci.Schema())
		for j := len(rows) - 1; j >= 0; j-- {
			rev.MustAddRow(rows[j].Rel, rp.ci.Table(rows[j].Rel).Rows()[rows[j].Index])
		}
		for _, m := range []Model{Strong, Weak, Viable} {
			a, err1 := rp.p.RCDP(rp.ci, m)
			b, err2 := rp.p.RCDP(rev, m)
			if errors.Is(err1, ErrInconsistent) || errors.Is(err2, ErrInconsistent) {
				if !errors.Is(err1, ErrInconsistent) || !errors.Is(err2, ErrInconsistent) {
					t.Fatalf("case %d model %v: consistency differs across row order", i, m)
				}
				continue
			}
			if err1 != nil || err2 != nil {
				t.Fatalf("case %d model %v: %v / %v", i, m, err1, err2)
			}
			if a != b {
				t.Fatalf("case %d model %v: verdict depends on row order (%v vs %v)", i, m, a, b)
			}
		}
	}
}

func TestPropertyCompleteSurvivesCompleteExtension(t *testing.T) {
	// If a ground instance is complete and I ∪ {t} is a partially
	// closed extension, then Q(I) = Q(I ∪ {t}) — directly from the
	// definition; exercised through the decider plus the extension
	// enumerator.
	for i, rp := range randomProblems(t, 3333, 40) {
		db, err := rp.p.AnyModel(rp.ci)
		if err != nil {
			t.Fatal(err)
		}
		if db == nil {
			continue
		}
		complete, _, err := rp.p.GroundComplete(db)
		if err != nil {
			t.Fatal(err)
		}
		if !complete {
			continue
		}
		d, err := rp.p.domainsFor(ctable.FromDatabase(db), false, true)
		if err != nil {
			t.Fatal(err)
		}
		c := rp.p.begin(context.Background())
		err = c.forEachSingleTupleExtension(context.Background(), db, d,
			func(ext *relation.Database, rel string, tup relation.Tuple) (bool, error) {
				same, err := c.sameAnswers(context.Background(), db, ext)
				if err != nil {
					return false, err
				}
				if !same {
					t.Fatalf("case %d: complete instance changed answers on extension %s%v", i, rel, tup)
				}
				return true, nil
			})
		if err != nil {
			t.Fatal(err)
		}
	}
}
