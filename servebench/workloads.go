package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"relcomplete/internal/core"
	"relcomplete/internal/ctable"
	"relcomplete/internal/paperex"
	"relcomplete/internal/probjson"
	"relcomplete/internal/reduction"
	"relcomplete/internal/sat"
	"relcomplete/internal/server"
	"relcomplete/internal/workload"
)

// decision is one decide request body the benchmark sends, with the
// answer it must get back.
type decision struct {
	Property string                `json:"property"`
	Model    string                `json:"model,omitempty"`
	Query    string                `json:"query,omitempty"`
	Budget   *server.BudgetRequest `json:"budget,omitempty"`

	body    []byte
	want    expect
	decider string
}

// expect is the checked part of a decide answer: the verdict, or the
// certain answers for property "certain".
type expect struct {
	verdict *bool
	certain []string
}

func (e expect) String() string {
	if e.certain != nil {
		return fmt.Sprintf("certain=%v", e.certain)
	}
	if e.verdict == nil {
		return "verdict=null"
	}
	return fmt.Sprintf("verdict=%t", *e.verdict)
}

func (e expect) equal(o expect) bool {
	if (e.verdict == nil) != (o.verdict == nil) || (e.verdict != nil && *e.verdict != *o.verdict) {
		return false
	}
	if (e.certain == nil) != (o.certain == nil) || len(e.certain) != len(o.certain) {
		return false
	}
	for i := range e.certain {
		if e.certain[i] != o.certain[i] {
			return false
		}
	}
	return true
}

func verdictOf(b bool) expect { return expect{verdict: &b} }

// template is one problem document with the decisions asked of it.
type template struct {
	label     string
	doc       []byte
	decisions []*decision
}

// tenant is a resident problem: a registry name bound to a template.
type tenant struct {
	name string
	tpl  *template
}

// spec is one workload: the problems resident after set-up, the
// sources of traffic, the fixed arrival rates and the latency limit.
type spec struct {
	name    string
	nominal float64 // operations per second at the nominal fixed rate
	high    float64 // operations per second at the high fixed rate
	// limitMS is the latency limit of slo_ok_frac.high: four times the
	// high-rate p99 (chunkP99, median over seeds 11-15) measured on a
	// 2-vCPU virtual machine when the benchmark was introduced, rounded
	// up to 5 ms (qbf_gadgets: seed 1 only).
	limitMS  float64
	durable  bool // serve with -data-dir pre-seeded with the resident set
	args     []string
	resident []tenant
	sources  []source
}

// templates lists every distinct template the workload uses.
func (w *spec) templates() []*template {
	seen := map[*template]bool{}
	var out []*template
	add := func(t *template) {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for _, t := range w.resident {
		add(t.tpl)
	}
	for _, s := range w.sources {
		for _, t := range s.templates() {
			add(t)
		}
	}
	return out
}

var workloadNames = []string{"tenant_mix", "qbf_gadgets", "registry_churn"}

func buildWorkload(name string, seed int64, root string) (*spec, error) {
	switch name {
	case "tenant_mix":
		return tenantMix(seed, root)
	case "qbf_gadgets":
		return qbfGadgets(seed)
	case "registry_churn":
		return registryChurn(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// cheapDecisions is the tenant_mix property mix: RCDP in all three
// models, strong MINP, consistency, extensibility and certain answers.
func cheapDecisions() []*decision {
	return []*decision{
		{Property: "rcdp", Model: "strong"},
		{Property: "rcdp", Model: "weak"},
		{Property: "rcdp", Model: "viable"},
		{Property: "minp", Model: "strong"},
		{Property: "consistency"},
		{Property: "extensibility"},
		{Property: "certain"},
	}
}

// boundedTemplate exports one workload.BoundedScenario instance. The
// decide time grows with the active domain (valuations number about
// |adom|^vars), and the part of the active domain an instance draws is
// its set of quantity constants; so instances are drawn until they hold
// min(rows, 3) distinct quantities, which keeps the cost of a shape
// the same from seed to seed.
func boundedTemplate(catalogue, rows, vars int, r *rand.Rand, decisions []*decision) (*template, error) {
	s := workload.NewBoundedScenario(catalogue, core.Options{})
	ci := s.Instance(rows, vars, r.Int63())
	for distinctQuantities(ci) != min(rows, 3) {
		ci = s.Instance(rows, vars, r.Int63())
	}
	return newTemplate(fmt.Sprintf("bounded c=%d r=%d v=%d", catalogue, rows, vars), s.Problem, ci, decisions)
}

func distinctQuantities(ci *ctable.CInstance) int {
	seen := map[string]bool{}
	for _, row := range ci.Table("Order").Rows() {
		if q := row.Terms[1]; !q.IsVar {
			seen[string(q.Const)] = true
		}
	}
	return len(seen)
}

// newTemplate exports p and ci and computes every decision's expected
// answer in-process, on the problem decoded from the exported bytes —
// the same bytes the server receives.
func newTemplate(label string, p *core.Problem, ci *ctable.CInstance, decisions []*decision) (*template, error) {
	doc, err := exportDoc(p, ci)
	if err != nil {
		return nil, err
	}
	return templateFromDoc(label, doc, decisions)
}

func templateFromDoc(label string, doc []byte, decisions []*decision) (*template, error) {
	t := &template{label: label, doc: doc}
	for _, d := range decisions {
		d := *d
		got, err := decideDoc(context.Background(), doc, &d)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", label, d.name(), err)
		}
		switch {
		case d.want.verdict == nil && d.want.certain == nil:
			d.want = got
		case !got.equal(d.want):
			return nil, fmt.Errorf("%s: %s: decoded document answers %v, ground truth %v", label, d.name(), got, d.want)
		}
		if err := d.finish(); err != nil {
			return nil, err
		}
		t.decisions = append(t.decisions, &d)
	}
	return t, nil
}

func (d *decision) name() string {
	s := d.Property
	if d.Model != "" {
		s += "_" + d.Model
	}
	if d.Query != "" {
		s += "+query"
	}
	if d.Budget != nil {
		s += "+budget"
	}
	return s
}

// finish fixes the request body and the decider label (as the server's
// per-tenant series name it: property_model).
func (d *decision) finish() error {
	body, err := json.Marshal(d)
	if err != nil {
		return err
	}
	d.body = body
	d.decider = d.Property
	if d.Model != "" {
		d.decider += "_" + d.Model
	}
	return nil
}

// buildDoc decodes a document the way the server does, applying the
// decision's query and budget overrides.
func buildDoc(doc []byte, d *decision) (*core.Problem, *ctable.CInstance, error) {
	pd, err := server.DecodeDocument(doc)
	if err != nil {
		return nil, nil, err
	}
	if d.Query != "" {
		pd.Query = probjson.QueryDoc{Calc: d.Query}
	}
	if b := d.Budget; b != nil && b.MaxValuations != 0 {
		pd.Options.MaxValuations = b.MaxValuations
	}
	return probjson.Build(pd)
}

func decideDoc(ctx context.Context, doc []byte, d *decision) (expect, error) {
	p, ci, err := buildDoc(doc, d)
	if err != nil {
		return expect{}, err
	}
	return decide(ctx, p, ci, d.Property, d.Model)
}

// decide runs one property in-process with the dispatch of the
// server's decide handler.
func decide(ctx context.Context, p *core.Problem, ci *ctable.CInstance, property, model string) (expect, error) {
	m := map[string]core.Model{"": core.Strong, "strong": core.Strong, "weak": core.Weak, "viable": core.Viable}[model]
	switch property {
	case "consistency":
		ok, err := p.ConsistentCtx(ctx, ci)
		return verdictOf(ok), err
	case "extensibility":
		db, err := p.AnyModelCtx(ctx, ci)
		if err != nil {
			return expect{}, err
		}
		if db == nil {
			return expect{}, core.ErrInconsistent
		}
		ok, err := p.ExtensibleCtx(ctx, db)
		return verdictOf(ok), err
	case "rcdp":
		ok, _, err := p.RCDPExplainCtx(ctx, ci, m)
		return verdictOf(ok), err
	case "minp":
		ok, err := p.MINPCtx(ctx, ci, m)
		return verdictOf(ok), err
	case "certain":
		ans, err := p.CertainAnswersCtx(ctx, ci)
		if err != nil {
			return expect{}, err
		}
		out := []string{}
		for _, t := range ans {
			out = append(out, t.String())
		}
		return expect{certain: out}, nil
	}
	return expect{}, fmt.Errorf("unknown property %q", property)
}

// tenantMix: 64 resident problems with sub-millisecond decides, picked
// zipfian. Sizes cycle through a fixed grid so every seed has the same
// shape; the seed draws the instance rows and the arrivals.
func tenantMix(seed int64, root string) (*spec, error) {
	r := rand.New(rand.NewSource(seed))
	w := &spec{name: "tenant_mix", nominal: 200, high: 350, limitMS: 30}
	var tpls []*template
	for i := 0; i < 62; i++ {
		c, rows, vars := boundedShape(i)
		t, err := boundedTemplate(c, rows, vars, r, cheapDecisions())
		if err != nil {
			return nil, err
		}
		tpls = append(tpls, t)
	}
	raw, err := os.ReadFile(filepath.Join(root, "examples", "orders_rcdp.json"))
	if err != nil {
		return nil, err
	}
	orders, err := templateFromDoc("examples/orders_rcdp.json", raw, cheapDecisions())
	if err != nil {
		return nil, err
	}
	patient, err := patientTemplate()
	if err != nil {
		return nil, err
	}
	// The two fixed problems take the hottest zipf ranks after the
	// first generated one, so every seed exercises them.
	tpls = slices.Insert(tpls, 1, orders, patient)
	for i, t := range tpls {
		w.resident = append(w.resident, tenant{name: fmt.Sprintf("mix-%02d", i), tpl: t})
	}
	w.sources = []source{newMixSource(w.resident, 1.1)}
	return w, nil
}

// boundedShape is the i-th point of the size grid of the bounded
// scenarios: catalogue 3 to 24 items, 1 to 8 ground rows, and a second
// c-table variable only on the small catalogues, which keeps every
// decide near a millisecond or below.
func boundedShape(i int) (catalogue, rows, vars int) {
	catalogue = []int{3, 6, 12, 24}[i%4]
	rows = 1 + (i/4)%8
	vars = 1
	if catalogue <= 6 && (i/2)%2 == 1 {
		vars = 2
	}
	return catalogue, rows, vars
}

// patientTemplate is the paper's Figure 1 patient example (the reduced
// four-attribute scenario) under query Q1 of Example 1.1.
func patientTemplate() (*template, error) {
	s := paperex.Reduced()
	p, err := s.Problem(s.Q1, core.Options{})
	if err != nil {
		return nil, err
	}
	return newTemplate("paperex Figure 1 Q1", p, s.T, cheapDecisions())
}

// gadgetShape sizes one ∃X∀Y∃Z 3SAT instance.
type gadgetShape struct{ nX, nY, nZ, clauses int }

// qbfGadgets: the paper's lower-bound gadgets with ground truth from
// the brute-force QBF and circuit evaluators of internal/sat.
func qbfGadgets(seed int64) (*spec, error) {
	r := rand.New(rand.NewSource(seed))
	w := &spec{name: "qbf_gadgets", nominal: 20, high: 35, limitMS: 130}
	var tpls []*template
	// newTemplate checks the decoded document against the ground truth.
	add := func(label string, p *core.Problem, ci *ctable.CInstance, d *decision, truth bool) error {
		d.want = verdictOf(truth)
		t, err := newTemplate(label, p, ci, []*decision{d})
		if err != nil {
			return err
		}
		tpls = append(tpls, t)
		return nil
	}
	// Weak RCDP on ∃X∀Y∃Z 3SAT with |X| = |Z| = 1 and three clauses.
	// The decide time of a formula depends mostly on |Y| and on its
	// truth value, so each seed fills a fixed quota of (|Y|, truth)
	// pairs, drawing formulas until each quota is met. The quotas put
	// the median decide inside the cluster of true |Y| = 5 formulas,
	// whose times vary least between formulas, rather than in a gap
	// between clusters, where it would jump between seeds.
	for _, k := range []struct {
		nY, n int
		truth bool
	}{{4, 3, false}, {5, 8, true}, {6, 2, true}, {7, 2, true}} {
		for i := 0; i < k.n; i++ {
			q := drawQBF(r, 1, k.nY, 1, 3, k.truth)
			g, err := reduction.NewWeakRCDPGadget(q)
			if err != nil {
				return nil, err
			}
			// Theorem 5.1(3): I is weakly complete iff the QBF is false.
			if err := add(fmt.Sprintf("weak RCDP |Y|=%d", k.nY), g.Problem, g.I,
				&decision{Property: "rcdp", Model: "weak"}, !q.Eval()); err != nil {
				return nil, err
			}
		}
	}
	// One true and one false formula for each of the viable-RCDP and
	// strong-MINP gadgets, |X| = 2.
	for _, truth := range []bool{true, false} {
		q := drawQBF(r, 2, 1, 1, 3, truth)
		g, err := reduction.NewExistsForallExistsGadget(q, false)
		if err != nil {
			return nil, err
		}
		// Theorem 6.1: T is viably complete iff the QBF is true.
		if err := add("viable RCDP |X|=2", g.Problem, g.T,
			&decision{Property: "rcdp", Model: "viable"}, q.Eval()); err != nil {
			return nil, err
		}
		q = drawQBF(r, 2, 1, 1, 3, truth)
		g, err = reduction.NewExistsForallExistsGadget(q, true)
		if err != nil {
			return nil, err
		}
		// Theorem 4.8: T is a minimal strongly complete c-instance iff
		// the QBF is false.
		if err := add("strong MINP |X|=2", g.Problem, g.T,
			&decision{Property: "minp", Model: "strong"}, !q.Eval()); err != nil {
			return nil, err
		}
	}
	circ := workload.CircuitFamily(2, 8, r.Intn(2) == 0, r.Int63())
	g, err := reduction.NewCircuitFPGadget(circ)
	if err != nil {
		return nil, err
	}
	taut, err := circ.Tautology()
	if err != nil {
		return nil, err
	}
	// Theorem 5.1(2): I is weakly complete for the FP query iff the
	// circuit is a tautology.
	if err := add("weak FP circuit", g.Problem, g.I, &decision{Property: "rcdp", Model: "weak"}, taut); err != nil {
		return nil, err
	}
	for i, t := range tpls {
		w.resident = append(w.resident, tenant{name: fmt.Sprintf("qbf-%02d", i), tpl: t})
	}
	w.sources = []source{newMixSource(w.resident, 0)}
	return w, nil
}

// drawQBF draws ∃∀∃ 3SAT formulas of the given shape until one has the
// wanted truth value.
func drawQBF(r *rand.Rand, nX, nY, nZ, clauses int, truth bool) *sat.QBF {
	for {
		q := workload.ExistsForallExistsFamily(nX, nY, nZ, clauses, r.Int63())
		if q.Eval() == truth {
			return q
		}
	}
}

// churnDecisions adds the request-scoped overrides that make the server
// rebuild the problem on every request.
func churnDecisions() []*decision {
	return []*decision{
		{Property: "rcdp", Model: "strong"},
		{Property: "rcdp", Model: "weak"},
		{Property: "rcdp", Model: "viable"},
		{Property: "consistency"},
		{Property: "certain"},
		{Property: "minp", Model: "strong"},
		{Property: "rcdp", Model: "weak", Query: "Q(q) := Order('item1', q)"},
		{Property: "rcdp", Model: "strong", Budget: &server.BudgetRequest{MaxValuations: 1 << 20}},
	}
}

// registryChurn: PUT (new and replace) and DELETE beside decides on a
// durable registry. The written names are split into two namespaces,
// each bound to one client connection, so a decide never overtakes the
// PUT it follows.
func registryChurn(seed int64) (*spec, error) {
	r := rand.New(rand.NewSource(seed))
	w := &spec{name: "registry_churn", nominal: 180, high: 320, limitMS: 45, durable: true,
		args: []string{"-snapshot-every", "3s"}}
	var tpls []*template
	for i := 0; i < 24; i++ {
		c, rows, vars := boundedShape(i)
		t, err := boundedTemplate(c, rows, vars, r, churnDecisions())
		if err != nil {
			return nil, err
		}
		tpls = append(tpls, t)
	}
	// Sixteen stable tenants are never written after set-up, so their
	// decides may go to either connection; each churn namespace's
	// operations stay on its own connection, in order.
	var stable []tenant
	for i := 0; i < 16; i++ {
		stable = append(stable, tenant{name: fmt.Sprintf("stable-%02d", i), tpl: tpls[i%len(tpls)]})
	}
	w.resident = append(w.resident, stable...)
	w.sources = append(w.sources, newMixSource(stable, 0))
	const namespaces, residentPer = 2, 8
	for ns := 0; ns < namespaces; ns++ {
		src := &churnSource{worker: ns, prefix: fmt.Sprintf("churn-%d-", ns), pool: tpls, live: map[string]*template{}}
		for i := 0; i < residentPer; i++ {
			t := tenant{name: src.fresh(), tpl: tpls[(16+ns*residentPer+i)%len(tpls)]}
			src.add(t.name, t.tpl)
			w.resident = append(w.resident, t)
		}
		w.sources = append(w.sources, src)
	}
	return w, nil
}

// zipfCDF is the cumulative zipf(s) distribution over n ranks (s = 0
// is uniform).
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func pick(cdf []float64, r *rand.Rand) int {
	return sort.SearchFloat64s(cdf, r.Float64())
}

// sortedNames lists a name set in order, for deterministic draws.
func sortedNames(m map[string]*template) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
