package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"relcomplete/internal/core"
	"relcomplete/internal/ctable"
	"relcomplete/internal/probjson"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// exportDoc renders an in-memory problem and its c-instance as the
// probjson document rcserved accepts on PUT. Queries and CC sides are
// rendered through their String methods, which print the same syntax
// query.ParseQuery and query.ParseProgram read back.
func exportDoc(p *core.Problem, ci *ctable.CInstance) ([]byte, error) {
	doc := probjson.Document{
		Schema: probjson.SchemaDoc{Relations: relationDocs(p.Schema)},
		Master: probjson.MasterDoc{
			Relations: relationDocs(p.Master.Schema()),
			Rows:      map[string][][]string{},
		},
		Options: probjson.OptionsDoc{
			MaxValuations: p.Options.MaxValuations,
			MaxSubsets:    p.Options.MaxSubsets,
			RCQPSizeBound: p.Options.RCQPSizeBound,
			MaxDerived:    p.Options.MaxDerived,
		},
	}
	for _, rel := range p.Master.Schema().Relations() {
		rows := [][]string{}
		for _, t := range p.Master.Relation(rel.Name).Tuples() {
			row := make([]string, len(t))
			for i, v := range t {
				row[i] = string(v)
			}
			rows = append(rows, row)
		}
		doc.Master.Rows[rel.Name] = rows
	}
	if p.CCs != nil {
		for _, c := range p.CCs.Constraints {
			doc.CCs = append(doc.CCs, probjson.CCDoc{Name: c.Name, Left: c.Left.String(), Right: c.Right.String()})
		}
	}
	switch {
	case p.Query.Prog != nil:
		doc.Query.FP = p.Query.Prog.String()
	case p.Query.Calc != nil:
		doc.Query.Calc = p.Query.Calc.String()
	default:
		return nil, fmt.Errorf("export: problem has no query")
	}
	for _, rel := range ci.Schema().Relations() {
		for _, row := range ci.Table(rel.Name).Rows() {
			rd := probjson.RowDoc{Rel: rel.Name, Terms: make([]string, len(row.Terms))}
			for i, t := range row.Terms {
				rd.Terms[i] = termText(t)
			}
			for _, a := range row.Cond {
				rd.Cond = append(rd.Cond, [3]string{termText(a.L), a.Op.String(), termText(a.R)})
			}
			doc.CInstance.Rows = append(doc.CInstance.Rows, rd)
		}
	}
	return json.Marshal(doc)
}

func relationDocs(s *relation.DBSchema) []probjson.RelationDoc {
	out := []probjson.RelationDoc{}
	for _, rel := range s.Relations() {
		rd := probjson.RelationDoc{Name: rel.Name}
		for _, a := range rel.Attrs {
			ad := probjson.AttrDoc{Name: a.Name}
			if a.Domain.IsFinite() {
				for _, v := range a.Domain.Values() {
					ad.Domain = append(ad.Domain, string(v))
				}
			}
			rd.Attrs = append(rd.Attrs, ad)
		}
		out = append(out, rd)
	}
	return out
}

// termText is probjson's term syntax: "?x" for a variable, the constant
// itself otherwise, with a leading question mark escaped.
func termText(t query.Term) string {
	if t.IsVar {
		return "?" + t.Name
	}
	s := string(t.Const)
	if strings.HasPrefix(s, "?") {
		return `\` + s
	}
	return s
}
