package similarity

import (
	"testing"

	"aimq/internal/query"
	"aimq/internal/relation"
)

// TestSimExplainSumsExactly: the decomposition's terms must sum — bit for
// bit, not within an epsilon — to what Sim returns, because the explain API
// advertises the breakdown of the *reported* score.
func TestSimExplainSumsExactly(t *testing.T) {
	e := buildEstimator(t, structuredRel())
	sc := e.Schema
	queries := []string{
		"Model like Camry",
		"Model like Camry, Price like 10000",
		"Make like Toyota, Model like Accord, Class like sedan, Price like 12000",
		"Price like 25000",
	}
	tuples := []relation.Tuple{
		{relation.Cat("Honda"), relation.Cat("Accord"), relation.Cat("sedan"), relation.Numv(10500)},
		{relation.Cat("Ford"), relation.Cat("F150"), relation.Cat("truck"), relation.Numv(25000)},
		{relation.Cat("Toyota"), relation.Cat("Camry"), relation.Cat("sedan"), relation.Numv(12000)},
		{relation.Cat("Dodge"), relation.NullValue, relation.Cat("truck"), relation.Numv(26000)}, // null Model
	}
	for _, qs := range queries {
		q, err := query.Parse(sc, qs)
		if err != nil {
			t.Fatalf("Parse(%q): %v", qs, err)
		}
		for _, tp := range tuples {
			want := sim(e, q, tp)
			total, contribs := e.SimExplain(q, tp)
			if total != want {
				t.Errorf("%q vs %v: SimExplain total %v != Sim %v", qs, tp, total, want)
			}
			if len(contribs) != len(q.Preds) {
				t.Errorf("%q: %d contributions for %d predicates", qs, len(contribs), len(q.Preds))
			}
			sum := 0.0
			for _, c := range contribs {
				sum += c.Term
			}
			if sum != want {
				t.Errorf("%q vs %v: contribution sum %v != Sim %v", qs, tp, sum, want)
			}
		}
	}
}

// Null tuple values must appear in the breakdown with a zero term, so the
// explanation still names every bound attribute.
func TestSimExplainNullValue(t *testing.T) {
	e := buildEstimator(t, structuredRel())
	q, err := query.Parse(e.Schema, "Model like Camry, Price like 10000")
	if err != nil {
		t.Fatal(err)
	}
	tp := relation.Tuple{relation.Cat("Toyota"), relation.NullValue, relation.Cat("sedan"), relation.Numv(10000)}
	total, contribs := e.SimExplain(q, tp)
	if len(contribs) != 2 {
		t.Fatalf("contribs = %v", contribs)
	}
	if contribs[0].Attr != "Model" || contribs[0].Sim != 0 || contribs[0].Term != 0 {
		t.Errorf("null Model contribution = %+v, want zero term", contribs[0])
	}
	if contribs[0].Weight == 0 {
		t.Errorf("null contribution lost its weight")
	}
	if total != sim(e, q, tp) {
		t.Errorf("total %v != Sim %v", total, sim(e, q, tp))
	}
}
