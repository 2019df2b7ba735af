package similarity

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"aimq/internal/afd"
	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/supertuple"
	"aimq/internal/tane"
)

func carSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "Make", Type: relation.Categorical},
		relation.Attribute{Name: "Model", Type: relation.Categorical},
		relation.Attribute{Name: "Class", Type: relation.Categorical},
		relation.Attribute{Name: "Price", Type: relation.Numeric},
	)
}

// structuredRel plants similarity structure: Camry/Accord are midsize
// sedans at similar prices; F150/Ram are trucks at higher prices. So
// VSim(Camry, Accord) should far exceed VSim(Camry, F150).
func structuredRel() *relation.Relation {
	r := relation.New(carSchema())
	add := func(mk, md, cl string, p float64, times int) {
		for i := 0; i < times; i++ {
			// Tiny per-tuple price jitter keeps Price a near-key (Algorithm 2
			// needs an approximate key) without moving values across buckets.
			r.Append(relation.Tuple{relation.Cat(mk), relation.Cat(md), relation.Cat(cl), relation.Numv(p + float64(i))})
		}
	}
	add("Toyota", "Camry", "sedan", 10000, 10)
	add("Toyota", "Camry", "sedan", 12000, 5)
	add("Honda", "Accord", "sedan", 10500, 10)
	add("Honda", "Accord", "sedan", 12500, 5)
	add("Ford", "F150", "truck", 25000, 10)
	add("Dodge", "Ram", "truck", 26000, 10)
	return r
}

func buildEstimator(t testing.TB, rel *relation.Relation) *Estimator {
	t.Helper()
	res := tane.Miner{Terr: 0.4, MaxLHS: 2}.Mine(rel)
	ord, err := afd.Order(res)
	if err != nil {
		t.Fatalf("Order: %v", err)
	}
	idx := supertuple.Builder{Buckets: 8}.Build(rel)
	return New(idx, ord, Config{})
}

// sim scores t against q under q's importance weights.
func sim(e *Estimator, q *query.Query, t relation.Tuple) float64 {
	return e.Sim(q, t, e.Ordering.ImportanceWeights(q.BoundAttrs()))
}

func TestVSimStructure(t *testing.T) {
	e := buildEstimator(t, structuredRel())
	model := e.Schema.MustIndex("Model")
	sedans := e.VSim(model, "Camry", "Accord")
	cross := e.VSim(model, "Camry", "F150")
	if sedans <= cross {
		t.Errorf("VSim(Camry,Accord)=%v should exceed VSim(Camry,F150)=%v", sedans, cross)
	}
	if sedans <= 0 || sedans > 1 {
		t.Errorf("VSim out of range: %v", sedans)
	}
}

func TestVSimIdentityAndSymmetry(t *testing.T) {
	e := buildEstimator(t, structuredRel())
	model := e.Schema.MustIndex("Model")
	if e.VSim(model, "Camry", "Camry") != 1 {
		t.Errorf("self similarity != 1")
	}
	vals := e.Index.Values(model)
	for _, a := range vals {
		for _, b := range vals {
			if e.VSim(model, a, b) != e.VSim(model, b, a) {
				t.Errorf("VSim(%s,%s) asymmetric", a, b)
			}
		}
	}
	if e.VSim(model, "Camry", "UnseenValue") != 0 {
		t.Errorf("unseen value has nonzero similarity")
	}
	if e.VSim(model, "Unseen1", "Unseen2") != 0 {
		t.Errorf("two unseen values have nonzero similarity")
	}
}

func TestTopSimilar(t *testing.T) {
	e := buildEstimator(t, structuredRel())
	model := e.Schema.MustIndex("Model")
	top := e.TopSimilar(model, "Camry", 2)
	if len(top) == 0 || top[0].Value != "Accord" {
		t.Fatalf("TopSimilar(Camry) = %v, want Accord first", top)
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Sim < top[i].Sim {
			t.Errorf("TopSimilar not descending")
		}
	}
	if len(e.TopSimilar(model, "NoSuch", 5)) != 0 {
		t.Errorf("TopSimilar of unseen value returned entries")
	}
}

func TestGraph(t *testing.T) {
	e := buildEstimator(t, structuredRel())
	model := e.Schema.MustIndex("Model")
	edges := e.Graph(model, 0)
	if len(edges) == 0 {
		t.Fatalf("no edges in similarity graph")
	}
	seen := map[string]bool{}
	for _, ed := range edges {
		if ed.A >= ed.B {
			t.Errorf("edge %v not canonical", ed)
		}
		k := ed.A + "|" + ed.B
		if seen[k] {
			t.Errorf("duplicate edge %v", ed)
		}
		seen[k] = true
	}
	// High threshold prunes.
	pruned := e.Graph(model, 0.99)
	if len(pruned) >= len(edges) {
		t.Errorf("threshold did not prune: %d vs %d", len(pruned), len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if edges[i-1].Sim < edges[i].Sim {
			t.Errorf("edges not sorted by similarity")
		}
	}
}

func TestNumericSim(t *testing.T) {
	cases := []struct {
		q, t, want float64
	}{
		{10000, 10000, 1},
		{10000, 10500, 0.95},
		{10000, 5000, 0.5},
		{10000, 25000, 0}, // distance ratio 1.5 clamps to 1
		{10000, 0, 0},
		{0, 0, 1},
		{0, 5, 0},
		{-100, -110, 0.9},
	}
	for _, c := range cases {
		if got := NumericSim(c.q, c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NumericSim(%v,%v) = %v, want %v", c.q, c.t, got, c.want)
		}
	}
}

func TestNumericSimBounds(t *testing.T) {
	f := func(q, tv float64) bool {
		if math.IsNaN(q) || math.IsNaN(tv) || math.IsInf(q, 0) || math.IsInf(tv, 0) {
			return true
		}
		s := NumericSim(q, tv)
		return s >= 0 && s <= 1 && !math.IsNaN(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimQueryTuple(t *testing.T) {
	e := buildEstimator(t, structuredRel())
	s := e.Schema
	q := query.New(s).
		Where("Model", query.OpLike, relation.Cat("Camry")).
		Where("Price", query.OpLike, relation.Numv(10000))
	camry := relation.Tuple{relation.Cat("Toyota"), relation.Cat("Camry"), relation.Cat("sedan"), relation.Numv(10000)}
	accord := relation.Tuple{relation.Cat("Honda"), relation.Cat("Accord"), relation.Cat("sedan"), relation.Numv(10500)}
	truck := relation.Tuple{relation.Cat("Ford"), relation.Cat("F150"), relation.Cat("truck"), relation.Numv(25000)}

	sCamry, sAccord, sTruck := sim(e, q, camry), sim(e, q, accord), sim(e, q, truck)
	if !(sCamry > sAccord && sAccord > sTruck) {
		t.Errorf("Sim ordering wrong: camry=%v accord=%v truck=%v", sCamry, sAccord, sTruck)
	}
	if math.Abs(sCamry-1) > 1e-9 {
		t.Errorf("exact match Sim = %v, want 1", sCamry)
	}
	if sTruck < 0 || sTruck > 1 {
		t.Errorf("Sim out of bounds: %v", sTruck)
	}
	if got := sim(e, query.New(s), camry); got != 0 {
		t.Errorf("empty query Sim = %v", got)
	}
}

func TestSimRangePredicateUsesMidpoint(t *testing.T) {
	e := buildEstimator(t, structuredRel())
	s := e.Schema
	q := query.New(s).WhereRange("Price", 9000, 11000) // midpoint 10000
	tp := relation.Tuple{relation.Cat("Toyota"), relation.Cat("Camry"), relation.Cat("sedan"), relation.Numv(10000)}
	if got := sim(e, q, tp); math.Abs(got-1) > 1e-9 {
		t.Errorf("range midpoint Sim = %v, want 1", got)
	}
}

func TestSimNullTupleValue(t *testing.T) {
	e := buildEstimator(t, structuredRel())
	s := e.Schema
	q := query.New(s).
		Where("Model", query.OpLike, relation.Cat("Camry")).
		Where("Price", query.OpLike, relation.Numv(10000))
	tp := relation.Tuple{relation.Cat("Toyota"), relation.NullValue, relation.Cat("sedan"), relation.Numv(10000)}
	got := sim(e, q, tp)
	if got <= 0 || got >= 1 {
		t.Errorf("null-model Sim = %v, want strictly between 0 and 1", got)
	}
}

func TestSimTuples(t *testing.T) {
	e := buildEstimator(t, structuredRel())
	all := relation.NewAttrSet(0, 1, 2, 3)
	camry := relation.Tuple{relation.Cat("Toyota"), relation.Cat("Camry"), relation.Cat("sedan"), relation.Numv(10000)}
	accord := relation.Tuple{relation.Cat("Honda"), relation.Cat("Accord"), relation.Cat("sedan"), relation.Numv(10500)}
	w := e.Ordering.ImportanceWeights(all)
	if got := e.SimTuples(camry, camry, w); math.Abs(got-1) > 1e-9 {
		t.Errorf("self SimTuples = %v", got)
	}
	ab := e.SimTuples(camry, accord, w)
	ba := e.SimTuples(accord, camry, w)
	if ab <= 0 || ab > 1 {
		t.Errorf("SimTuples out of range: %v", ab)
	}
	// Not exactly symmetric in general (numeric denominator differs), but
	// close for nearby values.
	if math.Abs(ab-ba) > 0.05 {
		t.Errorf("SimTuples wildly asymmetric: %v vs %v", ab, ba)
	}
	if got := e.SimTuples(camry, accord, e.Ordering.ImportanceWeights(relation.AttrSet(0))); got != 0 {
		t.Errorf("empty attrs SimTuples = %v", got)
	}
}

// TestSimTuplesMatchesMemberLoop pins the weights-slice loop bit-for-bit to
// the member loop it replaced (kept here as the oracle), over every
// attribute subset and tuple pair of the fixture, nulls included.
func TestSimTuplesMatchesMemberLoop(t *testing.T) {
	e := buildEstimator(t, structuredRel())
	oracle := func(t1, t2 relation.Tuple, attrs relation.AttrSet) float64 {
		if attrs.Empty() {
			return 0
		}
		weights := e.Ordering.ImportanceWeights(attrs)
		total := 0.0
		for _, a := range attrs.Members() {
			v1, v2 := t1[a], t2[a]
			if v1.IsNull() || v2.IsNull() {
				continue
			}
			if e.Schema.Type(a) == relation.Categorical {
				total += weights[a] * e.VSim(a, v1.Str, v2.Str)
			} else {
				total += weights[a] * NumericSim(v1.Num, v2.Num)
			}
		}
		return total
	}
	tuples := []relation.Tuple{
		{relation.Cat("Toyota"), relation.Cat("Camry"), relation.Cat("sedan"), relation.Numv(10000)},
		{relation.Cat("Honda"), relation.Cat("Accord"), relation.Cat("sedan"), relation.Numv(9000)},
		{relation.Cat("Ford"), relation.NullValue, relation.Cat("truck"), relation.Numv(25000)},
		{relation.Cat("Dodge"), relation.Cat("Ram"), relation.Cat("truck"), relation.NullValue},
	}
	for set := relation.AttrSet(0); set < 16; set++ {
		w := e.Ordering.ImportanceWeights(set)
		for _, t1 := range tuples {
			for _, t2 := range tuples {
				got, want := e.SimTuples(t1, t2, w), oracle(t1, t2, set)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("attrs %v, %v vs %v: SimTuples %v, oracle %v", set.Members(), t1, t2, got, want)
				}
			}
		}
	}
}

func TestMinSimPrunesMatrix(t *testing.T) {
	rel := structuredRel()
	res := tane.Miner{Terr: 0.4, MaxLHS: 2}.Mine(rel)
	ord, err := afd.Order(res)
	if err != nil {
		t.Fatal(err)
	}
	idx := supertuple.Builder{Buckets: 8}.Build(rel)
	dense := New(idx, ord, Config{})
	sparse := New(idx, ord, Config{MinSim: 0.9})
	model := rel.Schema().MustIndex("Model")
	if len(sparse.Graph(model, 0)) >= len(dense.Graph(model, 0)) {
		t.Errorf("MinSim did not prune the matrix")
	}
}

func TestDescribeNeighborhood(t *testing.T) {
	e := buildEstimator(t, structuredRel())
	model := e.Schema.MustIndex("Model")
	out := e.DescribeNeighborhood(model, "Camry", 3)
	if !strings.Contains(out, "Model=Camry:") || !strings.Contains(out, "Accord") {
		t.Errorf("DescribeNeighborhood = %q", out)
	}
}

func TestSimInPredicate(t *testing.T) {
	e := buildEstimator(t, structuredRel())
	s := e.Schema
	q := query.New(s).WhereIn("Model", relation.Cat("Camry"), relation.Cat("F150"))
	camry := relation.Tuple{relation.Cat("Toyota"), relation.Cat("Camry"), relation.Cat("sedan"), relation.Numv(10000)}
	// Exact member: best alternative is itself → similarity 1.
	if got := sim(e, q, camry); math.Abs(got-1) > 1e-9 {
		t.Errorf("in-list member Sim = %v", got)
	}
	// Non-member scores its best alternative's VSim.
	accord := relation.Tuple{relation.Cat("Honda"), relation.Cat("Accord"), relation.Cat("sedan"), relation.Numv(10500)}
	model := s.MustIndex("Model")
	want := math.Max(e.VSim(model, "Camry", "Accord"), e.VSim(model, "F150", "Accord"))
	if got := sim(e, q, accord); math.Abs(got-want) > 1e-9 {
		t.Errorf("in-list Sim = %v, want %v", got, want)
	}
	// Numeric in-list takes the closest alternative.
	qn := query.New(s).WhereIn("Price", relation.Numv(10000), relation.Numv(20000))
	if got := sim(e, qn, camry); math.Abs(got-1) > 1e-9 {
		t.Errorf("numeric in Sim = %v", got)
	}
}

// wideRel plants ~30 distinct Model values so the chunked pair sweep
// actually splits across several workers (workers are capped at k/2).
func wideRel() *relation.Relation {
	r := relation.New(carSchema())
	makes := []string{"Toyota", "Honda", "Ford", "Dodge", "Nissan"}
	classes := []string{"sedan", "truck", "coupe"}
	for m := 0; m < 30; m++ {
		mk := makes[m%len(makes)]
		cl := classes[m%len(classes)]
		price := 9000 + 700*float64(m)
		for i := 0; i < 4; i++ {
			r.Append(relation.Tuple{
				relation.Cat(mk),
				relation.Cat(fmt.Sprintf("model-%02d", m)),
				relation.Cat(cl),
				relation.Numv(price + float64(i)),
			})
		}
	}
	return r
}

// TestSweepBitIdentity: the chunked pair sweep must produce a matrix
// bit-identical to the serial sweep at every worker count — float
// accumulation happens entirely inside vsim per pair, so partitioning can
// never change a single ulp.
func TestSweepBitIdentity(t *testing.T) {
	rel := wideRel()
	res := tane.Miner{Terr: 0.4, MaxLHS: 2}.Mine(rel)
	ord, err := afd.Order(res)
	if err != nil {
		t.Fatal(err)
	}
	idx := supertuple.Builder{Buckets: 8}.Build(rel)
	serial := New(idx, ord, Config{SweepWorkers: 1})
	for _, workers := range []int{0, 2, 3, 7, 64} {
		par := New(idx, ord, Config{SweepWorkers: workers})
		for _, attr := range rel.Schema().Categorical() {
			a, b := serial.Matrix(attr), par.Matrix(attr)
			if len(a) != len(b) {
				t.Fatalf("workers=%d attr %d: %d rows vs %d", workers, attr, len(b), len(a))
			}
			for v1, row := range a {
				prow := b[v1]
				if len(prow) != len(row) {
					t.Fatalf("workers=%d attr %d row %q: %d entries vs %d", workers, attr, v1, len(prow), len(row))
				}
				for v2, sim := range row {
					if psim, ok := prow[v2]; !ok || psim != sim {
						t.Fatalf("workers=%d attr %d: VSim(%q,%q) = %v, serial %v (must be bit-identical)",
							workers, attr, v1, v2, psim, sim)
					}
				}
			}
		}
	}
}
