package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"aimq/internal/column"
	"aimq/internal/query"
	"aimq/internal/relation"
)

// Differential suite: the columnar engine, the legacy row engine (the
// test-only oracle in legacy_test.go), and the naive full-scan oracle must
// return identical position sets for every query the model can express —
// including null-heavy data, absent values, inverted ranges, and
// degenerate predicates. Run under -race via the
// Makefile race target; the forced-parallel engine exercises the chunk
// worker pool.

// diffSchema mixes a low-cardinality categorical (posting-bitmap path), a
// high-cardinality categorical (dictionary code-scan path) and two
// numerics (zone-map paths).
func diffSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "Make", Type: relation.Categorical},
		relation.Attribute{Name: "VIN", Type: relation.Categorical},
		relation.Attribute{Name: "Year", Type: relation.Numeric},
		relation.Attribute{Name: "Price", Type: relation.Numeric},
	)
}

var diffMakes = []string{"Toyota", "Honda", "Ford", "BMW", "Nissan"}

// diffRel builds n tuples; each attribute is NULL with probability
// nullPct/100. VIN cardinality exceeds column.MaxPostingValues so its
// equality predicates take the code-scan path, not posting bitmaps.
func diffRel(n int, seed int64, nullPct int) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	vins := column.MaxPostingValues + 200
	r := relation.New(diffSchema())
	for i := 0; i < n; i++ {
		t := relation.Tuple{
			relation.Cat(diffMakes[rng.Intn(len(diffMakes))]),
			relation.Cat(fmt.Sprintf("vin-%04d", rng.Intn(vins))),
			relation.Numv(float64(1990 + rng.Intn(17))),
			relation.Numv(float64(1000 + rng.Intn(30000))),
		}
		for a := range t {
			if rng.Intn(100) < nullPct {
				t[a] = relation.NullValue
			}
		}
		r.Append(t)
	}
	return r
}

// newChunkedEngine builds a columnar engine with an explicit chunk size
// (so small test relations still span many chunks) and worker count.
func newChunkedEngine(rel *relation.Relation, chunkSize, workers int) *Engine {
	e := &Engine{rel: rel, workers: workers}
	e.buildOnce.Do(func() { e.store = column.MustBuild(rel, chunkSize) })
	return e
}

// randomDiffQuery draws 0–3 predicates across every operator and both
// attribute kinds, with absent values and null bindings mixed in.
func randomDiffQuery(rng *rand.Rand, s *relation.Schema) *query.Query {
	q := query.New(s)
	for i, n := 0, rng.Intn(4); i < n; i++ {
		switch rng.Intn(12) {
		case 0:
			q.Where("Make", query.OpEq, relation.Cat(diffMakes[rng.Intn(len(diffMakes))]))
		case 1: // absent value: dictionary-miss short-circuit
			q.Where("Make", query.OpEq, relation.Cat("DeLorean"))
		case 2: // high-cardinality eq: code-scan path (often empty)
			q.Where("VIN", query.OpEq, relation.Cat(fmt.Sprintf("vin-%04d", rng.Intn(900))))
		case 3: // like behaves as eq everywhere
			q.Where("Make", query.OpLike, relation.Cat(diffMakes[rng.Intn(len(diffMakes))]))
		case 4: // in-list mixing present, absent and null alternatives
			q.WhereIn("Make",
				relation.Cat(diffMakes[rng.Intn(len(diffMakes))]),
				relation.Cat("DeLorean"),
				relation.NullValue)
		case 5: // numeric in-list
			q.WhereIn("Year",
				relation.Numv(float64(1990+rng.Intn(17))),
				relation.Numv(float64(1990+rng.Intn(17))))
		case 6: // numeric equality
			q.Where("Year", query.OpEq, relation.Numv(float64(1990+rng.Intn(17))))
		case 7:
			q.Where("Price", query.OpLess, relation.Numv(float64(rng.Intn(32000))))
		case 8:
			q.Where("Price", query.OpGreater, relation.Numv(float64(rng.Intn(32000))))
		case 9: // range, sometimes inverted or fully out of domain
			lo := float64(rng.Intn(36000)) - 2000
			q.WhereRange("Price", lo, lo+float64(rng.Intn(12000))-4000)
		case 10: // null binding matches nothing
			q.Where("Make", query.OpEq, relation.NullValue)
		default: // comparison on a categorical attribute matches nothing
			q.Where("Make", query.OpLess, relation.Cat("Toyota"))
		}
	}
	return q
}

func ascending(pos []int) bool {
	for i := 1; i < len(pos); i++ {
		if pos[i] <= pos[i-1] {
			return false
		}
	}
	return true
}

func TestDifferentialColumnarVsLegacy(t *testing.T) {
	cases := []struct {
		name string
		rel  *relation.Relation
	}{
		{"base", diffRel(2500, 101, 4)},
		{"null-heavy", diffRel(1800, 103, 40)},
		{"tiny-ragged", diffRel(63, 105, 10)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.rel.Schema()
			engines := []struct {
				name string
				e    executor
			}{
				{"columnar", New(tc.rel)},
				{"columnar-chunked", newChunkedEngine(tc.rel, 128, 1)},
				{"columnar-parallel", newChunkedEngine(tc.rel, 128, 4)},
				{"legacy", newLegacy(tc.rel)},
			}
			rng := rand.New(rand.NewSource(777))
			empties, nonEmpties := 0, 0
			for trial := 0; trial < 1200; trial++ {
				q := randomDiffQuery(rng, s)
				want := naiveExecute(tc.rel, q)
				if len(want) == 0 {
					empties++
				} else {
					nonEmpties++
				}
				var colFull []int
				for _, eng := range engines {
					got := eng.e.Execute(q, 0)
					if eng.name != "legacy" && !ascending(got) {
						t.Fatalf("trial %d: %s result not ascending for %s", trial, eng.name, q)
					}
					if !equalIntSets(got, want) {
						t.Fatalf("trial %d: %s returned %d positions, oracle %d for %s",
							trial, eng.name, len(got), len(want), q)
					}
					if eng.name == "columnar" {
						colFull = got
					}
					if trial%7 == 0 {
						if n := eng.e.Count(q); n != len(want) {
							t.Fatalf("trial %d: %s Count = %d, want %d for %s",
								trial, eng.name, n, len(want), q)
						}
					}
				}
				// Columnar limited results are an ascending prefix of the
				// full (sorted) result.
				if len(colFull) > 1 {
					k := 1 + rng.Intn(len(colFull)-1)
					lim := engines[0].e.Execute(q, k)
					if len(lim) != k {
						t.Fatalf("trial %d: limit %d returned %d", trial, k, len(lim))
					}
					for i := range lim {
						if lim[i] != colFull[i] {
							t.Fatalf("trial %d: limited result not a prefix of full", trial)
						}
					}
				}
			}
			// Guard against a degenerate query generator: both outcomes
			// must actually occur.
			if empties == 0 || nonEmpties == 0 {
				t.Fatalf("query generator degenerate: %d empty, %d non-empty", empties, nonEmpties)
			}
		})
	}
}

// TestDifferentialEdgeQueries pins the nasty constructions that random
// drawing may under-sample.
func TestDifferentialEdgeQueries(t *testing.T) {
	rel := diffRel(1500, 107, 25)
	s := rel.Schema()
	queries := []*query.Query{
		query.New(s), // empty conjunction: every tuple
		query.New(s).Where("Make", query.OpEq, relation.NullValue),
		query.New(s).Where("Year", query.OpEq, relation.NullValue), // Num=0 comparison semantics
		query.New(s).Where("Year", query.OpLess, relation.NullValue),
		query.New(s).Where("Make", query.OpGreater, relation.Cat("Toyota")),
		query.New(s).WhereRange("Price", 20000, 5000), // inverted
		query.New(s).WhereRange("Price", -500, -1),    // below domain
		query.New(s).WhereIn("Make", relation.Cat("DeLorean"), relation.Cat("Tucker")),
		query.New(s).WhereIn("Make", relation.NullValue),
		query.New(s).WhereIn("VIN", relation.Cat("vin-0001"), relation.Cat("no-such-vin")),
		query.New(s).Where("VIN", query.OpEq, relation.Cat("no-such-vin")),
		query.New(s).Where("Year", query.OpLike, relation.Numv(2000)),
		{Schema: s, Preds: []query.Predicate{{Attr: 0, Op: query.Op(99)}}}, // unknown operator
		query.New(s).
			Where("Make", query.OpEq, relation.Cat("Toyota")).
			Where("Make", query.OpEq, relation.Cat("Honda")), // contradictory postings
		query.New(s).
			WhereRange("Year", 1995, 2001).
			WhereRange("Year", 1999, 2005), // overlapping ranges on one attr
	}
	engines := []executor{New(rel), newChunkedEngine(rel, 64, 3), newLegacy(rel)}
	for qi, q := range queries {
		want := naiveExecute(rel, q)
		for ei, e := range engines {
			if got := e.Execute(q, 0); !equalIntSets(got, want) {
				t.Errorf("query %d engine %d: %d positions, oracle %d", qi, ei, len(got), len(want))
			}
			if n := e.Count(q); n != len(want) {
				t.Errorf("query %d engine %d: Count %d, oracle %d", qi, ei, n, len(want))
			}
		}
	}
}

// TestDifferentialEmptyRelation: both engines over zero tuples.
func TestDifferentialEmptyRelation(t *testing.T) {
	rel := relation.New(diffSchema())
	for _, e := range []executor{New(rel), newLegacy(rel)} {
		q := query.New(rel.Schema()).Where("Make", query.OpEq, relation.Cat("Toyota"))
		if got := e.Execute(q, 0); len(got) != 0 {
			t.Errorf("empty relation returned %v", got)
		}
		if got := e.Execute(query.New(rel.Schema()), 0); len(got) != 0 {
			t.Errorf("empty relation full scan returned %v", got)
		}
		if n := e.Count(q); n != 0 {
			t.Errorf("empty relation Count = %d", n)
		}
	}
}

// TestCountDoesNotInflateReturned pins the satellite contract: columnar
// Count popcounts without materializing, tallying into TuplesCounted and
// leaving TuplesReturned untouched.
func TestCountDoesNotInflateReturned(t *testing.T) {
	rel := diffRel(2000, 109, 5)
	e := New(rel)
	q := query.New(rel.Schema()).Where("Make", query.OpEq, relation.Cat("Toyota"))
	n := e.Count(q)
	if n == 0 {
		t.Fatal("no Toyotas")
	}
	snap := e.Stats().Snapshot()
	if snap.TuplesReturned != 0 {
		t.Errorf("Count inflated TuplesReturned to %d", snap.TuplesReturned)
	}
	if snap.TuplesCounted != int64(n) {
		t.Errorf("TuplesCounted = %d, want %d", snap.TuplesCounted, n)
	}
	if snap.Queries != 1 {
		t.Errorf("Queries = %d, want 1", snap.Queries)
	}
	// A pure posting-bitmap count touches no individual tuples.
	if snap.TuplesScanned != 0 {
		t.Errorf("posting-only Count scanned %d tuples, want 0", snap.TuplesScanned)
	}
	// Execute afterwards still returns the same cardinality.
	if got := e.Execute(q, 0); len(got) != n {
		t.Errorf("Execute after Count: %d vs %d", len(got), n)
	}
}

// TestParallelDeterminism: the worker pool must not perturb result order.
func TestParallelDeterminism(t *testing.T) {
	rel := diffRel(3000, 111, 8)
	serial := newChunkedEngine(rel, 64, 1)
	parallel := newChunkedEngine(rel, 64, 6)
	rng := rand.New(rand.NewSource(112))
	for trial := 0; trial < 150; trial++ {
		q := randomDiffQuery(rng, rel.Schema())
		a, b := serial.Execute(q, 0), parallel.Execute(q, 0)
		if len(a) != len(b) {
			t.Fatalf("trial %d: serial %d vs parallel %d results", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: order diverged at %d", trial, i)
			}
		}
	}
}
