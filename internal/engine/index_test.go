package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"aimq/internal/column"
	"aimq/internal/obs"
	"aimq/internal/query"
	"aimq/internal/relation"
)

// Exact-value index suite. A numeric equality resolves to its run of the
// column's exact-value index; when the shortest such run is short enough,
// the engine walks it (EXPLAIN access "index") instead of visiting chunks.
// These tests hold both paths to the legacy and naive oracles, on data with
// signed zeros, NaN and NULL numerics, and check that both paths ran.

var negZero = math.Copysign(0, -1)

// indexSpecials are the numeric values the suite plants on purpose: both
// zeros, two repeated prices, and NaN, which no predicate matches.
var indexSpecials = []float64{negZero, 0, 1500, 2500, math.NaN()}

// indexRel builds n tuples over diffSchema. Price is one of indexSpecials
// with probability specialPct/100, the common price 5000 with probability
// 1/10, and otherwise drawn from 1000..30999. So most prices are rare
// enough for the walk, 5000 is too common for it, and the planted ones
// depend on specialPct. Each attribute is NULL with probability 1/20.
func indexRel(n int, seed int64, specialPct int) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	vins := column.MaxPostingValues + 200
	r := relation.New(diffSchema())
	for i := 0; i < n; i++ {
		price := float64(1000 + rng.Intn(30000))
		switch {
		case rng.Intn(100) < specialPct:
			price = indexSpecials[rng.Intn(len(indexSpecials))]
		case rng.Intn(10) == 0:
			price = 5000
		}
		t := relation.Tuple{
			relation.Cat(diffMakes[rng.Intn(len(diffMakes))]),
			relation.Cat(fmt.Sprintf("vin-%04d", rng.Intn(vins))),
			relation.Numv(float64(1990 + rng.Intn(17))),
			relation.Numv(price),
		}
		for a := range t {
			if rng.Intn(20) == 0 {
				t[a] = relation.NullValue
			}
		}
		r.Append(t)
	}
	return r
}

// randomIndexQuery binds Price by equality (a present value, an absent one,
// a signed zero or NaN) and adds up to three more predicates: postings,
// in-lists, code scans, ranges, and a second numeric equality.
func randomIndexQuery(rng *rand.Rand, rel *relation.Relation) *query.Query {
	q := query.New(rel.Schema())
	price := func() relation.Value {
		switch rng.Intn(6) {
		case 0:
			return relation.Numv(indexSpecials[rng.Intn(len(indexSpecials))])
		case 1:
			return relation.Numv(-1) // absent
		default:
			return rel.Tuple(rng.Intn(rel.Size()))[3] // present, or NULL
		}
	}
	op := query.OpEq
	if rng.Intn(3) == 0 {
		op = query.OpLike
	}
	q.Where("Price", op, price())
	for i, n := 0, rng.Intn(4); i < n; i++ {
		switch rng.Intn(9) {
		case 0:
			q.Where("Make", query.OpEq, relation.Cat(diffMakes[rng.Intn(len(diffMakes))]))
		case 1:
			q.WhereIn("Make",
				relation.Cat(diffMakes[rng.Intn(len(diffMakes))]),
				relation.Cat(diffMakes[rng.Intn(len(diffMakes))]))
		case 2:
			q.Where("VIN", query.OpEq, rel.Tuple(rng.Intn(rel.Size()))[1])
		case 3:
			q.WhereIn("VIN", rel.Tuple(rng.Intn(rel.Size()))[1], rel.Tuple(rng.Intn(rel.Size()))[1])
		case 4: // second numeric equality, usually too common to drive
			q.Where("Year", query.OpEq, relation.Numv(float64(1990+rng.Intn(17))))
		case 5:
			q.WhereIn("Year", relation.Numv(float64(1990+rng.Intn(17))), relation.Numv(float64(1990+rng.Intn(17))))
		case 6:
			lo := float64(1990 + rng.Intn(17))
			q.WhereRange("Year", lo, lo+float64(rng.Intn(6)))
		case 7:
			q.Where("Price", query.OpLess, relation.Numv(float64(rng.Intn(32000))))
		default: // a second Price equality: agrees or contradicts
			q.Where("Price", query.OpEq, price())
		}
	}
	return q
}

// walkedIndex reports whether an EXPLAIN record shows the exact-value walk.
func walkedIndex(ex *obs.EngineExec) bool {
	for _, term := range ex.Plan {
		if term.Access == AccessIndex {
			return true
		}
	}
	return false
}

func TestDifferentialExactValueIndex(t *testing.T) {
	cases := []struct {
		name string
		rel  *relation.Relation
	}{
		{"rare-specials", indexRel(3000, 121, 1)},
		{"common-specials", indexRel(3000, 123, 30)},
		{"small", indexRel(640, 125, 5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rel := tc.rel
			legacy := newLegacy(rel)
			engines := []*Engine{
				New(rel),
				newChunkedEngine(rel, 64, 1),
				newChunkedEngine(rel, 128, 3),
				newChunkedEngine(rel, 1024, 2),
			}
			rng := rand.New(rand.NewSource(777))
			walked, chunked, limits := 0, 0, 0
			for trial := 0; trial < 600; trial++ {
				q := randomIndexQuery(rng, rel)
				want := naiveExecute(rel, q)
				if got := legacy.Execute(q, 0); !equalIntSets(got, want) {
					t.Fatalf("trial %d: legacy returned %d positions, naive %d for %s", trial, len(got), len(want), q)
				}
				for ei, e := range engines {
					var ex obs.EngineExec
					got := e.ExecuteExplained(q, 0, &ex)
					if !ascending(got) || !equalIntSets(got, want) {
						t.Fatalf("trial %d engine %d: %d positions (ascending %v), oracle %d for %s",
							trial, ei, len(got), ascending(got), len(want), q)
					}
					if n := e.Count(q); n != len(want) {
						t.Fatalf("trial %d engine %d: Count %d, oracle %d for %s", trial, ei, n, len(want), q)
					}
					cands := 0
					switch {
					case walkedIndex(&ex):
						walked++
						cands = int(ex.SparseChecks)
						if ex.ChunksVisited != 0 || ex.Scanned != ex.SparseChecks {
							t.Fatalf("trial %d engine %d: walk visited %d chunks, scanned %d, checked %d",
								trial, ei, ex.ChunksVisited, ex.Scanned, ex.SparseChecks)
						}
					case !ex.Empty:
						chunked++
					}
					// Limits below, at and above the match and candidate
					// counts give an ascending prefix of the full result.
					for _, lim := range []int{1, len(want) - 1, len(want), len(want) + 1, cands - 1, cands, cands + 1} {
						if lim <= 0 {
							continue
						}
						limits++
						l := e.Execute(q, lim)
						if len(l) != min(lim, len(got)) {
							t.Fatalf("trial %d engine %d: limit %d returned %d of %d", trial, ei, lim, len(l), len(got))
						}
						for i := range l {
							if l[i] != got[i] {
								t.Fatalf("trial %d engine %d: limit %d is not a prefix of the full result for %s", trial, ei, lim, q)
							}
						}
					}
				}
			}
			t.Logf("%d index walks, %d chunk evaluations, %d limited runs", walked, chunked, limits)
			if walked == 0 || chunked == 0 {
				t.Fatalf("both paths must run: %d index walks, %d chunk evaluations", walked, chunked)
			}
		})
	}
}

// TestExactValueIndexEdges pins the planted values on both paths: -0 and
// +0 are one value, NaN and NULL match nothing, and an absent value
// empties the plan before any chunk is visited.
func TestExactValueIndexEdges(t *testing.T) {
	s := diffSchema()
	prices := []relation.Value{
		relation.Numv(negZero), relation.Numv(0), relation.Numv(math.NaN()), relation.NullValue,
		relation.Numv(7), relation.Numv(7), relation.Numv(0),
	}
	build := func(pad int) *relation.Relation {
		r := relation.New(s)
		for i := 0; i < pad; i++ {
			p := relation.Numv(float64(1000 + i)) // unique padding
			if i < len(prices) {
				p = prices[i]
			}
			r.Append(relation.Tuple{relation.Cat("Toyota"), relation.Cat("v"), relation.Numv(2000), p})
		}
		return r
	}
	for _, tc := range []struct {
		pad  int
		walk bool // whether a run of three zeros is short enough to walk
	}{{640, true}, {150, false}} {
		rel := build(tc.pad)
		for _, e := range []*Engine{New(rel), newChunkedEngine(rel, 64, 2)} {
			for _, c := range []struct {
				v    relation.Value
				want []int
				walk bool
			}{
				{relation.Numv(0), []int{0, 1, 6}, tc.walk},
				{relation.Numv(negZero), []int{0, 1, 6}, tc.walk},
				{relation.Numv(7), []int{4, 5}, tc.walk || tc.pad/64 >= 2},
				{relation.Numv(math.NaN()), nil, false},
				{relation.NullValue, nil, false},
				{relation.Numv(8), nil, false},
			} {
				for _, op := range []query.Op{query.OpEq, query.OpLike} {
					q := query.New(s).Where("Make", query.OpEq, relation.Cat("Toyota")).Where("Price", op, c.v)
					var ex obs.EngineExec
					got := e.ExecuteExplained(q, 0, &ex)
					if fmt.Sprint(got) != fmt.Sprint(c.want) {
						t.Errorf("pad %d: Price %s %v = %v, want %v", tc.pad, op, c.v, got, c.want)
					}
					if walkedIndex(&ex) != c.walk {
						t.Errorf("pad %d: Price %s %v walked = %v, want %v", tc.pad, op, c.v, walkedIndex(&ex), c.walk)
					}
					if len(c.want) == 0 && (!ex.Empty || ex.ChunksVisited != 0) {
						t.Errorf("pad %d: Price %s %v: empty %v, %d chunks visited; want an empty plan",
							tc.pad, op, c.v, ex.Empty, ex.ChunksVisited)
					}
				}
			}
		}
	}
}

// TestNaNValuesMatchNothing pins NaN data values against the zone maps: a
// chunk that opens with NaN must not lose its other rows, and a chunk
// holding NaN but no NULL must not blanket-accept a range.
func TestNaNValuesMatchNothing(t *testing.T) {
	s := diffSchema()
	rel := relation.New(s)
	for i := 0; i < 256; i++ {
		p := relation.Numv(float64(i))
		if i == 0 || i == 65 {
			p = relation.Numv(math.NaN())
		}
		rel.Append(relation.Tuple{relation.Cat("Toyota"), relation.Cat("v"), relation.Numv(2000), p})
	}
	queries := []*query.Query{
		query.New(s).WhereIn("Price", relation.Numv(5), relation.Numv(6)),
		query.New(s).Where("Price", query.OpLess, relation.Numv(1000)),
		query.New(s).Where("Price", query.OpGreater, relation.Numv(-1)),
		query.New(s).WhereRange("Price", -1, 1000),
		query.New(s).Where("Price", query.OpEq, relation.Numv(math.NaN())),
	}
	for _, e := range []*Engine{New(rel), newChunkedEngine(rel, 64, 1), newChunkedEngine(rel, 64, 3)} {
		for _, q := range queries {
			if got, want := e.Execute(q, 0), naiveExecute(rel, q); !equalIntSets(got, want) {
				t.Errorf("%s: %d positions, oracle %d", q, len(got), len(want))
			}
		}
	}
}
