package engine

import (
	"math"
	"math/rand"
	"testing"

	"aimq/internal/query"
	"aimq/internal/relation"
)

// Small value domains for FuzzColumnarVsLegacy. Each relation draws its
// common values from a prefix of each domain and the rest rarely, so one
// relation holds runs long enough for the chunk path and short enough for
// the exact-value walk.
var (
	fuzzMakes  = []relation.Value{relation.Cat("Toyota"), relation.Cat("Honda"), relation.Cat("Ford"), relation.NullValue}
	fuzzYears  = []relation.Value{relation.Numv(2000), relation.Numv(2001), relation.NullValue, relation.Numv(2002), relation.Numv(math.NaN())}
	fuzzPrices = []relation.Value{
		relation.Numv(1), relation.Numv(0), relation.Numv(2), relation.NullValue, relation.Numv(math.Copysign(0, -1)),
		relation.Numv(math.NaN()), relation.Numv(3), relation.Numv(4), relation.Numv(5),
	}
)

// fuzzSchema is diffSchema without its high-cardinality column, which a
// relation this small cannot fill past column.MaxPostingValues.
func fuzzSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "Make", Type: relation.Categorical},
		relation.Attribute{Name: "Year", Type: relation.Numeric},
		relation.Attribute{Name: "Price", Type: relation.Numeric},
	)
}

// fuzzBytes hands out the fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// skewed draws from dom: one time in a hundred any value, otherwise one of
// its first common values.
func skewed(rng *rand.Rand, dom []relation.Value, common int) relation.Value {
	if rng.Intn(100) == 0 {
		return dom[rng.Intn(len(dom))]
	}
	return dom[rng.Intn(min(common, len(dom)))]
}

// fuzzRelation builds n tuples whose values the seed picks, each domain's
// first common values drawn often and the rest rarely.
func fuzzRelation(n int, seed int64, common int) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(fuzzSchema())
	for i := 0; i < n; i++ {
		r.Append(relation.Tuple{skewed(rng, fuzzMakes, common), skewed(rng, fuzzYears, common), skewed(rng, fuzzPrices, common)})
	}
	return r
}

// fuzzPredicate decodes one predicate from two bytes: the first picks the
// attribute and operator, the second the value.
func fuzzPredicate(q *query.Query, op, v int) {
	num := func(i int) relation.Value { return fuzzPrices[i%len(fuzzPrices)] }
	switch op % 9 {
	case 0:
		q.Where("Make", query.OpEq, fuzzMakes[v%len(fuzzMakes)])
	case 1:
		q.WhereIn("Make", fuzzMakes[v%len(fuzzMakes)], fuzzMakes[v/len(fuzzMakes)%len(fuzzMakes)])
	case 2:
		q.Where("Price", query.OpEq, num(v))
	case 3:
		q.Where("Price", query.OpLike, num(v))
	case 4:
		q.Where("Year", query.OpEq, fuzzYears[v%len(fuzzYears)])
	case 5:
		q.WhereIn("Price", num(v), num(v/len(fuzzPrices)))
	case 6:
		q.WhereRange("Price", num(v).Num, num(v/len(fuzzPrices)).Num)
	case 7:
		q.Where("Year", query.OpLess, fuzzYears[v%len(fuzzYears)])
	default:
		q.Where("Price", query.OpGreater, num(v))
	}
}

// FuzzColumnarVsLegacy lets the fuzzer pick a small relation (its size,
// chunk size, worker count and value seed), a conjunction of up to four
// predicates and a limit. The columnar engine must return the positions
// the legacy oracle and the naive scan return, in ascending order; a
// limited run must be the prefix of the full one, and Count its length.
func FuzzColumnarVsLegacy(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 1, 2, 1},
		{200, 1, 7, 2, 0, 0, 0, 4, 3},
		{255, 6, 3, 2, 4, 2, 1, 0, 2, 6, 11},
		{90, 2, 9, 3, 5, 2, 8, 4, 1, 1, 3, 5},
		{17, 5, 42, 0, 2, 3, 4, 6, 40, 8, 2},
		// Rare values over 368 tuples: these walk the exact-value index.
		[]byte("01\a0001"),                     // Price like -0, limit 8
		{48, 49, 7, 48, 48, 2, 1, 0, 0, 6, 10}, // Price = 0, Make = Toyota, Price in [0, 0]
		{48, 49, 7, 48, 0, 2, 6, 4, 0, 1, 5},   // Price = 3, Year = 2000, Make in (Honda, Honda)
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		n := 64 + b.next() + 256*(b.next()%2)
		shape := b.next()
		rel := fuzzRelation(n, int64(b.next()), 1+shape/12%len(fuzzPrices))
		e := newChunkedEngine(rel, 64*(1+shape%4), 1+shape/4%3)
		limit := b.next() % 40
		q := query.New(rel.Schema())
		for i := 0; i < 4 && len(b) > 0; i++ {
			op := b.next()
			fuzzPredicate(q, op, b.next())
		}

		want := naiveExecute(rel, q)
		if legacy := newLegacy(rel).Execute(q, 0); !equalIntSets(legacy, want) {
			t.Fatalf("legacy oracle: %d positions, naive scan %d, for %s", len(legacy), len(want), q)
		}
		got := e.Execute(q, 0)
		if !ascending(got) || !equalIntSets(got, want) {
			t.Fatalf("columnar: %v, oracle %v, for %s", got, want, q)
		}
		if c := e.Count(q); c != len(want) {
			t.Fatalf("Count %d, oracle %d, for %s", c, len(want), q)
		}
		if limit > 0 {
			l := e.Execute(q, limit)
			if len(l) != min(limit, len(got)) {
				t.Fatalf("limit %d returned %d of %d for %s", limit, len(l), len(got), q)
			}
			for i := range l {
				if l[i] != got[i] {
					t.Fatalf("limit %d: %v is not a prefix of %v for %s", limit, l, got, q)
				}
			}
		}
	})
}
