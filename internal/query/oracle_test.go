package query

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"aimq/internal/datagen"
	"aimq/internal/relation"
)

// The renderers below are the fmt-based String, Text, Predicate.Render and
// Value.Render the appender replaced. They stay as the oracle: every byte
// the production renderers write must equal theirs.

func oracleValue(v relation.Value, t relation.AttrType) string {
	if v.Null {
		return "NULL"
	}
	if t == relation.Numeric {
		if v.Num == math.Trunc(v.Num) && math.Abs(v.Num) < 1e15 {
			return strconv.FormatInt(int64(v.Num), 10)
		}
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
	return v.Str
}

func oraclePred(p Predicate, s *relation.Schema, inSep string) string {
	name := s.Attr(p.Attr).Name
	typ := s.Type(p.Attr)
	if p.Op == OpRange {
		return fmt.Sprintf("%s between %s and %s", name, oracleValue(p.Value, typ), oracleValue(p.Hi, typ))
	}
	if p.Op == OpIn {
		alts := make([]string, len(p.Values))
		for i, v := range p.Values {
			alts[i] = oracleValue(v, typ)
		}
		return fmt.Sprintf("%s in (%s)", name, strings.Join(alts, inSep))
	}
	return fmt.Sprintf("%s %s %s", name, p.Op, oracleValue(p.Value, typ))
}

func oracleText(q *Query) string {
	parts := make([]string, len(q.Preds))
	for i, p := range q.Preds {
		parts[i] = oraclePred(p, q.Schema, " | ")
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

func oracleString(q *Query) string {
	preds := make([]Predicate, len(q.Preds))
	copy(preds, q.Preds)
	sort.SliceStable(preds, func(i, j int) bool { return preds[i].Attr < preds[j].Attr })
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = oraclePred(p, q.Schema, ", ")
	}
	return "Q(" + strings.Join(parts, " ∧ ") + ")"
}

// checkOracle fails t when any renderer of q differs from the oracle.
func checkOracle(t *testing.T, q *Query) {
	t.Helper()
	if got, want := q.String(), oracleString(q); got != want {
		t.Fatalf("String = %q, oracle %q (preds %+v)", got, want, q.Preds)
	}
	if got, want := q.Text(), oracleText(q); got != want {
		t.Fatalf("Text = %q, oracle %q (preds %+v)", got, want, q.Preds)
	}
	for _, p := range q.Preds {
		if got, want := p.Render(q.Schema), oraclePred(p, q.Schema, ", "); got != want {
			t.Fatalf("Render = %q, oracle %q (pred %+v)", got, want, p)
		}
	}
}

// oracleNums covers every numeric branch of the renderer: integral values
// on both sides of the 1e15 cut, signed zeros, NaN, infinities, fractions,
// and the int64 edges.
var oracleNums = []float64{
	0, math.Copysign(0, -1), 1, -1, 42, -7, 10000, 999999, 1e6, -1e6,
	1e15 - 1, -(1e15 - 1), 1e15, -1e15, 1e16, 1e21, -1e300, 1 << 53,
	math.NaN(), math.Inf(1), math.Inf(-1), 0.5, -0.5, 1.25, 3.14159, 1e-7,
	-2.5e-300, 999999.5, 1e15 + 0.5, math.MaxInt64, math.MinInt64,
	math.SmallestNonzeroFloat64, math.MaxFloat64,
}

// oracleStrs holds empty strings, each separator the renderers write and
// the parser reads, and non-ASCII text.
var oracleStrs = []string{
	"", "Camry", "New York", "a, b", "x | y", "p ∧ q", "(", ")", "Q(", "NULL",
	" lead", "trail ", "ü", "a,b|c", "\t", "in", "between",
}

func randValue(rng *rand.Rand, typ relation.AttrType) relation.Value {
	if rng.Intn(8) == 0 {
		return relation.NullValue
	}
	if typ == relation.Numeric {
		if rng.Intn(3) == 0 {
			return relation.Numv((rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-10)))
		}
		return relation.Numv(oracleNums[rng.Intn(len(oracleNums))])
	}
	return relation.Cat(oracleStrs[rng.Intn(len(oracleStrs))])
}

func randPred(rng *rand.Rand, s *relation.Schema) Predicate {
	attr := rng.Intn(s.Arity())
	typ := s.Type(attr)
	p := Predicate{Attr: attr, Op: Op(rng.Intn(7))} // Op(6) is unknown
	switch p.Op {
	case OpIn:
		p.Values = make([]relation.Value, rng.Intn(4)) // includes empty in-lists
		for i := range p.Values {
			p.Values[i] = randValue(rng, typ)
		}
	case OpRange:
		p.Value, p.Hi = randValue(rng, typ), randValue(rng, typ)
	default:
		p.Value = randValue(rng, typ)
	}
	return p
}

// TestRenderMatchesOracle compares every renderer with the oracle over
// random queries: all six operators and an unknown one, NULL, signed zeros,
// NaN, infinities, large and fractional numbers, empty and
// separator-bearing strings, empty in-lists, and predicates in random
// attribute order with repeats.
func TestRenderMatchesOracle(t *testing.T) {
	s := carSchema(t)
	rng := rand.New(rand.NewSource(21))
	sorted, unsorted := 0, 0
	for i := 0; i < 20000; i++ {
		q := New(s)
		for n := rng.Intn(8); n > 0; n-- {
			q.Preds = append(q.Preds, randPred(rng, s))
		}
		if i%2 == 0 {
			// Half the queries arrive in attribute order, the order String
			// renders without sorting; ties keep their query order.
			sort.SliceStable(q.Preds, func(a, b int) bool { return q.Preds[a].Attr < q.Preds[b].Attr })
		}
		if sort.SliceIsSorted(q.Preds, func(a, b int) bool { return q.Preds[a].Attr < q.Preds[b].Attr }) {
			sorted++
		} else {
			unsorted++
		}
		checkOracle(t, q)
	}
	if sorted == 0 || unsorted == 0 {
		t.Fatalf("coverage: %d sorted, %d unsorted queries", sorted, unsorted)
	}
}

// TestRenderOracleEdges pins the cases a random draw could miss: a
// descending pair, equal attributes out of value order, every numeric edge
// in each operator position, and the tuple-derived queries the relaxation
// loop renders.
func TestRenderOracleEdges(t *testing.T) {
	s := carSchema(t)
	year, price := 2, 3
	for _, q := range []*Query{
		{Schema: s},
		{Schema: s, Preds: []Predicate{{Attr: price, Op: OpEq, Value: relation.Numv(1)}, {Attr: year, Op: OpEq, Value: relation.Numv(2)}}},
		{Schema: s, Preds: []Predicate{{Attr: 0, Op: OpEq, Value: relation.Cat("b")}, {Attr: 0, Op: OpEq, Value: relation.Cat("a")}}},
		{Schema: s, Preds: []Predicate{{Attr: 1, Op: OpLike, Value: relation.Cat("x")}, {Attr: 0, Op: OpEq, Value: relation.Cat("y")}, {Attr: 1, Op: OpEq, Value: relation.Cat("w")}}},
		{Schema: s, Preds: []Predicate{{Attr: 0, Op: OpIn}, {Attr: 1, Op: OpIn, Values: []relation.Value{relation.Cat(""), relation.NullValue}}}},
	} {
		checkOracle(t, q)
	}
	for _, x := range oracleNums {
		v := relation.Numv(x)
		checkOracle(t, &Query{Schema: s, Preds: []Predicate{
			{Attr: price, Op: OpEq, Value: v},
			{Attr: price, Op: OpLess, Value: v},
			{Attr: price, Op: OpGreater, Value: v},
			{Attr: year, Op: OpRange, Value: v, Hi: v},
			{Attr: year, Op: OpIn, Values: []relation.Value{v, v}},
		}})
	}
	tup := relation.Tuple{relation.Cat("Toyota"), relation.NullValue, relation.Numv(math.Copysign(0, -1)), relation.Numv(1e15)}
	full := FromTuple(s, tup)
	for _, q := range []*Query{full, full.ToPrecise(), full.DropAttrs(relation.AttrSet(0).Add(2))} {
		checkOracle(t, q)
	}
}

// TestAppendRenderMatchesRender pins Value.AppendRender to Value.Render and
// both to the oracle, appending after existing bytes.
func TestAppendRenderMatchesRender(t *testing.T) {
	for _, typ := range []relation.AttrType{relation.Categorical, relation.Numeric} {
		vals := []relation.Value{relation.NullValue}
		for _, x := range oracleNums {
			vals = append(vals, relation.Numv(x))
		}
		for _, str := range oracleStrs {
			vals = append(vals, relation.Cat(str))
		}
		for _, v := range vals {
			want := oracleValue(v, typ)
			if got := v.Render(typ); got != want {
				t.Errorf("Render(%+v, %v) = %q, oracle %q", v, typ, got, want)
			}
			if got := string(v.AppendRender([]byte("x="), typ)); got != "x="+want {
				t.Errorf("AppendRender(%+v, %v) = %q, want %q", v, typ, got, "x="+want)
			}
		}
	}
}

// BenchmarkString renders a CarDB relaxation step's query (a tuple's fully
// bound query less one attribute: 6 predicates) and a fully bound CensusDB
// tuple (13 predicates), with String and with the oracle. Every traced
// relaxation step renders its query once.
func BenchmarkString(b *testing.B) {
	car := datagen.GenerateCarDB(100, 1).Rel
	census := datagen.GenerateCensusDB(100, 1).Rel
	for _, c := range []struct {
		name string
		q    *Query
	}{
		{"cardb-step", FromTuple(car.Schema(), car.Tuple(3)).DropAttrs(relation.AttrSet(0).Add(5))},
		{"censusdb", FromTuple(census.Schema(), census.Tuple(3))},
	} {
		for _, r := range []struct {
			name   string
			render func(*Query) string
		}{{"appender", (*Query).String}, {"oracle", oracleString}} {
			b.Run(c.name+"/"+r.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink = r.render(c.q)
				}
			})
		}
	}
}

var benchSink string
