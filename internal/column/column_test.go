package column

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"aimq/internal/bitmap"
	"aimq/internal/relation"
)

func testSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "Make", Type: relation.Categorical},
		relation.Attribute{Name: "Price", Type: relation.Numeric},
	)
}

func testRel(n int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(testSchema())
	makes := []string{"Toyota", "Honda", "Ford"}
	for i := 0; i < n; i++ {
		t := relation.Tuple{
			relation.Cat(makes[rng.Intn(len(makes))]),
			relation.Numv(float64(1000 + rng.Intn(9000))),
		}
		if rng.Intn(10) == 0 {
			t[0] = relation.NullValue
		}
		if rng.Intn(10) == 0 {
			t[1] = relation.NullValue
		}
		r.Append(t)
	}
	return r
}

func TestBuildRejectsUnalignedChunkSize(t *testing.T) {
	if _, err := Build(testRel(10, 1), 100); err == nil {
		t.Fatal("chunk size 100 accepted")
	}
	if _, err := Build(testRel(10, 1), 128); err != nil {
		t.Fatalf("chunk size 128 rejected: %v", err)
	}
}

func TestDictionaryAndPostings(t *testing.T) {
	rel := testRel(5000, 7)
	s := MustBuild(rel, 256)
	if !s.HasPostings(0) {
		t.Fatal("low-cardinality categorical has no postings")
	}
	// Every posting bitmap holds exactly the positions with that value, and
	// the codes column round-trips through the dictionary.
	for _, mk := range []string{"Toyota", "Honda", "Ford"} {
		code, ok := s.Code(0, mk)
		if !ok {
			t.Fatalf("dictionary miss for %q", mk)
		}
		p := s.Posting(0, code)
		want := 0
		for i, tp := range rel.Tuples() {
			has := !tp[0].IsNull() && tp[0].Str == mk
			if has {
				want++
			}
			if p.Get(i) != has {
				t.Fatalf("posting bit %d for %s = %v, want %v", i, mk, p.Get(i), has)
			}
			if has && s.Codes(0)[i] != code {
				t.Fatalf("code column mismatch at %d", i)
			}
		}
		if got := bitmap.CountWords(p.WordRange(0, s.Len())); got != want {
			t.Fatalf("posting count for %s = %d, want %d", mk, got, want)
		}
	}
	if _, ok := s.Code(0, "DeLorean"); ok {
		t.Fatal("absent value resolved to a code")
	}
}

func TestNullBitmapsAndNaN(t *testing.T) {
	rel := testRel(3000, 11)
	s := MustBuild(rel, 0)
	for attr := 0; attr < 2; attr++ {
		nulls := s.Nulls(attr)
		nullCount := 0
		for i, tp := range rel.Tuples() {
			isNull := tp[attr].IsNull()
			if isNull {
				nullCount++
			}
			if nulls.Get(i) != isNull {
				t.Fatalf("attr %d null bit %d = %v, want %v", attr, i, nulls.Get(i), isNull)
			}
		}
		if got := s.Len() - s.NonNullCount(attr); got != nullCount {
			t.Fatalf("attr %d NonNullCount implies %d nulls, want %d", attr, got, nullCount)
		}
	}
	// Numeric NULLs are NaN in the float column.
	for i, tp := range rel.Tuples() {
		if tp[1].IsNull() != math.IsNaN(s.Floats(1)[i]) {
			t.Fatalf("float NULL encoding mismatch at %d", i)
		}
	}
	// All-non-null column reports a nil null bitmap.
	r2 := relation.New(testSchema())
	r2.Append(relation.Tuple{relation.Cat("Toyota"), relation.Numv(5)})
	if s2 := MustBuild(r2, 0); s2.Nulls(0) != nil || s2.Nulls(1) != nil {
		t.Fatal("null bitmap allocated for null-free columns")
	}
}

func TestZoneMaps(t *testing.T) {
	rel := testRel(10_000, 13)
	s := MustBuild(rel, 1024)
	tuples := rel.Tuples()
	for c := 0; c < s.NumChunks(); c++ {
		lo, hi := s.ChunkBounds(c)
		z := s.Zone(1, c)
		min, max, nonNull := math.Inf(1), math.Inf(-1), 0
		for i := lo; i < hi; i++ {
			if tuples[i][1].IsNull() {
				continue
			}
			nonNull++
			min = math.Min(min, tuples[i][1].Num)
			max = math.Max(max, tuples[i][1].Num)
		}
		if z.NonNull != nonNull {
			t.Fatalf("chunk %d NonNull = %d, want %d", c, z.NonNull, nonNull)
		}
		if nonNull > 0 && (z.Min != min || z.Max != max) {
			t.Fatalf("chunk %d zone [%v,%v], want [%v,%v]", c, z.Min, z.Max, min, max)
		}
		if s.ChunkHasNulls(1, c) != (nonNull < hi-lo) {
			t.Fatalf("chunk %d ChunkHasNulls mismatch", c)
		}
	}
}

func TestPostingCapFallsBackToCodeScan(t *testing.T) {
	sc := relation.MustSchema(relation.Attribute{Name: "ID", Type: relation.Categorical})
	r := relation.New(sc)
	n := MaxPostingValues + 100
	for i := 0; i < n; i++ {
		r.Append(relation.Tuple{relation.Cat(fmt.Sprintf("id-%d", i))})
	}
	s := MustBuild(r, 0)
	if s.HasPostings(0) {
		t.Fatalf("postings built for cardinality %d (cap %d)", s.Cardinality(0), MaxPostingValues)
	}
	// ScanEqCode still finds the row.
	code, ok := s.Code(0, "id-42")
	if !ok {
		t.Fatal("dictionary miss")
	}
	out := make([]uint64, bitmap.WordsFor(s.ChunkSize()))
	lo, hi := s.ChunkBounds(0)
	ScanEqCode(s.Codes(0)[lo:hi], code, out)
	pos := bitmap.AppendWordPositions(nil, out, lo)
	if len(pos) != 1 || pos[0] != 42 {
		t.Fatalf("ScanEqCode found %v, want [42]", pos)
	}
}

func TestScanKernels(t *testing.T) {
	vals := []float64{1, 5, math.NaN(), 10, 5, -3, 100}
	run := func(name string, scan func(out []uint64), want []int) {
		t.Helper()
		out := make([]uint64, 1)
		scan(out)
		got := bitmap.AppendWordPositions(nil, out, 0)
		if len(got) != len(want) {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s = %v, want %v", name, got, want)
			}
		}
	}
	run("ScanLess(5)", func(o []uint64) { ScanLess(vals, 5, o) }, []int{0, 5})
	run("ScanGreater(5)", func(o []uint64) { ScanGreater(vals, 5, o) }, []int{3, 6})
	run("ScanRange(1,10)", func(o []uint64) { ScanRange(vals, 1, 10, o) }, []int{0, 1, 3, 4})
	run("ScanEqNum(5)", func(o []uint64) { ScanEqNum(vals, 5, o) }, []int{1, 4})

	codes := []uint32{0, 1, NullCode, 1, 2}
	run("ScanEqCode(1)", func(o []uint64) { ScanEqCode(codes, 1, o) }, []int{1, 3})
}

func TestEmptyRelation(t *testing.T) {
	s := MustBuild(relation.New(testSchema()), 0)
	if s.Len() != 0 || s.NumChunks() != 0 {
		t.Fatalf("empty store: len %d chunks %d", s.Len(), s.NumChunks())
	}
	if _, ok := s.Code(0, "Toyota"); ok {
		t.Fatal("empty dictionary resolved a value")
	}
}

// TestExactValueIndex checks every run of the exact-value index against a
// linear scan, over values with signed zeros, NaN and NULL: a run holds
// exactly the rows == the value, in ascending order; NaN is stored as
// NULL; and the index keeps one uint32 per non-null row.
func TestExactValueIndex(t *testing.T) {
	negZero := math.Copysign(0, -1)
	domain := []float64{negZero, 0, 1, -1, 2.5, 1e6, -1e300, math.Inf(1), math.NaN()}
	rng := rand.New(rand.NewSource(17))
	r := relation.New(testSchema())
	for i := 0; i < 3000; i++ {
		p := relation.Numv(domain[rng.Intn(len(domain))])
		switch rng.Intn(10) {
		case 0:
			p = relation.NullValue
		case 1:
			p = relation.Numv(float64(rng.Intn(100000))) // rare values
		}
		r.Append(relation.Tuple{relation.Cat("Toyota"), p})
	}
	for _, chunk := range []int{64, 0} {
		s := MustBuild(r, chunk)
		floats := s.Floats(1)
		nonNull := 0
		for i, tp := range r.Tuples() {
			stored := !tp[1].IsNull() && !math.IsNaN(tp[1].Num)
			if stored {
				nonNull++
			}
			if s.Nulls(1).Get(i) == stored {
				t.Fatalf("row %d (%v): null bit %v", i, tp[1], s.Nulls(1).Get(i))
			}
		}
		if s.NonNullCount(1) != nonNull {
			t.Fatalf("NonNullCount %d, want %d (NaN counts as NULL)", s.NonNullCount(1), nonNull)
		}
		if idx := s.cols[1].byValue; len(idx) != nonNull || cap(idx) != nonNull {
			t.Fatalf("index holds %d positions (cap %d), want %d", len(idx), cap(idx), nonNull)
		}
		probes := append([]float64{7.5, -2, math.Inf(-1)}, domain...)
		for _, tp := range r.Tuples()[:200] {
			probes = append(probes, tp[1].Num)
		}
		for _, x := range probes {
			var want []uint32
			for i, v := range floats {
				if v == x {
					want = append(want, uint32(i))
				}
			}
			if got := s.Equal(1, x); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("chunk %d: Equal(%v) = %v, want %v", chunk, x, got, want)
			}
		}
	}
}
