package relation

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func carSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema(
		Attribute{Name: "Make", Type: Categorical},
		Attribute{Name: "Model", Type: Categorical},
		Attribute{Name: "Year", Type: Numeric},
		Attribute{Name: "Price", Type: Numeric},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestAttrTypeString(t *testing.T) {
	if Categorical.String() != "categorical" {
		t.Errorf("Categorical.String() = %q", Categorical.String())
	}
	if Numeric.String() != "numeric" {
		t.Errorf("Numeric.String() = %q", Numeric.String())
	}
	if got := AttrType(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown AttrType string = %q", got)
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		typ  AttrType
		want bool
	}{
		{Cat("Ford"), Cat("Ford"), Categorical, true},
		{Cat("Ford"), Cat("Honda"), Categorical, false},
		{Numv(10), Numv(10), Numeric, true},
		{Numv(10), Numv(10.5), Numeric, false},
		{NullValue, NullValue, Categorical, true},
		{NullValue, Cat("Ford"), Categorical, false},
		{Cat("Ford"), NullValue, Categorical, false},
		{NullValue, Numv(0), Numeric, false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b, c.typ); got != c.want {
			t.Errorf("Equal(%v,%v,%v) = %v, want %v", c.a, c.b, c.typ, got, c.want)
		}
	}
}

func TestValueKeyCollision(t *testing.T) {
	if Numv(10000).Key(Numeric) != Numv(1e4).Key(Numeric) {
		t.Errorf("equal floats produced different keys")
	}
	if Numv(10000).Key(Numeric) == Numv(10000.5).Key(Numeric) {
		t.Errorf("distinct floats produced identical keys")
	}
	if NullValue.Key(Categorical) == Cat("").Key(Categorical) {
		// Cat("") should never appear (ParseValue maps "" to null), but the
		// key space must still keep them apart.
		t.Errorf("null key collides with empty string key")
	}
}

// TestAppendKeyMatchesKey pins the one-encoder contract: Key is exactly the
// bytes AppendKey appends, for every value shape and after any prefix.
func TestAppendKeyMatchesKey(t *testing.T) {
	cases := []struct {
		v   Value
		typ AttrType
	}{
		{Cat("Camry"), Categorical}, {Cat(""), Categorical}, {NullValue, Categorical},
		{Numv(10000), Numeric}, {Numv(9000), Numeric}, {Numv(-0.125), Numeric},
		{Numv(1e21), Numeric}, {Numv(1.0 / 3), Numeric}, {NullValue, Numeric},
	}
	for _, c := range cases {
		if got := string(c.v.AppendKey(nil, c.typ)); got != c.v.Key(c.typ) {
			t.Errorf("AppendKey(%v, %v) = %q, Key = %q", c.v, c.typ, got, c.v.Key(c.typ))
		}
		prefix := []byte("p\x1f")
		if got := string(c.v.AppendKey(prefix, c.typ)); got != "p\x1f"+c.v.Key(c.typ) {
			t.Errorf("AppendKey after a prefix = %q", got)
		}
	}
}

// TestNumericKeyMatchesFormatFloat pins the integer fast path of the numeric
// key: its bytes are strconv.FormatFloat(x, 'g', -1, 64) for every integer
// within ±1.1e6 (across the 1e6 switch to exponent form), for the values
// the fast path must refuse (-0, NaN, ±Inf, fractions), and for a million
// random bit patterns.
func TestNumericKeyMatchesFormatFloat(t *testing.T) {
	var buf []byte
	check := func(x float64) {
		buf = appendNum(buf[:0], x)
		if want := strconv.FormatFloat(x, 'g', -1, 64); string(buf) != want {
			t.Fatalf("key of %v (bits %#x) = %q, want %q", x, math.Float64bits(x), buf, want)
		}
	}
	for i := -1_100_000; i <= 1_100_000; i++ {
		check(float64(i))
	}
	for _, x := range []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0.1, 999999.5, -999999.5, 1e6, -1e6, 1e21} {
		check(x)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		check(math.Float64frombits(rng.Uint64()))
	}
}

// TestAppendTupleKey pins the tuple key: it is the concatenated value keys,
// each closed by 0x1f, for values without 0x00, 0x1e or 0x1f; and it tells
// apart tuples whose raw concatenation would collide.
func TestAppendTupleKey(t *testing.T) {
	s := carSchema(t)
	plain := Tuple{Cat("Toyota"), Cat("Camry"), Numv(2001), NullValue}
	if got, want := string(AppendTupleKey(nil, s, plain)), "Toyota\x1fCamry\x1f2001\x1f\x00null\x1f"; got != want {
		t.Errorf("plain key %q, want %q", got, want)
	}
	distinct := []Tuple{
		{Cat("X\x1fY"), Cat("Z"), Numv(1), Numv(2)},
		{Cat("X"), Cat("Y\x1fZ"), Numv(1), Numv(2)},
		{Cat("X\x1e"), Cat("\x1fZ"), Numv(1), Numv(2)},
		{Cat("X\x1e\x1f"), Cat("Z"), Numv(1), Numv(2)},
		{Cat("\x00null"), Cat("Z"), Numv(1), Numv(2)},
		{NullValue, Cat("Z"), Numv(1), Numv(2)},
		{Cat("\x00"), Cat("Z"), Numv(1), Numv(2)},
		{Cat(""), Cat("Z"), Numv(1), Numv(2)},
		{Cat("X"), Cat("Z"), Numv(math.Copysign(0, -1)), Numv(2)},
		{Cat("X"), Cat("Z"), Numv(0), Numv(2)},
	}
	seen := map[string]int{}
	for i, tp := range distinct {
		k := string(AppendTupleKey([]byte("prefix"), s, tp))[len("prefix"):]
		if j, ok := seen[k]; ok {
			t.Errorf("tuples %d and %d share key %q", j, i, k)
		}
		seen[k] = i
	}
}

func TestValueRender(t *testing.T) {
	cases := []struct {
		v    Value
		typ  AttrType
		want string
	}{
		{Cat("Camry"), Categorical, "Camry"},
		{Numv(10000), Numeric, "10000"},
		{Numv(10.5), Numeric, "10.5"},
		{NullValue, Numeric, "NULL"},
		{NullValue, Categorical, "NULL"},
	}
	for _, c := range cases {
		if got := c.v.Render(c.typ); got != c.want {
			t.Errorf("Render(%v,%v) = %q, want %q", c.v, c.typ, got, c.want)
		}
	}
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue("10.5", Numeric)
	if err != nil || v.Num != 10.5 {
		t.Errorf("ParseValue numeric = %v, %v", v, err)
	}
	v, err = ParseValue("Camry", Categorical)
	if err != nil || v.Str != "Camry" {
		t.Errorf("ParseValue categorical = %v, %v", v, err)
	}
	v, err = ParseValue("", Numeric)
	if err != nil || !v.IsNull() {
		t.Errorf("ParseValue empty = %v, %v; want null", v, err)
	}
	v, err = ParseValue("NULL", Categorical)
	if err != nil || !v.IsNull() {
		t.Errorf("ParseValue NULL = %v, %v; want null", v, err)
	}
	if _, err = ParseValue("not-a-number", Numeric); err == nil {
		t.Errorf("ParseValue accepted garbage numeric")
	}
}

func TestParseRenderRoundTrip(t *testing.T) {
	f := func(n float64, s string) bool {
		if math.IsNaN(n) || math.IsInf(n, 0) {
			return true
		}
		nv := Numv(n)
		got, err := ParseValue(nv.Render(Numeric), Numeric)
		if err != nil || !got.Equal(nv, Numeric) {
			return false
		}
		if s == "" || s == "NULL" || strings.ContainsAny(s, "\x00") {
			return true
		}
		cv := Cat(s)
		got, err = ParseValue(cv.Render(Categorical), Categorical)
		return err == nil && got.Equal(cv, Categorical)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchemaBasics(t *testing.T) {
	s := carSchema(t)
	if s.Arity() != 4 {
		t.Fatalf("Arity = %d", s.Arity())
	}
	if i, ok := s.Index("Price"); !ok || i != 3 {
		t.Errorf("Index(Price) = %d,%v", i, ok)
	}
	if _, ok := s.Index("Nope"); ok {
		t.Errorf("Index(Nope) should be absent")
	}
	if got := s.MustIndex("Make"); got != 0 {
		t.Errorf("MustIndex(Make) = %d", got)
	}
	cats := s.Categorical()
	if len(cats) != 2 || cats[0] != 0 || cats[1] != 1 {
		t.Errorf("Categorical = %v", cats)
	}
	nums := s.NumericAttrs()
	if len(nums) != 2 || nums[0] != 2 || nums[1] != 3 {
		t.Errorf("NumericAttrs = %v", nums)
	}
	if got := s.String(); !strings.Contains(got, "Make:categorical") || !strings.Contains(got, "Price:numeric") {
		t.Errorf("String = %q", got)
	}
	names := s.Names()
	if len(names) != 4 || names[2] != "Year" {
		t.Errorf("Names = %v", names)
	}
	attrs := s.Attrs()
	attrs[0].Name = "mutated"
	if s.Attr(0).Name != "Make" {
		t.Errorf("Attrs() exposed internal state")
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema(Attribute{Name: "", Type: Categorical}); err == nil {
		t.Errorf("NewSchema accepted empty name")
	}
	if _, err := NewSchema(
		Attribute{Name: "A", Type: Categorical},
		Attribute{Name: "A", Type: Numeric},
	); err == nil {
		t.Errorf("NewSchema accepted duplicate name")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("MustSchema did not panic on invalid schema")
		}
	}()
	MustSchema(Attribute{Name: "", Type: Numeric})
}

func TestMustIndexPanics(t *testing.T) {
	s := carSchema(t)
	defer func() {
		if recover() == nil {
			t.Errorf("MustIndex did not panic on missing attribute")
		}
	}()
	s.MustIndex("Ghost")
}

func TestAttrSetOps(t *testing.T) {
	s := NewAttrSet(0, 2, 5)
	if !s.Has(0) || !s.Has(2) || !s.Has(5) || s.Has(1) {
		t.Errorf("Has wrong: %b", s)
	}
	if s.Size() != 3 {
		t.Errorf("Size = %d", s.Size())
	}
	if got := s.Add(1).Size(); got != 4 {
		t.Errorf("Add Size = %d", got)
	}
	if got := s.Remove(2); got.Has(2) || got.Size() != 2 {
		t.Errorf("Remove = %v", got.Members())
	}
	if got := s.Union(NewAttrSet(1)); got.Size() != 4 {
		t.Errorf("Union = %v", got.Members())
	}
	if got := s.Intersect(NewAttrSet(2, 5, 7)); got.Size() != 2 || !got.Has(2) || !got.Has(5) {
		t.Errorf("Intersect = %v", got.Members())
	}
	if !s.Contains(NewAttrSet(0, 5)) || s.Contains(NewAttrSet(0, 1)) {
		t.Errorf("Contains wrong")
	}
	if !AttrSet(0).Empty() || s.Empty() {
		t.Errorf("Empty wrong")
	}
	m := s.Members()
	if len(m) != 3 || m[0] != 0 || m[1] != 2 || m[2] != 5 {
		t.Errorf("Members = %v", m)
	}
}

func TestAttrSetProperties(t *testing.T) {
	f := func(a, b uint16) bool {
		sa, sb := AttrSet(a), AttrSet(b)
		if sa.Union(sb).Size() != sa.Size()+sb.Size()-sa.Intersect(sb).Size() {
			return false
		}
		if !sa.Union(sb).Contains(sa) || !sa.Union(sb).Contains(sb) {
			return false
		}
		if !sa.Contains(sa.Intersect(sb)) {
			return false
		}
		// Round-trip through Members.
		if NewAttrSet(sa.Members()...) != sa {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAttrSetLabel(t *testing.T) {
	s := carSchema(t)
	got := NewAttrSet(1, 3).Label(s)
	if got != "{Model,Price}" {
		t.Errorf("Label = %q", got)
	}
}

func buildRel(t testing.TB) *Relation {
	t.Helper()
	s := carSchema(t)
	r := New(s)
	rows := []struct {
		make, model string
		year, price float64
	}{
		{"Toyota", "Camry", 2000, 10000},
		{"Toyota", "Corolla", 2001, 8000},
		{"Honda", "Accord", 2000, 10500},
		{"Honda", "Civic", 1999, 7000},
		{"Ford", "Focus", 2002, 15000},
		{"Toyota", "Camry", 2003, 12000},
	}
	for _, row := range rows {
		r.Append(Tuple{Cat(row.make), Cat(row.model), Numv(row.year), Numv(row.price)})
	}
	return r
}

func TestRelationBasics(t *testing.T) {
	r := buildRel(t)
	if r.Size() != 6 {
		t.Fatalf("Size = %d", r.Size())
	}
	if got := r.Tuple(0)[0].Str; got != "Toyota" {
		t.Errorf("Tuple(0) Make = %q", got)
	}
	dv := r.DistinctValues(0)
	if len(dv) != 3 {
		t.Errorf("DistinctValues(Make) = %d values", len(dv))
	}
	min, max, ok := r.NumericRange(3)
	if !ok || min != 7000 || max != 15000 {
		t.Errorf("NumericRange(Price) = %v,%v,%v", min, max, ok)
	}
	sel := r.Select(func(tp Tuple) bool { return tp[0].Str == "Toyota" })
	if sel.Size() != 3 {
		t.Errorf("Select Toyota = %d", sel.Size())
	}
	h := r.Head(2)
	if h.Size() != 2 || h.Tuple(1)[1].Str != "Corolla" {
		t.Errorf("Head wrong")
	}
	if r.Head(100).Size() != 6 {
		t.Errorf("Head(100) should clamp")
	}
}

func TestRelationAppendArityPanics(t *testing.T) {
	r := buildRel(t)
	defer func() {
		if recover() == nil {
			t.Errorf("Append did not panic on arity mismatch")
		}
	}()
	r.Append(Tuple{Cat("x")})
}

func TestFromTuples(t *testing.T) {
	s := carSchema(t)
	_, err := FromTuples(s, []Tuple{{Cat("a")}})
	if err == nil {
		t.Errorf("FromTuples accepted bad arity")
	}
	r, err := FromTuples(s, []Tuple{{Cat("Toyota"), Cat("Camry"), Numv(2000), Numv(9000)}})
	if err != nil || r.Size() != 1 {
		t.Errorf("FromTuples = %v, %v", r, err)
	}
}

func TestSample(t *testing.T) {
	r := buildRel(t)
	rng := rand.New(rand.NewSource(7))
	s := r.Sample(3, rng)
	if s.Size() != 3 {
		t.Fatalf("Sample size = %d", s.Size())
	}
	// No duplicates (sampling without replacement): identify rows by pointer
	// identity of the shared tuple slices.
	seen := map[*Value]bool{}
	for _, tp := range s.Tuples() {
		if seen[&tp[0]] {
			t.Errorf("Sample returned duplicate tuple")
		}
		seen[&tp[0]] = true
	}
	all := r.Sample(100, rng)
	if all.Size() != r.Size() {
		t.Errorf("Sample(n>size) = %d", all.Size())
	}
}

func TestNumericRangeAllNull(t *testing.T) {
	s := carSchema(t)
	r := New(s)
	r.Append(Tuple{Cat("a"), Cat("b"), NullValue, NullValue})
	if _, _, ok := r.NumericRange(2); ok {
		t.Errorf("NumericRange over all-null attribute reported ok")
	}
	dv := r.DistinctValues(2)
	if len(dv) != 0 {
		t.Errorf("DistinctValues skipped nulls: %v", dv)
	}
}

func TestTupleCloneAndRender(t *testing.T) {
	s := carSchema(t)
	tp := Tuple{Cat("Toyota"), Cat("Camry"), Numv(2000), Numv(10000)}
	cl := tp.Clone()
	cl[0] = Cat("Honda")
	if tp[0].Str != "Toyota" {
		t.Errorf("Clone aliased storage")
	}
	got := tp.Render(s)
	want := "(Make=Toyota, Model=Camry, Year=2000, Price=10000)"
	if got != want {
		t.Errorf("Render = %q, want %q", got, want)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := buildRel(t)
	r.Append(Tuple{NullValue, Cat("Mystery"), NullValue, Numv(5000)})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.Size() != r.Size() {
		t.Fatalf("round trip size %d != %d", got.Size(), r.Size())
	}
	if got.Schema().String() != r.Schema().String() {
		t.Fatalf("round trip schema %s != %s", got.Schema(), r.Schema())
	}
	for i := range r.Tuples() {
		for j := range r.Tuple(i) {
			if !got.Tuple(i)[j].Equal(r.Tuple(i)[j], r.Schema().Type(j)) {
				t.Errorf("tuple %d attr %d: %v != %v", i, j, got.Tuple(i)[j], r.Tuple(i)[j])
			}
		}
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	r := buildRel(t)
	path := t.TempDir() + "/rel.csv"
	if err := SaveCSV(path, r); err != nil {
		t.Fatalf("SaveCSV: %v", err)
	}
	got, err := LoadCSV(path)
	if err != nil {
		t.Fatalf("LoadCSV: %v", err)
	}
	if got.Size() != r.Size() {
		t.Errorf("file round trip size %d != %d", got.Size(), r.Size())
	}
	if _, err := LoadCSV(path + ".missing"); err == nil {
		t.Errorf("LoadCSV of missing file succeeded")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                        // no header
		"A,B\n",                   // missing type row
		"A,B\ncategorical\n",      // short type row
		"A\nweirdtype\n",          // unknown type
		"A\nnumeric\nnot-a-num\n", // bad numeric cell
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: ReadCSV accepted malformed input %q", i, c)
		}
	}
}

func TestCatCodes(t *testing.T) {
	s := MustSchema(
		Attribute{Name: "Make", Type: Categorical},
		Attribute{Name: "Price", Type: Numeric},
	)
	r := New(s)
	r.Append(Tuple{Cat("Ford"), Numv(1)})
	r.Append(Tuple{NullValue, Numv(2)})
	r.Append(Tuple{Cat("Toyota"), Numv(3)})
	r.Append(Tuple{Cat("Ford"), Numv(4)})
	r.Append(Tuple{NullValue, Numv(5)})

	codes, card, ok := r.CatCodes(0)
	if !ok || card != 3 {
		t.Fatalf("CatCodes = card %d ok %v", card, ok)
	}
	want := []int32{0, 1, 2, 0, 1} // first-seen order; nulls share one code
	for i, c := range codes {
		if c != want[i] {
			t.Fatalf("codes = %v, want %v", codes, want)
		}
	}
	// Numeric attributes don't intern.
	if _, _, ok := r.CatCodes(1); ok {
		t.Error("CatCodes interned a numeric attribute")
	}
	// Cached: same backing slice on repeat.
	again, _, _ := r.CatCodes(0)
	if &again[0] != &codes[0] {
		t.Error("CatCodes rebuilt an unchanged dictionary")
	}
	// Stale after append: rebuilt at the new size with consistent codes.
	r.Append(Tuple{Cat("Honda"), Numv(6)})
	codes2, card2, _ := r.CatCodes(0)
	if len(codes2) != 6 || card2 != 4 || codes2[5] != 3 {
		t.Errorf("post-append codes = %v card %d", codes2, card2)
	}
}

func TestCatCodesConcurrent(t *testing.T) {
	s := MustSchema(Attribute{Name: "A", Type: Categorical})
	r := New(s)
	for i := 0; i < 500; i++ {
		r.Append(Tuple{Cat(string(rune('a' + i%7)))})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes, card, ok := r.CatCodes(0)
			if !ok || card != 7 || len(codes) != 500 {
				t.Errorf("CatCodes = card %d len %d ok %v", card, len(codes), ok)
			}
		}()
	}
	wg.Wait()
}
