package afd

import (
	"errors"
	"math"
	"strings"
	"testing"

	"aimq/internal/relation"
	"aimq/internal/tane"
)

func schema4() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "Make", Type: relation.Categorical},
		relation.Attribute{Name: "Model", Type: relation.Categorical},
		relation.Attribute{Name: "Year", Type: relation.Numeric},
		relation.Attribute{Name: "Price", Type: relation.Numeric},
	)
}

// handResult builds a TANE result by hand so ordering arithmetic is exactly
// checkable. Best key {Model, Price} (support .9); AFDs:
//
//	{Model}→Make support 0.95
//	{Price,Year}→Model support 0.80
//	{Model}→Year support 0.60
func handResult() *tane.Result {
	s := schema4()
	return &tane.Result{
		Schema: s,
		N:      1000,
		AFDs: []tane.AFD{
			{LHS: relation.NewAttrSet(1), RHS: 0, Error: 0.05},
			{LHS: relation.NewAttrSet(2, 3), RHS: 1, Error: 0.20},
			{LHS: relation.NewAttrSet(1), RHS: 2, Error: 0.40},
		},
		AKeys: []tane.AKey{
			{Attrs: relation.NewAttrSet(1, 3), Error: 0.10},
			{Attrs: relation.NewAttrSet(2, 3), Error: 0.30},
		},
	}
}

func TestOrderPartitionsBySuportedKey(t *testing.T) {
	o, err := Order(handResult())
	if err != nil {
		t.Fatal(err)
	}
	if o.BestKey.Attrs != relation.NewAttrSet(1, 3) {
		t.Fatalf("best key = %v", o.BestKey.Attrs.Members())
	}
	// Deciding = {Model, Price}, dependent = {Make, Year}.
	if len(o.Deciding) != 2 || len(o.Dependent) != 2 {
		t.Fatalf("deciding %d, dependent %d", len(o.Deciding), len(o.Dependent))
	}
}

func TestOrderWeightsExact(t *testing.T) {
	o, err := Order(handResult())
	if err != nil {
		t.Fatal(err)
	}
	// Wt_depends(Make) = 0.95/1 = 0.95; Wt_depends(Year) = 0.60/1 = 0.60.
	// Dependent ascending: Year (0.60) then Make (0.95).
	if o.Dependent[0].Attr != 2 || math.Abs(o.Dependent[0].Weight-0.60) > 1e-12 {
		t.Errorf("dependent[0] = %+v", o.Dependent[0])
	}
	if o.Dependent[1].Attr != 0 || math.Abs(o.Dependent[1].Weight-0.95) > 1e-12 {
		t.Errorf("dependent[1] = %+v", o.Dependent[1])
	}
	// Wt_decides(Model) = 0.95/1 + 0.60/1 = 1.55 ({Model} antecedents).
	// Wt_decides(Price) = 0.80/2 = 0.40 ({Price,Year}→Model).
	// Deciding ascending: Price (0.40) then Model (1.55).
	if o.Deciding[0].Attr != 3 || math.Abs(o.Deciding[0].Weight-0.40) > 1e-12 {
		t.Errorf("deciding[0] = %+v", o.Deciding[0])
	}
	if o.Deciding[1].Attr != 1 || math.Abs(o.Deciding[1].Weight-1.55) > 1e-12 {
		t.Errorf("deciding[1] = %+v", o.Deciding[1])
	}
	// Relax order: Year, Make, Price, Model.
	want := []int{2, 0, 3, 1}
	for i, a := range want {
		if o.Relax[i] != a {
			t.Fatalf("Relax = %v, want %v", o.Relax, want)
		}
	}
	// Wimp: Year = 1/4 × 0.60/1.55; Make = 2/4 × 0.95/1.55;
	// Price = 3/4 × 0.40/1.95; Model = 4/4 × 1.55/1.95.
	wantW := map[int]float64{
		2: 0.25 * 0.60 / 1.55,
		0: 0.50 * 0.95 / 1.55,
		3: 0.75 * 0.40 / 1.95,
		1: 1.00 * 1.55 / 1.95,
	}
	for a, w := range wantW {
		if math.Abs(o.Wimp[a]-w) > 1e-12 {
			t.Errorf("Wimp[%d] = %v, want %v", a, o.Wimp[a], w)
		}
	}
	// Most important attribute (Model) has the largest weight.
	for a := 0; a < 4; a++ {
		if a != 1 && o.Wimp[a] >= o.Wimp[1] {
			t.Errorf("Wimp[%d]=%v >= Wimp[Model]=%v", a, o.Wimp[a], o.Wimp[1])
		}
	}
}

func TestRelaxPosition(t *testing.T) {
	o, err := Order(handResult())
	if err != nil {
		t.Fatal(err)
	}
	if o.RelaxPosition(2) != 1 || o.RelaxPosition(1) != 4 {
		t.Errorf("RelaxPosition: Year=%d Model=%d", o.RelaxPosition(2), o.RelaxPosition(1))
	}
	if o.RelaxPosition(99) != 0 {
		t.Errorf("unknown attribute position = %d", o.RelaxPosition(99))
	}
}

func TestImportanceWeightsNormalized(t *testing.T) {
	o, err := Order(handResult())
	if err != nil {
		t.Fatal(err)
	}
	bound := relation.NewAttrSet(1, 3) // Model, Price
	w := o.ImportanceWeights(bound)
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum = %v", sum)
	}
	if w[1] <= w[3] {
		t.Errorf("Model weight %v should exceed Price weight %v", w[1], w[3])
	}
	// All four attributes.
	wAll := o.ImportanceWeights(relation.NewAttrSet(0, 1, 2, 3))
	sum = 0
	for _, v := range wAll {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("all-attr weights sum = %v", sum)
	}
}

// TestImportanceWeightsMatchMapOracle pins the slice form bit-for-bit to the
// map form it replaced (kept here verbatim as the oracle), over every bound
// of a 4-attribute schema and both the mined and the all-zero weights.
func TestImportanceWeightsMatchMapOracle(t *testing.T) {
	oracle := func(o *Ordering, bound relation.AttrSet) map[int]float64 {
		members := bound.Members()
		out := make(map[int]float64, len(members))
		total := 0.0
		for _, a := range members {
			total += o.Wimp[a]
		}
		for _, a := range members {
			if total > 0 {
				out[a] = o.Wimp[a] / total
			} else if len(members) > 0 {
				out[a] = 1 / float64(len(members))
			}
		}
		return out
	}
	mined, err := Order(handResult())
	if err != nil {
		t.Fatal(err)
	}
	zero := &Ordering{Schema: schema4(), Wimp: make([]float64, 4)}
	for _, o := range []*Ordering{mined, zero} {
		for set := relation.AttrSet(0); set < 16; set++ {
			got, want := o.ImportanceWeights(set), oracle(o, set)
			for a, w := range got {
				if math.Float64bits(w) != math.Float64bits(want[a]) {
					t.Errorf("bound %v attr %d: weight %v, oracle %v", set.Members(), a, w, want[a])
				}
			}
		}
	}
}

func TestImportanceWeightsZeroFallback(t *testing.T) {
	res := &tane.Result{
		Schema: schema4(),
		N:      100,
		AKeys:  []tane.AKey{{Attrs: relation.NewAttrSet(3), Error: 0.05}},
		// No AFDs at all: every group weight is zero.
	}
	o, err := Order(res)
	if err != nil {
		t.Fatal(err)
	}
	w := o.ImportanceWeights(relation.NewAttrSet(0, 1, 2, 3))
	sum := 0.0
	for _, v := range w {
		sum += v
		if v < 0 {
			t.Errorf("negative weight %v", v)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("fallback weights sum = %v", sum)
	}
}

func TestOrderNoKey(t *testing.T) {
	res := &tane.Result{Schema: schema4(), N: 10}
	if _, err := Order(res); !errors.Is(err, ErrNoKey) {
		t.Errorf("Order without keys = %v, want ErrNoKey", err)
	}
}

func TestRelaxationSetsPaperExample(t *testing.T) {
	// Paper: 1-attr order {a1,a3,a4,a2} ⇒ 2-attr order
	// {a1a3, a1a4, a1a2, a3a4, a3a2, a4a2}. Build an ordering with that
	// relax order (positions 1,3,4,2 → our indexes 0-based: 1,3,4,2 over a
	// 5-attribute schema where a0 is the key).
	s := relation.MustSchema(
		relation.Attribute{Name: "a0", Type: relation.Numeric},
		relation.Attribute{Name: "a1", Type: relation.Categorical},
		relation.Attribute{Name: "a2", Type: relation.Categorical},
		relation.Attribute{Name: "a3", Type: relation.Categorical},
		relation.Attribute{Name: "a4", Type: relation.Categorical},
	)
	res := &tane.Result{
		Schema: s,
		N:      100,
		AKeys:  []tane.AKey{{Attrs: relation.NewAttrSet(0), Error: 0}},
		AFDs: []tane.AFD{ // depends: a1 < a3 < a4 < a2
			{LHS: relation.NewAttrSet(0), RHS: 1, Error: 0.9},
			{LHS: relation.NewAttrSet(0), RHS: 3, Error: 0.8},
			{LHS: relation.NewAttrSet(0), RHS: 4, Error: 0.7},
			{LHS: relation.NewAttrSet(0), RHS: 2, Error: 0.6},
		},
	}
	o, err := Order(res)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []int{1, 3, 4, 2, 0}
	for i := range wantOrder {
		if o.Relax[i] != wantOrder[i] {
			t.Fatalf("Relax = %v, want %v", o.Relax, wantOrder)
		}
	}
	cand := relation.NewAttrSet(1, 2, 3, 4)
	got := o.RelaxationSets(2, cand)
	want := []relation.AttrSet{
		relation.NewAttrSet(1, 3), relation.NewAttrSet(1, 4), relation.NewAttrSet(1, 2),
		relation.NewAttrSet(3, 4), relation.NewAttrSet(3, 2), relation.NewAttrSet(4, 2),
	}
	if len(got) != len(want) {
		t.Fatalf("2-attr sets = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("2-attr order[%d] = %v, want %v", i, got[i].Members(), want[i].Members())
		}
	}
}

func TestRelaxationSetsEdges(t *testing.T) {
	o, err := Order(handResult())
	if err != nil {
		t.Fatal(err)
	}
	all := relation.NewAttrSet(0, 1, 2, 3)
	if got := o.RelaxationSets(0, all); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	if got := o.RelaxationSets(5, all); got != nil {
		t.Errorf("k>n returned %v", got)
	}
	if got := o.RelaxationSets(4, all); len(got) != 1 || got[0] != all {
		t.Errorf("k=n = %v", got)
	}
	// Restricted to two candidates.
	two := relation.NewAttrSet(0, 1)
	if got := o.RelaxationSets(1, two); len(got) != 2 {
		t.Errorf("restricted 1-attr sets = %v", got)
	}
}

func TestAllRelaxations(t *testing.T) {
	o, err := Order(handResult())
	if err != nil {
		t.Fatal(err)
	}
	cand := relation.NewAttrSet(0, 1, 2, 3)
	got := o.AllRelaxations(10, cand) // clamped to 3: C(4,1)+C(4,2)+C(4,3) = 4+6+4
	if len(got) != 14 {
		t.Fatalf("AllRelaxations = %d sets", len(got))
	}
	// Never relaxes everything.
	for _, s := range got {
		if s == cand {
			t.Errorf("AllRelaxations included the full attribute set")
		}
	}
	// Sizes non-decreasing.
	for i := 1; i < len(got); i++ {
		if got[i].Size() < got[i-1].Size() {
			t.Errorf("sizes not monotone at %d", i)
		}
	}
}

func TestDescribe(t *testing.T) {
	o, err := Order(handResult())
	if err != nil {
		t.Fatal(err)
	}
	d := o.Describe()
	for _, want := range []string{"best key", "Model", "deciding", "dependent", "Wimp"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
}
