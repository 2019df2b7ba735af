package workload

import (
	"math"
	"sync"
	"testing"

	"aimq/internal/afd"
	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/tane"
)

func carSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "Make", Type: relation.Categorical},
		relation.Attribute{Name: "Model", Type: relation.Categorical},
		relation.Attribute{Name: "Price", Type: relation.Numeric},
		relation.Attribute{Name: "Color", Type: relation.Categorical},
	)
}

func TestRecordAndFrequencies(t *testing.T) {
	sc := carSchema()
	l := NewLog(sc)
	if _, err := l.Ordering(); err == nil {
		t.Errorf("empty log produced an ordering")
	}
	// 3 queries: Model bound 3×, Price 2×, Make 1×, Color 0×.
	l.Record(query.New(sc).Where("Model", query.OpLike, relation.Cat("Camry")).
		Where("Price", query.OpLess, relation.Numv(10000)))
	l.Record(query.New(sc).Where("Model", query.OpEq, relation.Cat("Civic")))
	l.Record(query.New(sc).Where("Model", query.OpLike, relation.Cat("F150")).
		Where("Price", query.OpLike, relation.Numv(20000)).
		Where("Make", query.OpEq, relation.Cat("Ford")))
	if l.Queries() != 3 {
		t.Fatalf("Queries = %d", l.Queries())
	}
	f := l.Frequencies()
	want := []float64{1.0 / 3, 1, 2.0 / 3, 0}
	for i := range want {
		if math.Abs(f[i]-want[i]) > 1e-12 {
			t.Errorf("freq[%d] = %v, want %v", i, f[i], want[i])
		}
	}
}

func TestOrderingFromLog(t *testing.T) {
	sc := carSchema()
	l := NewLog(sc)
	l.Record(query.New(sc).Where("Model", query.OpLike, relation.Cat("Camry")).
		Where("Price", query.OpLike, relation.Numv(9000)))
	l.Record(query.New(sc).Where("Model", query.OpEq, relation.Cat("Civic")))
	ord, err := l.Ordering()
	if err != nil {
		t.Fatal(err)
	}
	// Relax order ascends by binding frequency: Make/Color (0) first,
	// Model (most bound) last.
	if last := ord.Relax[len(ord.Relax)-1]; last != sc.MustIndex("Model") {
		t.Errorf("most important attribute = %d, want Model", last)
	}
	sum := 0.0
	for _, w := range ord.Wimp {
		sum += w
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum = %v", sum)
	}
	// It is a usable Ordering: relaxation sets derive from it.
	sets := ord.AllRelaxations(relation.NewAttrSet(0, 1, 2, 3))
	if len(sets) == 0 {
		t.Errorf("workload ordering produced no relaxations")
	}
}

func minedOrdering(t testing.TB) *afd.Ordering {
	t.Helper()
	sc := carSchema()
	res := &tane.Result{
		Schema: sc,
		N:      100,
		AFDs: []tane.AFD{
			{LHS: relation.NewAttrSet(1), RHS: 0, Error: 0.05},
		},
		AKeys: []tane.AKey{{Attrs: relation.NewAttrSet(1, 2), Error: 0.05}},
	}
	ord, err := afd.Order(res)
	if err != nil {
		t.Fatal(err)
	}
	return ord
}

func TestBlend(t *testing.T) {
	sc := carSchema()
	mined := minedOrdering(t)
	l := NewLog(sc)
	// Users overwhelmingly bind Color — unexpected, invisible to mining.
	for i := 0; i < 10; i++ {
		l.Record(query.New(sc).Where("Color", query.OpLike, relation.Cat("Red")))
	}
	pure, err := l.Blend(mined, 0)
	if err != nil {
		t.Fatal(err)
	}
	minedNorm := 0.0
	for _, w := range mined.Wimp {
		minedNorm += w
	}
	color := sc.MustIndex("Color")
	if math.Abs(pure.Wimp[color]-mined.Wimp[color]/minedNorm) > 1e-12 {
		t.Errorf("alpha=0 changed the mined weights")
	}
	half, err := l.Blend(mined, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if half.Wimp[color] <= pure.Wimp[color] {
		t.Errorf("blending did not raise Color weight: %v vs %v", half.Wimp[color], pure.Wimp[color])
	}
	full, err := l.Blend(mined, 1)
	if err != nil {
		t.Fatal(err)
	}
	if full.Wimp[color] <= half.Wimp[color] {
		t.Errorf("alpha=1 not more query-driven than alpha=0.5")
	}
	// The mined key survives blending.
	if full.BestKey.Attrs != mined.BestKey.Attrs {
		t.Errorf("blend lost the mined key")
	}
}

func TestBlendValidation(t *testing.T) {
	sc := carSchema()
	mined := minedOrdering(t)
	l := NewLog(sc)
	if _, err := l.Blend(mined, 0.5); err == nil {
		t.Errorf("blend with empty log accepted")
	}
	l.Record(query.New(sc).Where("Model", query.OpEq, relation.Cat("x")))
	if _, err := l.Blend(mined, -0.1); err == nil {
		t.Errorf("alpha out of range accepted")
	}
	other := NewLog(relation.MustSchema(relation.Attribute{Name: "Z", Type: relation.Numeric}))
	other.Record(query.New(other.schema).Where("Z", query.OpEq, relation.Numv(1)))
	if _, err := other.Blend(mined, 0.5); err == nil {
		t.Errorf("schema mismatch accepted")
	}
}

func TestConcurrentRecord(t *testing.T) {
	sc := carSchema()
	l := NewLog(sc)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Record(query.New(sc).Where("Model", query.OpEq, relation.Cat("x")))
			}
		}()
	}
	wg.Wait()
	if l.Queries() != 800 {
		t.Errorf("Queries = %d after concurrent recording", l.Queries())
	}
	if f := l.Frequencies(); f[sc.MustIndex("Model")] != 1 {
		t.Errorf("Model frequency = %v", f[1])
	}
}

func TestNormalizeAllZero(t *testing.T) {
	out := normalize([]float64{0, 0, 0, 0})
	for _, w := range out {
		if math.Abs(w-0.25) > 1e-12 {
			t.Errorf("zero vector normalized to %v", out)
		}
	}
}
