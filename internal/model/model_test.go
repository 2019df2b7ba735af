package model

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"aimq/internal/afd"
	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/similarity"
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

func learned(t testing.TB) (*afd.Ordering, *similarity.Estimator, *relation.Relation) {
	t.Helper()
	r := relation.New(carSchema())
	add := func(mk, md, cl string, p float64, times int) {
		for i := 0; i < times; i++ {
			r.Append(relation.Tuple{relation.Cat(mk), relation.Cat(md), relation.Cat(cl), relation.Numv(p + float64(i))})
		}
	}
	add("Toyota", "Camry", "sedan", 10000, 10)
	add("Honda", "Accord", "sedan", 10500, 10)
	add("Ford", "F150", "truck", 25000, 10)
	res := tane.Miner{Terr: 0.4, MaxLHS: 2}.Mine(r)
	ord, err := afd.Order(res)
	if err != nil {
		t.Fatal(err)
	}
	idx := supertuple.Builder{Buckets: 8}.Build(r)
	return ord, similarity.New(idx, ord, similarity.Config{}), r
}

func TestCaptureRestoreRoundTrip(t *testing.T) {
	ord, est, rel := learned(t)
	sc := rel.Schema()
	snap := Capture(ord, est)

	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ord2, est2, err := back.Restore(sc)
	if err != nil {
		t.Fatal(err)
	}

	// Ordering round-trips.
	if ord2.BestKey.Attrs != ord.BestKey.Attrs || ord2.BestKey.Error != ord.BestKey.Error {
		t.Errorf("best key differs: %v vs %v", ord2.BestKey, ord.BestKey)
	}
	for i := range ord.Relax {
		if ord2.Relax[i] != ord.Relax[i] {
			t.Fatalf("relax order differs at %d", i)
		}
	}
	for a := range ord.Wimp {
		if math.Abs(ord2.Wimp[a]-ord.Wimp[a]) > 1e-15 {
			t.Errorf("Wimp[%d] differs", a)
		}
	}
	if len(ord2.Dependent) != len(ord.Dependent) || len(ord2.Deciding) != len(ord.Deciding) {
		t.Errorf("group sizes differ")
	}

	// Similarities round-trip: every pair on every categorical attribute.
	for _, attr := range sc.Categorical() {
		m := est.Matrix(attr)
		for v1, row := range m {
			for v2, want := range row {
				if got := est2.VSim(attr, v1, v2); math.Abs(got-want) > 1e-15 {
					t.Errorf("VSim(%s,%s) = %v, want %v", v1, v2, got, want)
				}
			}
		}
	}

	// The restored estimator answers Sim queries identically.
	q := query.New(sc).
		Where("Model", query.OpLike, relation.Cat("Camry")).
		Where("Price", query.OpLike, relation.Numv(10000))
	tp := relation.Tuple{relation.Cat("Honda"), relation.Cat("Accord"), relation.Cat("sedan"), relation.Numv(10300)}
	w := est.Ordering.ImportanceWeights(q.BoundAttrs())
	if a, b := est.Sim(q, tp, w), est2.Sim(q, tp, est2.Ordering.ImportanceWeights(q.BoundAttrs())); math.Abs(a-b) > 1e-15 {
		t.Errorf("Sim differs after restore: %v vs %v", a, b)
	}
}

func TestFileRoundTrip(t *testing.T) {
	ord, est, rel := learned(t)
	path := t.TempDir() + "/model.json"
	if err := Save(path, Capture(ord, est)); err != nil {
		t.Fatal(err)
	}
	snap, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := snap.Restore(rel.Schema()); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path + ".missing"); err == nil {
		t.Errorf("missing file accepted")
	}
}

func TestRestoreValidation(t *testing.T) {
	ord, est, rel := learned(t)
	sc := rel.Schema()
	base := Capture(ord, est)

	wrongVersion := *base
	wrongVersion.Version = 99
	if _, _, err := wrongVersion.Restore(sc); err == nil {
		t.Errorf("wrong version accepted")
	}

	other := relation.MustSchema(relation.Attribute{Name: "X", Type: relation.Numeric})
	if _, _, err := base.Restore(other); err == nil {
		t.Errorf("wrong schema accepted")
	}

	renamed := *base
	renamed.Schema = append([]AttrJSON(nil), base.Schema...)
	renamed.Schema[0].Name = "Maker"
	if _, _, err := renamed.Restore(sc); err == nil {
		t.Errorf("renamed attribute accepted")
	}

	badOrder := *base
	badOrder.Relax = []int{0, 0, 1, 2}
	if _, _, err := badOrder.Restore(sc); err == nil {
		t.Errorf("non-permutation relax order accepted")
	}

	shortW := *base
	shortW.Wimp = base.Wimp[:2]
	if _, _, err := shortW.Restore(sc); err == nil {
		t.Errorf("short weight vector accepted")
	}

	badMatrix := *base
	badMatrix.Matrices = map[string]map[string]map[string]float64{"Ghost": {}}
	if _, _, err := badMatrix.Restore(sc); err == nil {
		t.Errorf("matrix for unknown attribute accepted")
	}
	numMatrix := *base
	numMatrix.Matrices = map[string]map[string]map[string]float64{"Price": {}}
	if _, _, err := numMatrix.Restore(sc); err == nil {
		t.Errorf("matrix for numeric attribute accepted")
	}
}

func TestReadGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{not json")); err == nil {
		t.Errorf("garbage accepted")
	}
}

func TestRestoredModelSupportsFeedbackMutation(t *testing.T) {
	ord, est, rel := learned(t)
	sc := rel.Schema()
	snap := Capture(ord, est)
	_, est2, err := snap.Restore(sc)
	if err != nil {
		t.Fatal(err)
	}
	model := sc.MustIndex("Model")
	est2.SetVSim(model, "Camry", "Accord", 0.99)
	if got := est2.VSim(model, "Camry", "Accord"); got != 0.99 {
		t.Errorf("restored estimator not mutable: %v", got)
	}
	// The original is untouched (deep copy).
	if got := est.VSim(model, "Camry", "Accord"); got == 0.99 {
		t.Errorf("snapshot aliased the original matrices")
	}
}
