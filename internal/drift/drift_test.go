package drift

import (
	"math"
	"math/rand"
	"testing"

	"aimq/internal/relation"
	"aimq/internal/webdb"
)

func testSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "Model", Type: relation.Categorical},
		relation.Attribute{Name: "Make", Type: relation.Categorical},
		relation.Attribute{Name: "Price", Type: relation.Numeric},
	)
}

// genRel draws n tuples with Model→Make exact and prices centered per
// model; priceScale and modelBias perturb the distribution.
func genRel(n int, seed int64, priceScale float64, onlyModel string) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	models := []struct {
		model, mk string
		price     float64
	}{
		{"Camry", "Toyota", 12000},
		{"Civic", "Honda", 9500},
		{"F150", "Ford", 22000},
		{"Focus", "Ford", 9200},
	}
	r := relation.New(testSchema())
	for i := 0; i < n; i++ {
		m := models[rng.Intn(len(models))]
		if onlyModel != "" {
			for _, cand := range models {
				if cand.model == onlyModel {
					m = cand
				}
			}
		}
		price := (m.price + float64(rng.Intn(2000))) * priceScale
		r.Append(relation.Tuple{
			relation.Cat(m.model), relation.Cat(m.mk), relation.Numv(price),
		})
	}
	return r
}

func TestBuildProfileSketches(t *testing.T) {
	rel := genRel(1000, 1, 1, "")
	p := BuildProfile(rel, []int{0})
	if p.SampleSize != 1000 {
		t.Fatalf("SampleSize = %d", p.SampleSize)
	}
	if len(p.Attrs) != 3 {
		t.Fatalf("attrs = %d", len(p.Attrs))
	}
	model := p.Attrs[0]
	if model.Count != 1000 || model.Nulls != 0 {
		t.Errorf("Model count/nulls = %d/%d", model.Count, model.Nulls)
	}
	total := 0
	for _, c := range model.Freq {
		total += c
	}
	if total+model.Other != 1000 {
		t.Errorf("Model freq sums to %d", total+model.Other)
	}
	price := p.Attrs[2]
	if len(price.Edges) != len(price.Counts)+1 {
		t.Fatalf("edges/counts = %d/%d", len(price.Edges), len(price.Counts))
	}
	binned := 0
	for _, c := range price.Counts {
		binned += c
	}
	if binned != 1000 {
		t.Errorf("Price bins sum to %d", binned)
	}
	if price.Mean <= 0 || price.Std <= 0 || price.Min >= price.Max {
		t.Errorf("Price moments: mean=%g std=%g min=%g max=%g", price.Mean, price.Std, price.Min, price.Max)
	}
	// Model is unique per tuple? No — Model is a key only jointly; but
	// Model→Make is exact, so {Model, Make} has the same g3 as {Model}.
	if got, want := p.KeyError, KeyError(rel, []int{0, 1}); got != want {
		t.Errorf("KeyError({Model}) = %g, KeyError({Model,Make}) = %g; Model→Make exact so they must match", got, want)
	}
}

func TestCapFreqPoolsTail(t *testing.T) {
	freq := map[string]int{"a": 10, "b": 8, "c": 5, "d": 2, "e": 1}
	kept, other := capFreq(freq, 3)
	if len(kept) != 3 || other != 3 {
		t.Fatalf("kept=%v other=%d", kept, other)
	}
	if _, ok := kept["a"]; !ok {
		t.Errorf("most frequent value dropped: %v", kept)
	}
}

func TestCompareStableSample(t *testing.T) {
	base := genRel(2000, 1, 1, "")
	p := BuildProfile(base, []int{0})
	fresh := genRel(2000, 99, 1, "") // same distribution, new draw
	rep, err := Compare(p, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxPSI >= 0.1 {
		t.Errorf("stable redraw PSI = %g (attr %s), want < 0.1", rep.MaxPSI, rep.MaxPSIAttr)
	}
	if got := rep.Shifted(0.25); len(got) != 0 {
		t.Errorf("stable redraw flagged %v", got)
	}
	if math.Abs(rep.KeyErrorDelta) > 0.05 {
		t.Errorf("key error delta %g on a stable redraw", rep.KeyErrorDelta)
	}
}

func TestCompareDetectsShift(t *testing.T) {
	base := genRel(2000, 1, 1, "")
	p := BuildProfile(base, []int{0})

	// Price scaled 2x: every observation leaves its baseline bin.
	priced, err := Compare(p, genRel(2000, 5, 2, ""))
	if err != nil {
		t.Fatal(err)
	}
	var pricePSI, modelPSI float64
	for _, a := range priced.Attrs {
		switch a.Name {
		case "Price":
			pricePSI = a.PSI
		case "Model":
			modelPSI = a.PSI
		}
	}
	if pricePSI < 0.25 {
		t.Errorf("2x price shift PSI = %g, want >= 0.25", pricePSI)
	}
	if modelPSI >= 0.1 {
		t.Errorf("untouched Model attr PSI = %g", modelPSI)
	}
	if shifted := priced.Shifted(0.25); len(shifted) == 0 || shifted[0] != "Price" {
		t.Errorf("Shifted = %v, want Price first", shifted)
	}

	// Category collapse: only Camry left — Model and Make both shift.
	collapsed, err := Compare(p, genRel(2000, 6, 1, "Camry"))
	if err != nil {
		t.Fatal(err)
	}
	shifted := collapsed.Shifted(0.25)
	found := map[string]bool{}
	for _, name := range shifted {
		found[name] = true
	}
	if !found["Model"] || !found["Make"] {
		t.Errorf("collapse flagged %v, want Model and Make", shifted)
	}
}

func TestCompareNullRateDelta(t *testing.T) {
	base := genRel(500, 1, 1, "")
	p := BuildProfile(base, nil)
	fresh := genRel(500, 2, 1, "")
	// Null out half the Make values.
	for i, tup := range fresh.Tuples() {
		if i%2 == 0 {
			tup[1] = relation.Value{Null: true}
		}
	}
	rep, err := Compare(p, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if d := rep.Attrs[1].NullRateDelta; d < 0.4 || d > 0.6 {
		t.Errorf("Make null-rate delta = %g, want ~0.5", d)
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	p := BuildProfile(genRel(100, 1, 1, ""), nil)
	other := relation.New(relation.MustSchema(
		relation.Attribute{Name: "X", Type: relation.Categorical},
	))
	if _, err := Compare(p, other); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestMonitorTickAndBreach(t *testing.T) {
	base := genRel(2000, 1, 1, "")
	profile := BuildProfile(base, []int{0})
	profile.Pivot = "Model"

	sw := webdb.NewSwap(webdb.NewLocal(genRel(2000, 11, 1, "")))
	mon := NewMonitor(sw, profile, MonitorConfig{SampleLimit: 1500})
	var breached *Report
	mon.OnBreach = func(r *Report) { breached = r }

	rep, err := mon.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxPSI >= 0.25 {
		t.Fatalf("healthy tick MaxPSI = %g", rep.MaxPSI)
	}
	if breached != nil {
		t.Fatal("healthy tick fired OnBreach")
	}

	sw.Set(webdb.NewLocal(genRel(2000, 12, 2.5, "")))
	rep, err = mon.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxPSI < 0.25 {
		t.Fatalf("shifted tick MaxPSI = %g, want >= 0.25", rep.MaxPSI)
	}
	if breached == nil {
		t.Fatal("shifted tick did not fire OnBreach")
	}

	st := mon.Status()
	if st.Ticks != 2 || st.Breaches != 1 || st.Errors != 0 {
		t.Errorf("status = %+v", st)
	}
	if st.Last == nil || st.Last.MaxPSI != rep.MaxPSI {
		t.Errorf("status.Last = %+v", st.Last)
	}
}
