package aimq

import (
	"errors"
	"math"
	"strings"
	"testing"

	"aimq/internal/datagen"
	"aimq/internal/model"
	"aimq/internal/service"
	"aimq/internal/webdb"
)

func TestSaveLoadModelRoundTrip(t *testing.T) {
	db, gen := learnedCarDB(t, 3000)
	path := t.TempDir() + "/model.json"
	if err := db.SaveModel(path); err != nil {
		t.Fatalf("SaveModel: %v", err)
	}

	// A fresh session over the same source loads the model and answers
	// identically, without Learn.
	fresh := Open(gen.Rel, WithSeed(11))
	if err := fresh.LoadModel(path); err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	if !fresh.Learned() {
		t.Fatalf("Learned false after LoadModel")
	}

	const q = "Model like Camry, Price like 9000"
	a, err := db.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("answer count differs: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if math.Abs(a.Rows[i].Similarity-b.Rows[i].Similarity) > 1e-12 {
			t.Errorf("row %d similarity differs: %v vs %v", i, a.Rows[i].Similarity, b.Rows[i].Similarity)
		}
		for j := range a.Rows[i].Values {
			if a.Rows[i].Values[j] != b.Rows[i].Values[j] {
				t.Errorf("row %d value %d differs", i, j)
			}
		}
	}

	// Introspection that survives persistence.
	ka, _, _ := db.BestKey()
	kb, _, err := fresh.BestKey()
	if err != nil || strings.Join(ka, ",") != strings.Join(kb, ",") {
		t.Errorf("best key differs after load: %v vs %v (%v)", ka, kb, err)
	}
	sa, _ := db.SimilarValues("Make", "Ford", 3)
	sb, err := fresh.SimilarValues("Make", "Ford", 3)
	if err != nil || len(sa) != len(sb) {
		t.Fatalf("SimilarValues after load: %v, %v", sb, err)
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Errorf("similar value %d differs", i)
		}
	}

	// Supertuples are not persisted — clear error, not a panic.
	if _, err := fresh.SuperTuple("Make", "Ford", 3); err == nil || !strings.Contains(err.Error(), "LoadModel") {
		t.Errorf("SuperTuple after LoadModel = %v", err)
	}
	// Feedback still works on the restored model.
	row := []string{"Honda", "Accord", "2000", "9100", "70000", "Phoenix", "White"}
	if err := fresh.Feedback("Model like Camry", row, true); err != nil {
		t.Errorf("Feedback after LoadModel: %v", err)
	}
}

func TestSaveModelBeforeLearn(t *testing.T) {
	db := Open(datagen.GenerateCarDB(100, 5).Rel)
	if err := db.SaveModel(t.TempDir() + "/m.json"); !errors.Is(err, ErrNotLearned) {
		t.Errorf("SaveModel before Learn = %v", err)
	}
}

func TestLoadModelSchemaMismatch(t *testing.T) {
	db, _ := learnedCarDB(t, 800)
	path := t.TempDir() + "/model.json"
	if err := db.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	census := Open(datagen.GenerateCensusDB(100, 6).Rel)
	if err := census.LoadModel(path); err == nil {
		t.Errorf("cross-schema model load accepted")
	}
	if err := db.LoadModel(path + ".missing"); err == nil {
		t.Errorf("missing model file accepted")
	}
}

// TestSaveModelCarriesProvenance: a model learned through the public API
// and saved with SaveModel carries the learn run's provenance and drift
// baseline, so a serving process that loads it can monitor it for drift.
// Saves after adaptation capture the adapted artifacts under the same
// provenance, and a LoadModel → SaveModel round trip keeps it.
func TestSaveModelCarriesProvenance(t *testing.T) {
	gen := datagen.GenerateCarDB(3000, 7)
	db := Open(gen.Rel)
	if err := db.Learn(); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.json"
	if err := db.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	m, err := service.LoadOrBuildModel(path, webdb.NewLocal(gen.Rel), service.LearnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Built {
		t.Fatal("LoadOrBuildModel re-learned instead of loading the saved model")
	}
	snap := m.Snap
	if snap.Drift == nil || snap.LearnedAtUnix == 0 || snap.SampleSize != db.Sample().Size() || snap.Pivot == "" {
		t.Errorf("saved provenance incomplete: learned_at %d, sample %d (want %d), pivot %q, drift %v",
			snap.LearnedAtUnix, snap.SampleSize, db.Sample().Size(), snap.Pivot, snap.Drift != nil)
	}
	if got, want := m.Info().Fingerprint, model.Capture(db.ord, db.est).Fingerprint(); got != want {
		t.Errorf("loaded fingerprint %s, DB's %s", got, want)
	}

	// Adapt, save again: the adapted weights are saved, the provenance kept.
	for i := 0; i < 5; i++ {
		if _, err := db.Ask("Color like Red"); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AdaptToWorkload(0.5); err != nil {
		t.Fatal(err)
	}
	adapted := model.Capture(db.ord, db.est)
	if err := db.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	saved, err := model.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if saved.Fingerprint() != adapted.Fingerprint() || saved.Fingerprint() == snap.Fingerprint() {
		t.Errorf("save after AdaptToWorkload did not capture the adapted model")
	}
	if saved.Provenance.LearnedAtUnix != snap.LearnedAtUnix || saved.Drift == nil {
		t.Errorf("save after AdaptToWorkload lost the provenance")
	}

	// LoadModel then SaveModel keeps the loaded provenance.
	fresh := Open(gen.Rel)
	if err := fresh.LoadModel(path); err != nil {
		t.Fatal(err)
	}
	again := t.TempDir() + "/again.json"
	if err := fresh.SaveModel(again); err != nil {
		t.Fatal(err)
	}
	resaved, err := model.Load(again)
	if err != nil {
		t.Fatal(err)
	}
	if resaved.Pivot != snap.Pivot || resaved.SampleSize != snap.SampleSize ||
		resaved.LearnedAtUnix != snap.LearnedAtUnix || resaved.Drift == nil {
		t.Errorf("LoadModel → SaveModel dropped the provenance: %+v", resaved.Provenance)
	}
}
