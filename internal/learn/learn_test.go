package learn

import (
	"context"
	"slices"
	"testing"

	"aimq/internal/datagen"
	"aimq/internal/webdb"
)

func stageNames(m *Model) []string {
	var names []string
	for _, sp := range m.Stats.Stages {
		names = append(names, sp.Name)
	}
	return names
}

// TestBuildIsProbeThenFromSample: Build is exactly its two public halves,
// which is what aimq.DB relies on when it keeps the probed sample itself.
// Workers > 1 exercises every parallel stage under the race detector.
func TestBuildIsProbeThenFromSample(t *testing.T) {
	src := webdb.NewLocal(datagen.GenerateCarDB(2500, 3).Rel)
	cfg := Config{SampleSize: 1800, Workers: 4}
	built, err := Build(context.Background(), src, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sample, st, err := Probe(context.Background(), src, cfg)
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	cfg.Pivot = st.Pivot
	split, err := FromSample(sample, cfg)
	if err != nil {
		t.Fatalf("FromSample: %v", err)
	}
	if a, b := built.Snap.Fingerprint(), split.Snap.Fingerprint(); a != b {
		t.Errorf("Build fingerprint %s, Probe+FromSample %s", a, b)
	}
	if sample.Size() != 1800 || built.Snap.SampleSize != 1800 || built.Stats.SampleSize != 1800 {
		t.Errorf("sample cap ignored: probed %d, snapshot %d, stats %d",
			sample.Size(), built.Snap.SampleSize, built.Stats.SampleSize)
	}
	for _, m := range []*Model{built, split} {
		if m.Snap.Pivot != st.Pivot || m.Snap.Drift == nil || m.Snap.Drift.Pivot != st.Pivot || m.Snap.LearnedAtUnix == 0 {
			t.Errorf("snapshot provenance incomplete: %+v", m.Snap.Provenance)
		}
		if m.Mined == nil || len(m.Mined.AFDs) != m.Stats.AFDs || m.Est.Index == nil {
			t.Errorf("model parts missing: mined %v, index %v", m.Mined != nil, m.Est.Index != nil)
		}
	}
	if got, want := stageNames(built), []string{"probe", "sample", "mine", "order", "supertuple", "similarity", "snapshot"}; !slices.Equal(got, want) {
		t.Errorf("Build stages %v, want %v", got, want)
	}
	if got, want := stageNames(split), []string{"mine", "order", "supertuple", "similarity", "snapshot"}; !slices.Equal(got, want) {
		t.Errorf("FromSample stages %v, want %v", got, want)
	}
	if built.Stats.ProbedTuples == 0 || built.Stats.SpanningQueries == 0 || built.Stats.MineWorkers != 4 {
		t.Errorf("probe profile missing: %+v", built.Stats)
	}
}
