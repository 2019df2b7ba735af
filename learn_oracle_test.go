package aimq

import (
	"fmt"
	"testing"

	"aimq/internal/datagen"
	"aimq/internal/experiments"
	"aimq/internal/model"
	"aimq/internal/service"
	"aimq/internal/webdb"
)

// TestEntryPointsShareFingerprint pins the offline phase across its three
// entry points: the public DB.Learn, the service's BuildModel and the
// experiments pipeline over the DB's probed sample must learn the same
// model under the default config. The fingerprints are literals, so a
// change that shifts all three entry points together still fails here.
func TestEntryPointsShareFingerprint(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{
		{3000, "4e16ca737c3714f0"},
		{8000, "b916fb50d427e340"},
	} {
		t.Run(fmt.Sprint(tc.n), func(t *testing.T) {
			rel := datagen.GenerateCarDB(tc.n, 7).Rel
			db := Open(rel)
			if err := db.Learn(); err != nil {
				t.Fatalf("DB.Learn: %v", err)
			}
			if got := model.Capture(db.ord, db.est).Fingerprint(); got != tc.want {
				t.Errorf("DB.Learn fingerprint %s, want %s", got, tc.want)
			}

			m, err := service.BuildModel(webdb.NewLocal(rel), service.LearnConfig{})
			if err != nil {
				t.Fatalf("BuildModel: %v", err)
			}
			if got := m.Info().Fingerprint; got != tc.want {
				t.Errorf("BuildModel fingerprint %s, want %s", got, tc.want)
			}

			pipe, err := experiments.BuildPipeline(db.Sample(), 0.15, 0)
			if err != nil {
				t.Fatalf("experiments pipeline: %v", err)
			}
			if got := model.Capture(pipe.Ord, pipe.Est).Fingerprint(); got != tc.want {
				t.Errorf("experiments fingerprint %s, want %s", got, tc.want)
			}
		})
	}
}
