package service

import (
	"context"
	"fmt"
	"os"
	"time"

	"aimq/internal/afd"
	"aimq/internal/learn"
	"aimq/internal/model"
	"aimq/internal/obs"
	"aimq/internal/similarity"
	"aimq/internal/webdb"
)

// LearnConfig tunes the offline phase run at service startup when no saved
// model is available. It is learn.Config: zero values select the same
// defaults as the public aimq.DB session.
type LearnConfig = learn.Config

// Model bundles everything the offline phase produces: the learned
// artifacts the engine needs (ordering + estimator), the snapshot they
// serialize to (with provenance and the drift baseline), and — when the
// model was built in this process — the learning profile.
type Model struct {
	Ord *afd.Ordering
	Est *similarity.Estimator
	// Stats profiles the offline run; nil when the model was restored from
	// a snapshot (a restored model has no learning run to profile).
	Stats *obs.LearnStats
	// Snap is the serializable form, carrying provenance (learned-at,
	// sample size, pivot) and the drift baseline profile.
	Snap *model.Snapshot
	// Built reports whether the model was learned in this process (true)
	// or restored from a saved snapshot (false).
	Built bool
}

// ModelInfo is the model's identity card, surfaced by /healthz,
// /debug/learn, aimq_model_* metrics and every audit-log header.
type ModelInfo struct {
	Fingerprint   string `json:"fingerprint"`
	LearnedAtUnix int64  `json:"learned_at_unix,omitempty"`
	SampleSize    int    `json:"sample_size,omitempty"`
	Pivot         string `json:"pivot,omitempty"`
	Built         bool   `json:"built"`
}

// LearnedAt is the learn timestamp; zero when the snapshot predates
// provenance stamping.
func (i ModelInfo) LearnedAt() time.Time {
	if i.LearnedAtUnix == 0 {
		return time.Time{}
	}
	return time.Unix(i.LearnedAtUnix, 0)
}

// Info derives the identity card from the snapshot.
func (m *Model) Info() ModelInfo {
	info := ModelInfo{Built: m.Built}
	if m.Snap == nil {
		return info
	}
	info.Fingerprint = m.Snap.Fingerprint()
	info.LearnedAtUnix = m.Snap.LearnedAtUnix
	info.SampleSize = m.Snap.SampleSize
	info.Pivot = m.Snap.Pivot
	return info
}

// BuildModel runs AIMQ's offline phase against src (internal/learn) and
// keeps what serving needs: the ordering, the estimator, the LearnStats
// profile for /debug/learn, and the snapshot with provenance and the drift
// baseline. The probe sample and the mined dependency lists are dropped.
// Its probes run under context.Background(), so a learn started here
// cannot be cancelled: the perfbench module and lifecycle's rebuild
// function call this context-free signature.
func BuildModel(src webdb.Source, lc LearnConfig) (*Model, error) {
	m, err := learn.Build(context.Background(), src, lc)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	return &Model{Ord: m.Ord, Est: m.Est, Stats: m.Stats, Snap: m.Snap, Built: true}, nil
}

// LoadOrBuildModel restores the model snapshot at path when one exists;
// otherwise it runs BuildModel and, when path is non-empty, persists the
// result there so the next start skips the offline phase. The returned
// Model's Built field reports which branch was taken.
func LoadOrBuildModel(path string, src webdb.Source, lc LearnConfig) (*Model, error) {
	if path != "" {
		if _, statErr := os.Stat(path); statErr == nil {
			snap, err := model.Load(path)
			if err != nil {
				return nil, err
			}
			ord, est, err := snap.Restore(src.Schema())
			if err != nil {
				return nil, fmt.Errorf("service: %w", err)
			}
			return &Model{Ord: ord, Est: est, Snap: snap, Built: false}, nil
		}
	}
	m, err := BuildModel(src, lc)
	if err != nil {
		return nil, err
	}
	if path != "" {
		if err := model.Save(path, m.Snap); err != nil {
			return m, err
		}
	}
	return m, nil
}
