package aimq

import (
	"fmt"

	"aimq/internal/model"
)

// SaveModel persists the learned model (attribute ordering, importance
// weights and mined value similarities) as JSON, so future sessions can
// LoadModel instead of re-running the offline Learn phase. It saves the
// current artifacts, including any AdaptToWorkload or Feedback changes,
// with the provenance and drift baseline of the learn run (or of the
// loaded snapshot), so aimq-serve can monitor the saved model for drift.
func (db *DB) SaveModel(path string) error {
	if !db.Learned() {
		return ErrNotLearned
	}
	snap := model.Capture(db.ord, db.est)
	snap.Provenance = db.prov
	return model.Save(path, snap)
}

// LoadModel restores a model saved by SaveModel, skipping Learn. The
// model's schema must match the source's. After LoadModel the session
// answers queries and accepts feedback as usual; only the supertuple
// diagnostics (SuperTuple) are unavailable, because the snapshot stores the
// distilled similarities rather than the raw co-occurrence bags — call
// Learn if you need them.
func (db *DB) LoadModel(path string) error {
	snap, err := model.Load(path)
	if err != nil {
		return err
	}
	ord, est, err := snap.Restore(db.Schema())
	if err != nil {
		return fmt.Errorf("aimq: %w", err)
	}
	db.ord, db.est, db.prov, db.probed = ord, est, snap.Provenance, nil
	return nil
}
