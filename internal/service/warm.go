package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"aimq/internal/query"
)

// CacheSnapshot is the persisted hot-key set of the answer cache: for each
// cached answer, just enough to replay its computation — the normalized
// query text plus the effective k and Tsim. Saved alongside the model at
// shutdown and replayed at startup, it lets a restarted service come up
// with a warm cache instead of paying a relaxation run per hot query.
type CacheSnapshot struct {
	Version int                  `json:"version"`
	Entries []CacheSnapshotEntry `json:"entries"`
}

// CacheSnapshotEntry identifies one cached answer.
type CacheSnapshotEntry struct {
	Query string  `json:"query"`
	K     int     `json:"k"`
	Tsim  float64 `json:"tsim"`
}

// cacheSnapshotVersion is the format version written by SnapshotCache.
const cacheSnapshotVersion = 1

// SnapshotCache captures up to max hot keys (most recently used first;
// max <= 0 captures everything cached).
func (s *Service) SnapshotCache(max int) CacheSnapshot {
	payloads := s.cache.hottest(max)
	snap := CacheSnapshot{Version: cacheSnapshotVersion, Entries: make([]CacheSnapshotEntry, 0, len(payloads))}
	for _, p := range payloads {
		if p.queryText == "" {
			continue // not replayable; skip rather than poison the snapshot
		}
		snap.Entries = append(snap.Entries, CacheSnapshotEntry{Query: p.queryText, K: p.K, Tsim: p.Tsim})
	}
	return snap
}

// WarmCache recomputes and caches every snapshot entry that is not already
// cached, in snapshot order (hottest first), stopping early when ctx is
// done. Each entry's k and Tsim resolve exactly as a request's do (k
// clamped to MaxK), so a warmed entry is the one that request hits.
// Entries that no longer parse against the served schema, carry an invalid
// k or Tsim, or whose computation fails are skipped — a stale snapshot must
// never prevent startup. Returns how many entries were computed into the
// cache.
func (s *Service) WarmCache(ctx context.Context, snap CacheSnapshot) (int, error) {
	warmed := 0
	for _, e := range snap.Entries {
		if err := ctx.Err(); err != nil {
			return warmed, err
		}
		q, err := query.Parse(s.src.Schema(), e.Query)
		if err != nil || len(q.Preds) == 0 {
			continue
		}
		k, tsim, err := s.bounds(&answerRequest{K: e.K, Tsim: e.Tsim})
		if err != nil {
			continue
		}
		pack := s.currentPack()
		key := pack.keyPrefix + cacheKey(q, k, tsim)
		if s.cache.Contains(key) {
			continue
		}
		p, err := s.computeWith(ctx, pack, q, k, tsim, "", false)
		if err != nil {
			if ctx.Err() != nil {
				return warmed, ctx.Err()
			}
			continue
		}
		s.cache.Add(key, p)
		warmed++
	}
	return warmed, nil
}

// SaveCacheSnapshot writes a snapshot as JSON to path (atomically via a
// temp file in the same directory).
func SaveCacheSnapshot(path string, snap CacheSnapshot) error {
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("service: encoding cache snapshot: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCacheSnapshot reads a snapshot written by SaveCacheSnapshot.
func LoadCacheSnapshot(path string) (CacheSnapshot, error) {
	var snap CacheSnapshot
	b, err := os.ReadFile(path)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		return snap, fmt.Errorf("service: decoding cache snapshot %s: %w", path, err)
	}
	if snap.Version != cacheSnapshotVersion {
		return snap, fmt.Errorf("service: cache snapshot %s has version %d, want %d", path, snap.Version, cacheSnapshotVersion)
	}
	return snap, nil
}
