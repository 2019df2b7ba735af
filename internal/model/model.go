// Package model persists AIMQ's learned artifacts — the attribute ordering
// with importance weights and the mined value-similarity matrices — as a
// JSON snapshot, so an application can run the expensive offline phase once
// and reload the model across processes.
//
// The snapshot deliberately excludes the probed sample and the supertuple
// index: they are only needed to *build* the model (and for diagnostic
// introspection), not to answer queries.
package model

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"aimq/internal/afd"
	"aimq/internal/drift"
	"aimq/internal/relation"
	"aimq/internal/similarity"
	"aimq/internal/tane"
)

// Version identifies the snapshot format.
const Version = 1

// Snapshot is the serializable learned model.
type Snapshot struct {
	Version int `json:"version"`
	// Schema pins the relation shape the model was learned for; Restore
	// refuses to attach the model to a different schema.
	Schema []AttrJSON `json:"schema"`

	BestKeyAttrs []int        `json:"best_key_attrs"`
	BestKeyError float64      `json:"best_key_error"`
	Relax        []int        `json:"relax_order"`
	Wimp         []float64    `json:"wimp"`
	Dependent    []WeightJSON `json:"dependent"`
	Deciding     []WeightJSON `json:"deciding"`

	// Matrices maps attribute name → value → value → similarity.
	Matrices map[string]map[string]map[string]float64 `json:"matrices"`

	Provenance
}

// Provenance records where a model came from. It is optional: snapshots
// written before drift telemetry existed lack it, so all of it is omitempty
// and Restore ignores it. Embedded in Snapshot, its fields encode inline.
type Provenance struct {
	// LearnedAtUnix is when the offline phase produced this model.
	LearnedAtUnix int64 `json:"learned_at_unix,omitempty"`
	// SampleSize is how many probed tuples the model was mined from.
	SampleSize int `json:"sample_size,omitempty"`
	// Pivot is the probing pivot the sample was collected with.
	Pivot string `json:"pivot,omitempty"`
	// Drift is the probe sample's distribution baseline, enabling a serving
	// process to detect when the source has drifted away from the data the
	// model was learned on (internal/drift).
	Drift *drift.Profile `json:"drift,omitempty"`
}

// AttrJSON is one schema attribute.
type AttrJSON struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// WeightJSON is one group-weight entry of Algorithm 2's output.
type WeightJSON struct {
	Attr   int     `json:"attr"`
	Weight float64 `json:"weight"`
}

// Capture snapshots a learned ordering and estimator.
func Capture(ord *afd.Ordering, est *similarity.Estimator) *Snapshot {
	sc := ord.Schema
	s := &Snapshot{
		Version:      Version,
		BestKeyAttrs: ord.BestKey.Attrs.Members(),
		BestKeyError: ord.BestKey.Error,
		Relax:        append([]int(nil), ord.Relax...),
		Wimp:         append([]float64(nil), ord.Wimp...),
		Matrices:     make(map[string]map[string]map[string]float64),
	}
	for i := 0; i < sc.Arity(); i++ {
		a := sc.Attr(i)
		s.Schema = append(s.Schema, AttrJSON{Name: a.Name, Type: a.Type.String()})
	}
	for _, w := range ord.Dependent {
		s.Dependent = append(s.Dependent, WeightJSON{Attr: w.Attr, Weight: w.Weight})
	}
	for _, w := range ord.Deciding {
		s.Deciding = append(s.Deciding, WeightJSON{Attr: w.Attr, Weight: w.Weight})
	}
	for _, attr := range sc.Categorical() {
		s.Matrices[sc.Attr(attr).Name] = est.Matrix(attr)
	}
	return s
}

// Restore rebuilds the ordering and estimator for the given schema. The
// schema must match the snapshot's (names and types, in order).
func (s *Snapshot) Restore(sc *relation.Schema) (*afd.Ordering, *similarity.Estimator, error) {
	if s.Version != Version {
		return nil, nil, fmt.Errorf("model: snapshot version %d, want %d", s.Version, Version)
	}
	if err := s.checkSchema(sc); err != nil {
		return nil, nil, err
	}
	if len(s.Wimp) != sc.Arity() || len(s.Relax) != sc.Arity() {
		return nil, nil, fmt.Errorf("model: weight/order length %d/%d, schema arity %d",
			len(s.Wimp), len(s.Relax), sc.Arity())
	}
	seen := relation.AttrSet(0)
	for _, a := range s.Relax {
		if a < 0 || a >= sc.Arity() || seen.Has(a) {
			return nil, nil, fmt.Errorf("model: relax order is not a permutation: %v", s.Relax)
		}
		seen = seen.Add(a)
	}

	ord := &afd.Ordering{
		Schema: sc,
		BestKey: tane.AKey{
			Attrs: relation.NewAttrSet(s.BestKeyAttrs...),
			Error: s.BestKeyError,
		},
		Relax: append([]int(nil), s.Relax...),
		Wimp:  append([]float64(nil), s.Wimp...),
	}
	for _, w := range s.Dependent {
		ord.Dependent = append(ord.Dependent, afd.AttrWeight{Attr: w.Attr, Weight: w.Weight})
	}
	for _, w := range s.Deciding {
		ord.Deciding = append(ord.Deciding, afd.AttrWeight{Attr: w.Attr, Weight: w.Weight})
	}

	matrices := make(map[int]map[string]map[string]float64)
	for name, m := range s.Matrices {
		idx, ok := sc.Index(name)
		if !ok {
			return nil, nil, fmt.Errorf("model: matrix for unknown attribute %q", name)
		}
		if sc.Type(idx) != relation.Categorical {
			return nil, nil, fmt.Errorf("model: matrix for numeric attribute %q", name)
		}
		matrices[idx] = m
	}
	est := similarity.FromMatrices(sc, ord, matrices)
	return ord, est, nil
}

func (s *Snapshot) checkSchema(sc *relation.Schema) error {
	if len(s.Schema) != sc.Arity() {
		return fmt.Errorf("model: snapshot has %d attributes, schema has %d", len(s.Schema), sc.Arity())
	}
	for i, a := range s.Schema {
		got := sc.Attr(i)
		if got.Name != a.Name || got.Type.String() != a.Type {
			return fmt.Errorf("model: attribute %d is %s:%s in snapshot, %s:%s in schema",
				i, a.Name, a.Type, got.Name, got.Type)
		}
	}
	return nil
}

// Fingerprint is a stable short identity for the learned model function:
// an FNV-64a hash over the JSON encoding of the core learned artifacts
// (schema, best key, relaxation order, weights, similarity matrices) —
// deliberately excluding the provenance fields, so re-learning the
// identical model at a different time yields the identical fingerprint.
// encoding/json sorts map keys, so the encoding — and the hash — is
// deterministic. This is the "model version" surfaced in /healthz,
// /metrics (aimq_model_version) and every audit-log event.
func (s *Snapshot) Fingerprint() string {
	core := Snapshot{
		Version:      s.Version,
		Schema:       s.Schema,
		BestKeyAttrs: s.BestKeyAttrs,
		BestKeyError: s.BestKeyError,
		Relax:        s.Relax,
		Wimp:         s.Wimp,
		Dependent:    s.Dependent,
		Deciding:     s.Deciding,
		Matrices:     s.Matrices,
	}
	b, err := json.Marshal(&core)
	if err != nil {
		// Snapshot fields are all JSON-encodable; this cannot fail.
		return "unhashable"
	}
	h := fnv.New64a()
	_, _ = h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Write serializes the snapshot as indented JSON.
func (s *Snapshot) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("model: encode: %w", err)
	}
	return nil
}

// Read deserializes a snapshot. A truncated or empty stream — the telltale
// of a crash mid-save — is rejected with a distinct error rather than a
// generic decode failure, so a boot-time Load points straight at the cause.
func Read(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("model: snapshot is truncated or empty (interrupted save?): %w", err)
		}
		return nil, fmt.Errorf("model: decode: %w", err)
	}
	return &s, nil
}

// Save writes the snapshot to a file atomically: encode into a temp file in
// the same directory, then rename over path. Readers (and the next boot's
// Load) see either the old complete snapshot or the new complete snapshot,
// never a torn write.
func Save(path string, s *Snapshot) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("model: %w", err)
	}
	if err := s.Write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("model: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("model: %w", err)
	}
	return nil
}

// Load reads a snapshot from a file.
func Load(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// GenerationPath names the n-th kept previous snapshot beside path
// (path.1 is the most recent predecessor, path.2 the one before it, …).
func GenerationPath(path string, n int) string {
	return fmt.Sprintf("%s.%d", path, n)
}

// SaveKeep persists s at path atomically, first rotating any existing file
// into the numbered generation chain (path → path.1 → path.2 → …), keeping
// at most keep previous generations on disk. keep <= 0 degrades to a plain
// atomic Save with no history.
func SaveKeep(path string, s *Snapshot, keep int) error {
	if keep > 0 {
		if _, err := os.Stat(path); err == nil {
			os.Remove(GenerationPath(path, keep))
			for n := keep - 1; n >= 1; n-- {
				// Best-effort shift; a missing generation is normal early on.
				_ = os.Rename(GenerationPath(path, n), GenerationPath(path, n+1))
			}
			if err := os.Rename(path, GenerationPath(path, 1)); err != nil {
				return fmt.Errorf("model: rotate generations: %w", err)
			}
		}
	}
	return Save(path, s)
}

// Rollback restores the most recent kept generation (path.1) over path and
// shifts the remaining chain down (path.2 → path.1, …). The restored
// snapshot is decoded and validated before the current file is replaced, so
// a corrupt backup never clobbers a readable current snapshot. Returns the
// restored snapshot.
func Rollback(path string) (*Snapshot, error) {
	prev := GenerationPath(path, 1)
	snap, err := Load(prev)
	if err != nil {
		return nil, fmt.Errorf("model: rollback: %w", err)
	}
	if err := os.Rename(prev, path); err != nil {
		return nil, fmt.Errorf("model: rollback: %w", err)
	}
	for n := 2; ; n++ {
		if err := os.Rename(GenerationPath(path, n), GenerationPath(path, n-1)); err != nil {
			break
		}
	}
	return snap, nil
}
