// Package drift detects distribution shift between the probe sample a model
// was learned from and the source's current contents.
//
// At learn time, BuildProfile snapshots per-attribute distribution sketches
// from the probe sample: categorical frequency tables (capped, with an
// "other" bucket), equi-width numeric histograms with moments, and null
// rates, plus the g3 error of the mined best key re-measured on the same
// sample. The profile is persisted inside the model artifact
// (internal/model), so any process serving the model can later re-probe the
// source and ask "is this still the distribution the model was learned
// for?" — the delta detection the online-model-refresh direction needs
// before a re-learn loop is safe.
//
// Compare aligns a fresh sample against the baseline's bins (the baseline's
// category set and histogram edges, never the fresh sample's own) and
// reports, per attribute, the Population Stability Index, a chi-square
// statistic and the null-rate delta, plus the best key's g3 error
// recomputed on the fresh sample. PSI's conventional thresholds apply:
// < 0.10 stable, 0.10–0.25 moderate shift, > 0.25 major shift (see
// docs/OBSERVABILITY.md for how the monitor maps these onto alerts).
package drift

import (
	"fmt"
	"math"
	"sort"

	"aimq/internal/partition"
	"aimq/internal/relation"
)

// Sketch bounds, sized for web-database schemas (tens of categories,
// smooth numerics): a categorical frequency table keeps its maxCategories
// most frequent values and pools the rest into the "other" bucket; a
// numeric attribute gets histBins equi-width bins.
const (
	maxCategories = 64
	histBins      = 20
)

// AttrSketch is one attribute's distribution snapshot. Exactly one of
// Freq/Other (categorical) or Edges/Counts plus the moments (numeric) is
// populated.
type AttrSketch struct {
	Name  string `json:"name"`
	Type  string `json:"type"`
	Count int    `json:"count"` // non-null observations
	Nulls int    `json:"nulls"`

	// Categorical: value → count for the most frequent values, the rest
	// pooled in Other.
	Freq  map[string]int `json:"freq,omitempty"`
	Other int            `json:"other,omitempty"`

	// Numeric: equi-width histogram over [Edges[0], Edges[len-1]];
	// len(Counts) == len(Edges)-1. Observations outside the range clamp
	// into the boundary bins (the baseline's range is the reference frame).
	Edges  []float64 `json:"edges,omitempty"`
	Counts []int     `json:"counts,omitempty"`
	Mean   float64   `json:"mean,omitempty"`
	Std    float64   `json:"std,omitempty"`
	Min    float64   `json:"min,omitempty"`
	Max    float64   `json:"max,omitempty"`
}

// Profile is the distribution snapshot of one probe sample — the drift
// baseline stored inside the model artifact.
type Profile struct {
	SampleSize int          `json:"sample_size"`
	Attrs      []AttrSketch `json:"attrs"`
	// KeyAttrs / KeyError pin the mined best key and its g3 error measured
	// on this sample; Compare re-measures the same key on fresh samples, so
	// the delta is an AFD-confidence shift, not a mining artifact.
	KeyAttrs []int   `json:"key_attrs,omitempty"`
	KeyError float64 `json:"key_error"`
	// Pivot is the probing pivot the sample was collected with, so a
	// monitor can re-probe the source the same way.
	Pivot string `json:"pivot,omitempty"`
}

// BuildProfile sketches every attribute of rel and measures keyAttrs' g3
// error on it. rel is typically the probe sample the model was mined from.
func BuildProfile(rel *relation.Relation, keyAttrs []int) *Profile {
	sc := rel.Schema()
	p := &Profile{
		SampleSize: rel.Size(),
		Attrs:      make([]AttrSketch, sc.Arity()),
		KeyAttrs:   append([]int(nil), keyAttrs...),
	}
	for a := 0; a < sc.Arity(); a++ {
		p.Attrs[a] = sketchAttr(rel, a)
	}
	p.KeyError = KeyError(rel, keyAttrs)
	return p
}

func sketchAttr(rel *relation.Relation, attr int) AttrSketch {
	sc := rel.Schema()
	s := AttrSketch{Name: sc.Attr(attr).Name, Type: sc.Type(attr).String()}
	if sc.Type(attr) == relation.Categorical {
		freq := map[string]int{}
		for _, t := range rel.Tuples() {
			v := t[attr]
			if v.IsNull() {
				s.Nulls++
				continue
			}
			s.Count++
			freq[v.Str]++
		}
		s.Freq, s.Other = capFreq(freq, maxCategories)
		return s
	}

	// Numeric: one pass for range and moments, one to bin.
	min, max := math.Inf(1), math.Inf(-1)
	var sum, sumSq float64
	for _, t := range rel.Tuples() {
		v := t[attr]
		if v.IsNull() {
			s.Nulls++
			continue
		}
		s.Count++
		min = math.Min(min, v.Num)
		max = math.Max(max, v.Num)
		sum += v.Num
		sumSq += v.Num * v.Num
	}
	if s.Count == 0 {
		return s
	}
	s.Min, s.Max = min, max
	s.Mean = sum / float64(s.Count)
	if variance := sumSq/float64(s.Count) - s.Mean*s.Mean; variance > 0 {
		s.Std = math.Sqrt(variance)
	}
	s.Edges = equiWidthEdges(min, max, histBins)
	s.Counts = make([]int, len(s.Edges)-1)
	for _, t := range rel.Tuples() {
		if v := t[attr]; !v.IsNull() {
			s.Counts[binIndex(s.Edges, v.Num)]++
		}
	}
	return s
}

// capFreq keeps the top-max entries of freq (ties broken by value for
// determinism) and pools the rest into other.
func capFreq(freq map[string]int, max int) (map[string]int, int) {
	if len(freq) <= max {
		return freq, 0
	}
	type vc struct {
		v string
		c int
	}
	all := make([]vc, 0, len(freq))
	for v, c := range freq {
		all = append(all, vc{v, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].v < all[j].v
	})
	kept := make(map[string]int, max)
	other := 0
	for i, e := range all {
		if i < max {
			kept[e.v] = e.c
		} else {
			other += e.c
		}
	}
	return kept, other
}

// equiWidthEdges returns bins+1 ascending edges spanning [min,max]; a
// degenerate (constant) attribute gets a single unit-width bin around it.
func equiWidthEdges(min, max float64, bins int) []float64 {
	if max <= min {
		return []float64{min - 0.5, min + 0.5}
	}
	edges := make([]float64, bins+1)
	width := (max - min) / float64(bins)
	for i := range edges {
		edges[i] = min + float64(i)*width
	}
	edges[bins] = max
	return edges
}

// binIndex places v into the histogram defined by edges, clamping values
// outside the baseline range into the boundary bins.
func binIndex(edges []float64, v float64) int {
	n := len(edges) - 1
	i := sort.SearchFloat64s(edges[1:], v)
	if i >= n {
		i = n - 1
	}
	return i
}

// KeyError measures the g3 error of keyAttrs as a key of rel (0 = exact
// key). Empty keyAttrs or an empty relation yield 0.
func KeyError(rel *relation.Relation, keyAttrs []int) float64 {
	if len(keyAttrs) == 0 || rel.Size() == 0 {
		return 0
	}
	p := partition.Single(rel, keyAttrs[0])
	if len(keyAttrs) > 1 {
		scratch := partition.NewScratch(rel.Size())
		for _, a := range keyAttrs[1:] {
			p = partition.Product(p, partition.Single(rel, a), scratch)
		}
	}
	return p.G3Key()
}

// AttrReport is one attribute's divergence between the baseline profile and
// a fresh sample.
type AttrReport struct {
	Name string `json:"name"`
	Type string `json:"type"`
	// PSI is the Population Stability Index between the baseline and fresh
	// distributions over the baseline's bins. Conventional reading:
	// < 0.10 stable, 0.10–0.25 moderate shift, > 0.25 major shift.
	PSI float64 `json:"psi"`
	// ChiSquare is Σ (observed-expected)²/expected over the same bins, with
	// expected counts derived from the baseline proportions at the fresh
	// sample size.
	ChiSquare float64 `json:"chi_square"`
	// NullRateDelta is fresh null rate minus baseline null rate.
	NullRateDelta float64 `json:"null_rate_delta"`
	// TopShift names the single bin/category whose probability moved most,
	// as "value:+0.12"-style human-readable provenance.
	TopShift string `json:"top_shift,omitempty"`
}

// Report is the outcome of one baseline-vs-fresh comparison.
type Report struct {
	SampleSize int          `json:"sample_size"` // fresh sample size
	Attrs      []AttrReport `json:"attrs"`
	MaxPSI     float64      `json:"max_psi"`
	MaxPSIAttr string       `json:"max_psi_attr,omitempty"`
	// KeyError is the best key's g3 error on the fresh sample;
	// KeyErrorDelta is KeyError minus the baseline's. A positive delta
	// means the mined key's confidence is decaying as the source shifts.
	KeyError      float64 `json:"key_error"`
	KeyErrorDelta float64 `json:"key_error_delta"`
}

// Shifted returns the attribute names whose PSI meets or exceeds the
// threshold, worst first.
func (r *Report) Shifted(threshold float64) []string {
	type as struct {
		name string
		psi  float64
	}
	var hits []as
	for _, a := range r.Attrs {
		if a.PSI >= threshold {
			hits = append(hits, as{a.Name, a.PSI})
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].psi > hits[j].psi })
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.name
	}
	return out
}

// psiEpsilon floors bin probabilities so empty bins cannot produce infinite
// PSI terms — the standard smoothing for the index.
const psiEpsilon = 1e-4

// Compare measures how far rel's distribution has moved from the baseline:
// rel is binned against the baseline's categories and histogram edges
// (never its own), then PSI, chi-square and null-rate deltas are computed
// per attribute, and the baseline's best key g3 error is re-measured on
// rel. The relation must have the schema the profile was built from.
func Compare(baseline *Profile, rel *relation.Relation) (*Report, error) {
	sc := rel.Schema()
	if sc.Arity() != len(baseline.Attrs) {
		return nil, fmt.Errorf("drift: sample has %d attributes, baseline %d", sc.Arity(), len(baseline.Attrs))
	}
	rep := &Report{SampleSize: rel.Size(), Attrs: make([]AttrReport, 0, sc.Arity())}
	for a := 0; a < sc.Arity(); a++ {
		base := &baseline.Attrs[a]
		if got := sc.Attr(a).Name; got != base.Name {
			return nil, fmt.Errorf("drift: attribute %d is %q in sample, %q in baseline", a, got, base.Name)
		}
		ar := compareAttr(base, rel, a)
		rep.Attrs = append(rep.Attrs, ar)
		if ar.PSI > rep.MaxPSI {
			rep.MaxPSI, rep.MaxPSIAttr = ar.PSI, ar.Name
		}
	}
	rep.KeyError = KeyError(rel, baseline.KeyAttrs)
	rep.KeyErrorDelta = rep.KeyError - baseline.KeyError
	return rep, nil
}

func compareAttr(base *AttrSketch, rel *relation.Relation, attr int) AttrReport {
	ar := AttrReport{Name: base.Name, Type: base.Type}
	baseCounts, freshCounts, labels := alignedCounts(base, rel, attr)

	nulls, nonNull := 0, 0
	for _, t := range rel.Tuples() {
		if t[attr].IsNull() {
			nulls++
		} else {
			nonNull++
		}
	}
	baseTotal := base.Count + base.Nulls
	freshTotal := nulls + nonNull
	if baseTotal > 0 && freshTotal > 0 {
		ar.NullRateDelta = float64(nulls)/float64(freshTotal) - float64(base.Nulls)/float64(baseTotal)
	}

	baseSum, freshSum := 0, 0
	for i := range baseCounts {
		baseSum += baseCounts[i]
		freshSum += freshCounts[i]
	}
	if baseSum == 0 || freshSum == 0 {
		return ar
	}
	var maxShift float64
	for i := range baseCounts {
		p := math.Max(float64(baseCounts[i])/float64(baseSum), psiEpsilon)
		q := math.Max(float64(freshCounts[i])/float64(freshSum), psiEpsilon)
		ar.PSI += (q - p) * math.Log(q/p)
		expected := p * float64(freshSum)
		diff := float64(freshCounts[i]) - expected
		ar.ChiSquare += diff * diff / expected
		if shift := q - p; math.Abs(shift) > math.Abs(maxShift) {
			maxShift = shift
			ar.TopShift = fmt.Sprintf("%s:%+.3f", labels[i], shift)
		}
	}
	return ar
}

// alignedCounts bins rel[attr] against the baseline sketch's reference
// frame and returns (baseline counts, fresh counts, bin labels), index-
// aligned. Categorical values absent from the baseline table land in the
// "other" bucket; numeric values bin against the baseline edges.
func alignedCounts(base *AttrSketch, rel *relation.Relation, attr int) (bc, fc []int, labels []string) {
	if base.Freq != nil || base.Type == relation.Categorical.String() {
		values := make([]string, 0, len(base.Freq))
		for v := range base.Freq {
			values = append(values, v)
		}
		sort.Strings(values)
		idx := make(map[string]int, len(values))
		bc = make([]int, len(values)+1)
		fc = make([]int, len(values)+1)
		labels = make([]string, len(values)+1)
		for i, v := range values {
			idx[v] = i
			bc[i] = base.Freq[v]
			labels[i] = v
		}
		other := len(values)
		bc[other] = base.Other
		labels[other] = "(other)"
		for _, t := range rel.Tuples() {
			v := t[attr]
			if v.IsNull() {
				continue
			}
			if i, ok := idx[v.Str]; ok {
				fc[i]++
			} else {
				fc[other]++
			}
		}
		return bc, fc, labels
	}

	if len(base.Edges) < 2 {
		return nil, nil, nil // baseline saw no numeric values
	}
	n := len(base.Edges) - 1
	bc = append([]int(nil), base.Counts...)
	fc = make([]int, n)
	labels = make([]string, n)
	for i := 0; i < n; i++ {
		labels[i] = fmt.Sprintf("[%.4g,%.4g)", base.Edges[i], base.Edges[i+1])
	}
	for _, t := range rel.Tuples() {
		if v := t[attr]; !v.IsNull() {
			fc[binIndex(base.Edges, v.Num)]++
		}
	}
	return bc, fc, labels
}
