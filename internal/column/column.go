// Package column provides the columnar storage layer behind the simulated
// autonomous database: typed column chunks with dictionary-encoded
// categoricals, float64 numerics, per-chunk null bitmaps and min/max zone
// maps, per-value posting bitmaps for low-cardinality categorical
// attributes, and an exact-value index on every numeric attribute.
//
// A Store is an immutable column-oriented copy of a relation.Relation,
// built once and then read concurrently by the boolean query engine. The
// layout is designed around the engine's evaluation strategy:
//
//   - Categorical attributes are dictionary-encoded to dense uint32 codes.
//     For attributes whose cardinality stays at or below MaxPostingValues,
//     every code also gets a posting bitmap over all tuple positions, so an
//     equality predicate is a zero-scan bitmap fetch and an absent value
//     short-circuits the whole conjunction via the dictionary miss.
//   - Numeric attributes are stored as flat float64 slices with NaN standing
//     in for NULL — IEEE comparison semantics make NaN fail every range
//     predicate, which matches the query model's "null never satisfies a
//     predicate" rule for free. A NaN value is stored as NULL: it fails
//     every predicate too. Per-chunk min/max zone maps let range predicates
//     skip or blanket-accept whole chunks.
//   - Every numeric attribute also has an exact-value index: its non-null
//     positions sorted by (value, position), one uint32 per non-null row and
//     no per-value allocation. The rows equal to one value are a contiguous
//     run of it, in ascending position order, found by two binary searches
//     (Equal). An absent value is an empty run, which short-circuits the
//     conjunction the way a dictionary miss does. -0 and +0 are one value,
//     as they are under ==.
//   - Nulls are additionally tracked in one bitmap per column; chunk sizes
//     are multiples of 64 bits, so a chunk's null words are a zero-copy
//     subslice (the "per-chunk null bitmap" view).
//
// The scan kernels at the bottom of the file are the only per-row loops;
// everything above them works in whole words.
package column

import (
	"fmt"
	"math"
	"sort"

	"aimq/internal/bitmap"
	"aimq/internal/relation"
)

// DefaultChunkSize is the number of tuples per chunk: 4096 rows = 64 bitmap
// words, small enough that a chunk's floats fit in L1/L2 and large enough
// that zone-map metadata stays negligible.
const DefaultChunkSize = 4096

// MaxPostingValues caps the dictionary cardinality for which per-value
// posting bitmaps are materialized. Past it (high-cardinality categoricals)
// equality predicates fall back to dictionary-code chunk scans; posting
// memory is bounded at MaxPostingValues × one bit per tuple per attribute.
const MaxPostingValues = 512

// NullCode is the dictionary code standing in for NULL in a categorical
// code column. It never appears in the dictionary, so no predicate can
// match it.
const NullCode = ^uint32(0)

// Zone is the per-chunk summary of a numeric column: min/max over the
// chunk's non-null values and how many values are non-null. NonNull == 0
// means the chunk is all-NULL for the attribute (Min/Max meaningless).
type Zone struct {
	Min, Max float64
	NonNull  int
}

// column is one attribute's storage. Exactly one of the categorical or
// numeric representations is populated, per the schema type.
type column struct {
	// categorical
	dict     map[string]uint32
	values   []string // code -> value
	codes    []uint32 // per tuple; NullCode for NULL
	postings []*bitmap.Bitmap

	// numeric
	floats  []float64 // per tuple; NaN for NULL
	zones   []Zone    // per chunk
	byValue []uint32  // non-null positions sorted by (value, position)

	// both
	nulls    *bitmap.Bitmap // nil when the column has no NULLs
	nonNulls int
}

// Store is the immutable columnar image of a relation.
type Store struct {
	schema    *relation.Schema
	n         int
	chunkSize int
	numChunks int
	cols      []column
}

// Build constructs the columnar store for rel. chunkSize <= 0 selects
// DefaultChunkSize; other values must be positive multiples of 64 so chunk
// boundaries stay word-aligned.
func Build(rel *relation.Relation, chunkSize int) (*Store, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if chunkSize%bitmap.WordBits != 0 {
		return nil, fmt.Errorf("column: chunk size %d is not a multiple of %d", chunkSize, bitmap.WordBits)
	}
	sc := rel.Schema()
	n := rel.Size()
	s := &Store{
		schema:    sc,
		n:         n,
		chunkSize: chunkSize,
		numChunks: (n + chunkSize - 1) / chunkSize,
		cols:      make([]column, sc.Arity()),
	}
	tuples := rel.Tuples()
	for a := 0; a < sc.Arity(); a++ {
		if sc.Type(a) == relation.Categorical {
			s.cols[a] = buildCategorical(tuples, a, n)
		} else {
			s.cols[a] = buildNumeric(tuples, a, n, chunkSize, s.numChunks)
		}
	}
	return s, nil
}

// MustBuild is Build that panics on error; for statically known-good chunk
// sizes (the engine's default path).
func MustBuild(rel *relation.Relation, chunkSize int) *Store {
	s, err := Build(rel, chunkSize)
	if err != nil {
		panic(err)
	}
	return s
}

func buildCategorical(tuples []relation.Tuple, attr, n int) column {
	c := column{
		dict:  make(map[string]uint32),
		codes: make([]uint32, n),
	}
	for i, t := range tuples {
		v := t[attr]
		if v.IsNull() {
			c.codes[i] = NullCode
			if c.nulls == nil {
				c.nulls = bitmap.New(n)
			}
			c.nulls.Set(i)
			continue
		}
		code, ok := c.dict[v.Str]
		if !ok {
			code = uint32(len(c.values))
			c.dict[v.Str] = code
			c.values = append(c.values, v.Str)
		}
		c.codes[i] = code
		c.nonNulls++
	}
	if len(c.values) > 0 && len(c.values) <= MaxPostingValues {
		c.postings = make([]*bitmap.Bitmap, len(c.values))
		for code := range c.postings {
			c.postings[code] = bitmap.New(n)
		}
		for i, code := range c.codes {
			if code != NullCode {
				c.postings[code].Set(i)
			}
		}
	}
	return c
}

func buildNumeric(tuples []relation.Tuple, attr, n, chunkSize, numChunks int) column {
	c := column{
		floats: make([]float64, n),
		zones:  make([]Zone, numChunks),
	}
	nan := math.NaN()
	for i, t := range tuples {
		v := t[attr]
		if v.IsNull() || math.IsNaN(v.Num) {
			c.floats[i] = nan
			if c.nulls == nil {
				c.nulls = bitmap.New(n)
			}
			c.nulls.Set(i)
			continue
		}
		c.floats[i] = v.Num
		c.nonNulls++
		z := &c.zones[i/chunkSize]
		if z.NonNull == 0 {
			z.Min, z.Max = v.Num, v.Num
		} else {
			if v.Num < z.Min {
				z.Min = v.Num
			}
			if v.Num > z.Max {
				z.Max = v.Num
			}
		}
		z.NonNull++
	}
	c.byValue = sortByValue(c.floats, c.nonNulls)
	return c
}

// sortByValue returns the exact-value index of a float column: the non-NaN
// positions ordered by (value, position). Each value is mapped to a uint64
// whose unsigned order is the float order, and the keys are LSD radix
// sorted a byte at a time. Radix sorting is stable, so equal values keep
// their ascending position order; a pass is skipped when every key shares
// its byte, which on integral data is most of the high bytes. Only the
// positions are kept.
func sortByValue(floats []float64, nonNulls int) []uint32 {
	keys := make([]uint64, 0, nonNulls)
	pos := make([]uint32, 0, nonNulls)
	var counts [8][256]int
	for i, v := range floats {
		if math.IsNaN(v) {
			continue
		}
		if v == 0 {
			v = 0 // -0 == +0: one key for both zeros
		}
		k := math.Float64bits(v)
		if k>>63 != 0 {
			k = ^k // negative: larger magnitudes sort first
		} else {
			k |= 1 << 63
		}
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
		keys = append(keys, k)
		pos = append(pos, uint32(i))
	}
	if len(keys) < 2 {
		return pos
	}
	keys2 := make([]uint64, len(keys))
	pos2 := make([]uint32, len(pos))
	for d := range counts {
		c, shift := &counts[d], 8*uint(d)
		if c[byte(keys[0]>>shift)] == len(keys) {
			continue
		}
		sum := 0
		for b, n := range c {
			c[b], sum = sum, sum+n
		}
		for i, k := range keys {
			b := byte(k >> shift)
			keys2[c[b]], pos2[c[b]] = k, pos[i]
			c[b]++
		}
		keys, keys2 = keys2, keys
		pos, pos2 = pos2, pos
	}
	return pos
}

// Schema returns the store's schema.
func (s *Store) Schema() *relation.Schema { return s.schema }

// Len returns the number of tuples.
func (s *Store) Len() int { return s.n }

// ChunkSize returns the rows-per-chunk stride.
func (s *Store) ChunkSize() int { return s.chunkSize }

// NumChunks returns the number of chunks.
func (s *Store) NumChunks() int { return s.numChunks }

// ChunkBounds returns the [lo, hi) tuple-position range of chunk c.
func (s *Store) ChunkBounds(c int) (lo, hi int) {
	lo = c * s.chunkSize
	hi = lo + s.chunkSize
	if hi > s.n {
		hi = s.n
	}
	return lo, hi
}

// Code resolves a categorical value to its dictionary code. ok=false means
// the value never occurs in the column — the caller can short-circuit the
// whole query to an empty result.
func (s *Store) Code(attr int, value string) (uint32, bool) {
	code, ok := s.cols[attr].dict[value]
	return code, ok
}

// Cardinality returns the number of distinct non-null values of a
// categorical attribute.
func (s *Store) Cardinality(attr int) int { return len(s.cols[attr].values) }

// HasPostings reports whether attr carries per-value posting bitmaps.
func (s *Store) HasPostings(attr int) bool { return s.cols[attr].postings != nil }

// Posting returns the posting bitmap of one dictionary code (every tuple
// position where attr = value). nil when the attribute has no postings;
// the returned bitmap is shared and must not be mutated.
func (s *Store) Posting(attr int, code uint32) *bitmap.Bitmap {
	c := &s.cols[attr]
	if c.postings == nil {
		return nil
	}
	return c.postings[code]
}

// Codes returns the dictionary-code column of a categorical attribute
// (NullCode marks NULLs). Shared, read-only.
func (s *Store) Codes(attr int) []uint32 { return s.cols[attr].codes }

// Floats returns the float64 column of a numeric attribute (NaN marks
// NULLs). Shared, read-only.
func (s *Store) Floats(attr int) []float64 { return s.cols[attr].floats }

// Equal returns the positions whose value of numeric attr equals x, in
// ascending order: one run of the exact-value index, found by two binary
// searches. It is empty when no row holds x, and always for NaN. Shared,
// read-only.
func (s *Store) Equal(attr int, x float64) []uint32 {
	c := &s.cols[attr]
	idx, vals := c.byValue, c.floats
	lo := sort.Search(len(idx), func(i int) bool { return vals[idx[i]] >= x })
	n := sort.Search(len(idx)-lo, func(i int) bool { return vals[idx[lo+i]] > x })
	return idx[lo : lo+n]
}

// Zone returns the zone map of chunk c of a numeric attribute.
func (s *Store) Zone(attr, c int) Zone { return s.cols[attr].zones[c] }

// Nulls returns attr's null bitmap, or nil when the column has no NULLs.
// Chunk views are word subslices (chunk sizes are 64-bit aligned).
func (s *Store) Nulls(attr int) *bitmap.Bitmap { return s.cols[attr].nulls }

// NonNullCount returns the number of non-null values in attr.
func (s *Store) NonNullCount(attr int) int { return s.cols[attr].nonNulls }

// ChunkHasNulls reports whether chunk c contains any NULL for attr.
func (s *Store) ChunkHasNulls(attr, c int) bool {
	nulls := s.cols[attr].nulls
	if nulls == nil {
		return false
	}
	lo, hi := s.ChunkBounds(c)
	return bitmap.AnyWord(nulls.WordRange(lo, hi))
}

// Scan kernels: the only per-row loops in the columnar path. Each sets the
// bit for every in-range row of vals into out (chunk-local words, caller
// zeroed). NaN (NULL) fails every comparison, so NULL rows never set bits.

// ScanLess sets bits where v < x.
func ScanLess(vals []float64, x float64, out []uint64) {
	for i, v := range vals {
		if v < x {
			out[i>>6] |= 1 << uint(i&63)
		}
	}
}

// ScanGreater sets bits where v > x.
func ScanGreater(vals []float64, x float64, out []uint64) {
	for i, v := range vals {
		if v > x {
			out[i>>6] |= 1 << uint(i&63)
		}
	}
}

// ScanRange sets bits where lo <= v <= hi (inclusive both ends, the
// query.OpRange contract).
func ScanRange(vals []float64, lo, hi float64, out []uint64) {
	for i, v := range vals {
		if v >= lo && v <= hi {
			out[i>>6] |= 1 << uint(i&63)
		}
	}
}

// ScanEqNum sets bits where v == x.
func ScanEqNum(vals []float64, x float64, out []uint64) {
	for i, v := range vals {
		if v == x {
			out[i>>6] |= 1 << uint(i&63)
		}
	}
}

// ScanEqCode sets bits where the dictionary code equals code. Used for
// equality on high-cardinality categoricals that carry no postings
// (NullCode never equals a dictionary code, so NULLs are skipped).
func ScanEqCode(codes []uint32, code uint32, out []uint64) {
	for i, c := range codes {
		if c == code {
			out[i>>6] |= 1 << uint(i&63)
		}
	}
}
