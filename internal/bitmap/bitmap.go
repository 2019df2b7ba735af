// Package bitmap provides word-aligned bitmaps for the columnar boolean
// query engine.
//
// A Bitmap represents a set of tuple positions over a relation of fixed
// size. Predicate evaluation turns every `=`/range constraint into one of
// these, conjunctions AND them word-at-a-time, and the result's cardinality
// is a popcount rather than a materialized position slice — the operations
// the paper's boolean query model (§3.1) is priced in.
//
// Bitmaps are sized to a whole number of 64-bit words with the trailing
// bits of the last word kept zero, so the word kernels (AndWords, OrWords,
// CountWords, ...) never need a tail special case. The columnar store picks chunk sizes that are multiples of
// 64, which makes a chunk's slice of a global bitmap a zero-copy word
// subslice (see WordRange).
package bitmap

import "math/bits"

// WordBits is the width of one bitmap word.
const WordBits = 64

// Bitmap is a fixed-size set of positions [0, n), built with New and Set.
// Beyond Get, it is read one chunk at a time through WordRange and the word
// kernels.
type Bitmap struct {
	words []uint64
}

// WordsFor returns the number of 64-bit words needed for n bits.
func WordsFor(n int) int { return (n + WordBits - 1) / WordBits }

// New returns an empty bitmap over positions [0, n).
func New(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, WordsFor(n))}
}

// WordRange returns the words covering bit positions [lo, hi), which must
// both be multiples of 64 (hi may exceed the bitmap's size and is clamped).
// The slice shares the bitmap's storage: the engine views one chunk of a
// global posting bitmap without copying.
func (b *Bitmap) WordRange(lo, hi int) []uint64 {
	w0 := lo / WordBits
	w1 := WordsFor(hi)
	if w1 > len(b.words) {
		w1 = len(b.words)
	}
	return b.words[w0:w1]
}

// Set marks position i.
func (b *Bitmap) Set(i int) {
	b.words[i/WordBits] |= 1 << uint(i%WordBits)
}

// Get reports whether position i is set.
func (b *Bitmap) Get(i int) bool {
	return b.words[i/WordBits]&(1<<uint(i%WordBits)) != 0
}

// FillWords sets the first n bits of words and zeroes any trailing bits.
// The engine uses it to start a chunk accumulator at "every position
// matches" for queries with no posting-bitmap predicates.
func FillWords(words []uint64, n int) {
	for i := range words {
		words[i] = ^uint64(0)
	}
	if r := n % WordBits; r != 0 && len(words) > 0 {
		words[len(words)-1] &= (1 << uint(r)) - 1
	}
}

// ZeroWords clears a word slice (scratch reuse between chunks).
func ZeroWords(words []uint64) {
	for i := range words {
		words[i] = 0
	}
}

// AndWords intersects dst with src word-wise in place. Slices must be the
// same length; this is the hot conjunction kernel, split out so the engine
// can AND raw chunk views without constructing Bitmap headers.
func AndWords(dst, src []uint64) {
	_ = dst[len(src)-1]
	for i, w := range src {
		dst[i] &= w
	}
}

// OrWords unions src into dst word-wise in place.
func OrWords(dst, src []uint64) {
	_ = dst[len(src)-1]
	for i, w := range src {
		dst[i] |= w
	}
}

// CountWords popcounts a word slice.
func CountWords(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// AnyWord reports whether any word has a set bit.
func AnyWord(words []uint64) bool {
	for _, w := range words {
		if w != 0 {
			return true
		}
	}
	return false
}

// AppendWordPositions appends base+i for every set bit i of words
// (ascending) to dst and returns it.
func AppendWordPositions(dst []int, words []uint64, base int) []int {
	for wi, w := range words {
		wbase := base + wi*WordBits
		for w != 0 {
			dst = append(dst, wbase+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}
