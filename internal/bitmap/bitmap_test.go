package bitmap

import (
	"math/rand"
	"testing"
)

// TestSetGetClear: each Set is visible to Get across word boundaries, and
// the positions around it stay clear.
func TestSetGetClear(t *testing.T) {
	const n = 130 // crosses two word boundaries with a ragged tail
	b := New(n)
	set := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range set {
		if b.Get(i) {
			t.Fatalf("fresh bitmap has bit %d set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("Set(%d) not visible", i)
		}
	}
	for _, i := range []int{2, 62, 66, 126} {
		if b.Get(i) {
			t.Fatalf("bit %d set without a Set", i)
		}
	}
	if got := CountWords(b.WordRange(0, n)); got != len(set) {
		t.Fatalf("CountWords = %d, want %d", got, len(set))
	}
}

// TestNewFullMasksTail: a new bitmap filled through FillWords over its
// words has every position set and the bits past its size clear.
func TestNewFullMasksTail(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128, 4096} {
		words := New(n).WordRange(0, n)
		FillWords(words, n)
		if got := CountWords(words); got != n {
			t.Fatalf("filled New(%d) sets %d bits", n, got)
		}
		if n%WordBits != 0 {
			if last := words[len(words)-1]; last>>(uint(n%WordBits)) != 0 {
				t.Fatalf("filled New(%d) left trailing bits set", n)
			}
		}
	}
}

func TestBooleanOpsMatchSets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 1000
	for trial := 0; trial < 50; trial++ {
		a, b := New(n), New(n)
		as, bs := map[int]bool{}, map[int]bool{}
		for i := 0; i < 300; i++ {
			x, y := rng.Intn(n), rng.Intn(n)
			a.Set(x)
			as[x] = true
			b.Set(y)
			bs[y] = true
		}
		aw, bw := a.WordRange(0, n), b.WordRange(0, n)
		and := append([]uint64(nil), aw...)
		or := append([]uint64(nil), aw...)
		AndWords(and, bw)
		OrWords(or, bw)
		wantAnd, wantOr := 0, 0
		for i := 0; i < n; i++ {
			if bit(and, i) != (as[i] && bs[i]) {
				t.Fatalf("trial %d: AndWords bit %d", trial, i)
			}
			if bit(or, i) != (as[i] || bs[i]) {
				t.Fatalf("trial %d: OrWords bit %d", trial, i)
			}
			if as[i] && bs[i] {
				wantAnd++
			}
			if as[i] || bs[i] {
				wantOr++
			}
		}
		if CountWords(and) != wantAnd || CountWords(or) != wantOr {
			t.Fatalf("trial %d: CountWords = %d/%d, want %d/%d",
				trial, CountWords(and), CountWords(or), wantAnd, wantOr)
		}
	}
}

func bit(words []uint64, i int) bool { return words[i/WordBits]&(1<<uint(i%WordBits)) != 0 }

func TestWordRangeViewsShareStorage(t *testing.T) {
	b := New(4096 * 3)
	b.Set(4096 + 7)
	view := b.WordRange(4096, 4096*2)
	if len(view) != 64 {
		t.Fatalf("chunk view has %d words, want 64", len(view))
	}
	if view[0]&(1<<7) == 0 {
		t.Fatalf("chunk view does not see bit set via parent")
	}
	view[1] = 1 // write through the view
	if !b.Get(4096 + 64) {
		t.Fatalf("write through view not visible in parent")
	}
}

// TestIterateAndAppendPositions walks a bitmap chunk by chunk, as the
// engine does, appending each chunk view's positions offset by its base:
// the result is every set position, ascending.
func TestIterateAndAppendPositions(t *testing.T) {
	const n, chunk = 500, 128
	b := New(n)
	want := []int{0, 1, 63, 64, 200, 255, 256, 499}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	for lo := 0; lo < n; lo += chunk {
		got = AppendWordPositions(got, b.WordRange(lo, lo+chunk), lo)
	}
	if len(got) != len(want) {
		t.Fatalf("positions %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("positions %v, want %v", got, want)
		}
	}
}

func TestAppendWordPositionsBase(t *testing.T) {
	words := []uint64{1 << 3, 1 << 0}
	got := AppendWordPositions(nil, words, 8192)
	if len(got) != 2 || got[0] != 8195 || got[1] != 8256 {
		t.Fatalf("AppendWordPositions = %v", got)
	}
}

func TestAnyAndReset(t *testing.T) {
	b := New(200)
	words := b.WordRange(0, 200)
	if AnyWord(words) {
		t.Fatal("empty bitmap: AnyWord = true")
	}
	b.Set(199)
	if !AnyWord(words) {
		t.Fatal("AnyWord missed set bit")
	}
	ZeroWords(words)
	if AnyWord(words) || b.Get(199) {
		t.Fatal("ZeroWords left bits")
	}
}

func BenchmarkAndWords1M(b *testing.B) {
	const n = 1_000_000
	x, y := make([]uint64, WordsFor(n)), make([]uint64, WordsFor(n))
	FillWords(x, n)
	FillWords(y, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AndWords(x, y)
	}
}

func BenchmarkCount1M(b *testing.B) {
	const n = 1_000_000
	x := make([]uint64, WordsFor(n))
	FillWords(x, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if CountWords(x) != n {
			b.Fatal("bad count")
		}
	}
}
