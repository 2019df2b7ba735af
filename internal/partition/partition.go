// Package partition implements stripped partitions — the data structure at
// the heart of the TANE dependency-discovery algorithm (Huhtala et al.,
// ICDE 1998), which the paper uses to mine approximate functional
// dependencies and approximate keys (§4).
//
// The partition π_X of a relation r under an attribute set X groups tuple
// positions into equivalence classes: two tuples are equivalent when they
// agree on every attribute of X. A *stripped* partition drops the singleton
// classes, because they can never witness a dependency violation; this keeps
// partitions small exactly where the data is close to being a key.
//
// Two operations drive TANE:
//
//   - Product: π_{X∪Y} = π_X · π_Y, computed in time linear in the stripped
//     class sizes with the probe-table algorithm from the TANE paper.
//   - error measures: G3Key(π_X) and G3AFD(π_X, π_{X∪A}) compute the g3
//     approximation measure of Kivinen & Mannila, which the paper adopts
//     ("the g3 measure … is widely accepted").
//
// Partitions are stored flat — one backing slice of tuple positions plus
// class offsets — so a partition costs two allocations however many classes
// it has, and every operation walks memory linearly. Product threads all of
// its working state through a reusable Scratch, so the steady state of a
// mine allocates only the result partitions themselves.
package partition

import (
	"math"

	"aimq/internal/relation"
)

// Partition is a stripped partition over a relation of N tuples: the
// equivalence classes of size >= 2, stored flat. Class i is
// Elems[Offsets[i]:Offsets[i+1]]; positions within a class are in ascending
// order; class order is unspecified. A partition with no classes may carry
// nil slices.
type Partition struct {
	// N is the total number of tuples in the underlying relation.
	N int
	// Elems is the backing store: all non-singleton classes, concatenated.
	Elems []int32
	// Offsets frames the classes: len(Offsets) == NumClasses()+1 (or 0 when
	// the partition is empty), with Offsets[0] == 0.
	Offsets []int32
}

// NumClasses returns the number of stripped (non-singleton) classes.
func (p *Partition) NumClasses() int {
	if len(p.Offsets) == 0 {
		return 0
	}
	return len(p.Offsets) - 1
}

// Class returns the positions of class i (ascending). Shared, read-only.
func (p *Partition) Class(i int) []int32 {
	return p.Elems[p.Offsets[i]:p.Offsets[i+1]]
}

// Bytes is the backing-store footprint of the partition, for the miner's
// peak-memory accounting.
func (p *Partition) Bytes() int {
	return 4 * (len(p.Elems) + len(p.Offsets))
}

// Rank is ||π|| in TANE terms: Σ|ci| − #classes, the partition's "excess".
// A partition with Rank 0 corresponds to a key. On the flat layout this is
// just the element count minus the class count.
func (p *Partition) Rank() int {
	return len(p.Elems) - p.NumClasses()
}

// G3Key returns the g3 error of X as a key: the minimum fraction of tuples
// that must be removed for X to become a key. With classes c1..ck this is
// Σ(|ci|−1)/N — singletons contribute nothing, which is why stripped
// partitions suffice.
func (p *Partition) G3Key() float64 {
	if p.N == 0 {
		return 0
	}
	return float64(p.Rank()) / float64(p.N)
}

// Scratch is the reusable working state for Product and G3AFD over
// relations of up to n tuples: the probe table plus the per-product count,
// cursor and output buffers. One Scratch serves any number of sequential
// calls with zero steady-state allocations; it is not safe for concurrent
// use — give each worker its own.
type Scratch struct {
	// owner maps tuple position → index of the a-class containing it
	// (−1 outside every class). Product uses it as the probe table, G3AFD
	// as the subclass-size table; both restore it to −1 before returning.
	owner []int32
	// cnt / start are indexed by a-class: occurrences of the class within
	// the current b-class, and the write cursor for the placement pass.
	cnt   []int32
	start []int32
	// touched lists the a-classes seen in the current b-class, so resets
	// touch only what was written.
	touched []int32
	// elems / offs accumulate the product's classes; the result is copied
	// out at exact size so the buffers can keep their capacity.
	elems []int32
	offs  []int32
}

// NewScratch allocates a scratch structure for Product/G3AFD over relations
// of n tuples.
func NewScratch(n int) *Scratch {
	s := &Scratch{
		owner: make([]int32, n),
		// A stripped partition over n tuples has at most n/2 classes.
		cnt:   make([]int32, n/2+1),
		start: make([]int32, n/2+1),
	}
	for i := range s.owner {
		s.owner[i] = -1
	}
	return s
}

// Product computes the stripped partition of X∪Y from π_X and π_Y using the
// linear probe-table algorithm: mark each position with its a-class, then
// split every b-class by those marks. All working state lives in s; the only
// allocations are the result's two exact-size slices.
func Product(a, b *Partition, s *Scratch) *Partition {
	nca := a.NumClasses()
	for ci := 0; ci < nca; ci++ {
		for _, pos := range a.Class(ci) {
			s.owner[pos] = int32(ci)
		}
	}
	s.elems = s.elems[:0]
	s.offs = append(s.offs[:0], 0)
	ncb := b.NumClasses()
	for bi := 0; bi < ncb; bi++ {
		cls := b.Class(bi)
		// Pass 1: count members per a-class. Positions outside every a-class
		// are singletons in a, hence singletons in the product.
		s.touched = s.touched[:0]
		for _, pos := range cls {
			ai := s.owner[pos]
			if ai < 0 {
				continue
			}
			if s.cnt[ai] == 0 {
				s.touched = append(s.touched, ai)
			}
			s.cnt[ai]++
		}
		// Reserve output room for the buckets of size >= 2 and frame their
		// classes; buckets of 1 are stripped.
		base, run := len(s.elems), 0
		for _, ai := range s.touched {
			if s.cnt[ai] >= 2 {
				s.start[ai] = int32(base + run)
				run += int(s.cnt[ai])
				s.offs = append(s.offs, int32(base+run))
			} else {
				s.start[ai] = -1
			}
		}
		// Pass 2: place. Walking cls in ascending-position order keeps each
		// output class ascending.
		if run > 0 {
			s.elems = append(s.elems, make([]int32, run)...)
			for _, pos := range cls {
				ai := s.owner[pos]
				if ai < 0 {
					continue
				}
				if st := s.start[ai]; st >= 0 {
					s.elems[st] = pos
					s.start[ai] = st + 1
				}
			}
		}
		for _, ai := range s.touched {
			s.cnt[ai] = 0
		}
	}
	for ci := 0; ci < nca; ci++ {
		for _, pos := range a.Class(ci) {
			s.owner[pos] = -1
		}
	}
	out := &Partition{N: a.N}
	if len(s.elems) > 0 {
		out.Elems = append([]int32(nil), s.elems...)
		out.Offsets = append([]int32(nil), s.offs...)
	}
	return out
}

// G3AFD returns the g3 error of the dependency X → A given π_X and
// π_{X∪A}: the minimum fraction of tuples to remove so the dependency holds
// exactly. For each class c of π_X, the tuples kept are the largest subclass
// of π_{X∪A} contained in c; everything else in c is removed. s is restored
// before return.
func G3AFD(x, xa *Partition, s *Scratch) float64 {
	if x.N == 0 {
		return 0
	}
	// Each class of π_{X∪A} is wholly contained in one class of π_X
	// (refinement), so the largest subclass of an x-class c is the max over
	// positions p in c of size-of-xa-class(p), floored at 1 (a position in
	// no stripped xa-class is a singleton subclass).
	ncxa := xa.NumClasses()
	for ci := 0; ci < ncxa; ci++ {
		cls := xa.Class(ci)
		for _, pos := range cls {
			s.owner[pos] = int32(len(cls))
		}
	}
	removed := 0
	ncx := x.NumClasses()
	for ci := 0; ci < ncx; ci++ {
		cls := x.Class(ci)
		maxSub := 1
		for _, pos := range cls {
			if sz := int(s.owner[pos]); sz > maxSub {
				maxSub = sz
			}
		}
		removed += len(cls) - maxSub
	}
	for ci := 0; ci < ncxa; ci++ {
		for _, pos := range xa.Class(ci) {
			s.owner[pos] = -1
		}
	}
	return float64(removed) / float64(x.N)
}

// Single builds the stripped partition of a single attribute. Null values
// form their own equivalence class (tuples with unknown values are treated
// as mutually indistinguishable on that attribute, the conservative choice
// for dependency mining over probed Web data).
func Single(rel *relation.Relation, attr int) *Partition {
	n := rel.Size()
	if rel.Schema().Type(attr) == relation.Numeric {
		// Group by the raw float bits: formatting every value through
		// Value.Key made strconv the hottest call in the mining phase, and
		// the bits are the same identity (NaNs are canonicalized; the
		// datasets carry none, but a stray NaN must not split a class).
		codes := make([]int32, n)
		ids := make(map[uint64]int32, 64)
		next, nullCode := int32(0), int32(-1)
		for i, t := range rel.Tuples() {
			v := t[attr]
			if v.IsNull() {
				if nullCode < 0 {
					nullCode = next
					next++
				}
				codes[i] = nullCode
				continue
			}
			bits := math.Float64bits(v.Num)
			if v.Num != v.Num {
				bits = math.Float64bits(math.NaN())
			}
			c, ok := ids[bits]
			if !ok {
				c = next
				next++
				ids[bits] = c
			}
			codes[i] = c
		}
		return fromCodes(n, codes, int(next))
	}
	// Categorical: group by the relation's interned dictionary codes — a
	// counting sort, no string hashing and no per-class slice growth.
	codes, card, _ := rel.CatCodes(attr)
	return fromCodes(n, codes, card)
}

// fromCodes builds the stripped partition of a dictionary-coded column by
// counting sort: exact-size output slices, positions ascending within each
// class, classes in code order.
func fromCodes(n int, codes []int32, card int) *Partition {
	p := &Partition{N: n}
	if n == 0 || card == 0 {
		return p
	}
	counts := make([]int32, card)
	for _, c := range codes {
		counts[c]++
	}
	total, classes := 0, 0
	for _, c := range counts {
		if c >= 2 {
			total += int(c)
			classes++
		}
	}
	if classes == 0 {
		return p
	}
	p.Elems = make([]int32, total)
	p.Offsets = make([]int32, classes+1)
	// counts doubles as the per-code write cursor (−1 = stripped).
	run, ci := int32(0), 0
	for code, c := range counts {
		if c >= 2 {
			counts[code] = run
			run += c
			ci++
			p.Offsets[ci] = run
		} else {
			counts[code] = -1
		}
	}
	for pos, code := range codes {
		if cur := counts[code]; cur >= 0 {
			p.Elems[cur] = int32(pos)
			counts[code] = cur + 1
		}
	}
	return p
}
