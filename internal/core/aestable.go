package core

import (
	"bytes"
	"sync"

	"aimq/internal/relation"
)

// aesTable is one request's answer set Aes (Algorithm 1): the answers in
// discovery order, an index from tuple hash (relation.HashTuple) to the
// newest answer with that hash, and, under a recorder, the found-by log.
// Answers whose tuples share a hash chain through entry.next and are told
// apart by relation.SameTuple, so identity is the tuple key's
// (relation.AppendTupleKey) without the key being built.
//
// A table comes from aesPool and goes back through release, which
// clears it first, so a pooled table never pins a source's tuples.
type aesTable struct {
	sc    *relation.Schema
	index map[uint64]int32
	ents  []entry
	// found logs (answer, step) for every qualifying retrieval in issue
	// order; filled only under a recorder and read only for the returned
	// answers.
	found []foundBy
	// keys holds the tie-break keys topK builds, each entry's at
	// [keyOff, keyEnd).
	keys []byte
}

// entry is one answer under construction in Aes, with the bookkeeping
// Algorithm 1 keeps beside it.
type entry struct {
	Answer
	// next is the previous answer whose tuple has the same hash, or -1.
	next int32
	// rank is the answer's 1-based position among the returned answers
	// (0 for the rest); set only under a recorder, to gather found-by steps.
	rank int32
	// keyOff and keyEnd locate the tuple's key in aesTable.keys once topK
	// has needed it to break a Sim tie (keyEnd 0: not built yet).
	keyOff, keyEnd int32
	// fromBase marks tuples retrieved by the precise base query itself.
	fromBase bool
}

// foundBy records that a relaxation step (its trace index) retrieved an
// answer (its index in ents).
type foundBy struct {
	entry int32
	step  int32
}

var aesPool = sync.Pool{New: func() any { return &aesTable{index: make(map[uint64]int32)} }}

// newAesTable takes a cleared table from the pool for one request over
// schema sc.
func newAesTable(sc *relation.Schema) *aesTable {
	a := aesPool.Get().(*aesTable)
	a.sc = sc
	return a
}

// release clears the table and returns it to the pool. Nothing may use the
// table, or an entry pointer into it, afterwards.
func (a *aesTable) release() {
	clear(a.index)
	clear(a.ents)
	a.ents = a.ents[:0]
	a.found = a.found[:0]
	a.keys = a.keys[:0]
	a.sc = nil
	aesPool.Put(a)
}

// add makes t, whose HashTuple is h, an answer, or raises the gating
// similarity of the answer it already is. It returns the answer's index in
// ents and whether the answer is new; a new answer's Sim is the caller's to
// set. h is an argument so a test can force distinct tuples into one chain.
func (a *aesTable) add(h uint64, t relation.Tuple, baseSim float64) (int, bool) {
	head, ok := a.index[h]
	if !ok {
		head = -1
	}
	for i := head; i >= 0; i = a.ents[i].next {
		if e := &a.ents[i]; relation.SameTuple(a.sc, e.Tuple, t) {
			if baseSim > e.BaseSim {
				e.BaseSim = baseSim
			}
			return int(i), false
		}
	}
	n := len(a.ents)
	a.index[h] = int32(n)
	a.ents = append(a.ents, entry{Answer: Answer{Tuple: t, BaseSim: baseSim, Seq: n}, next: head})
	return n, true
}

// key returns the entry's tuple key, building it into a.keys on first use.
func (a *aesTable) key(e *entry) []byte {
	if e.keyEnd == 0 {
		e.keyOff = int32(len(a.keys))
		a.keys = relation.AppendTupleKey(a.keys, a.sc, e.Tuple)
		e.keyEnd = int32(len(a.keys))
	}
	return a.keys[e.keyOff:e.keyEnd]
}

// ranksBefore is the answer order: higher Sim first, ties broken by the
// smaller tuple key. Keys are unique within Aes, so the order is total and
// the top k do not depend on insertion order. Only a tie builds keys.
func (a *aesTable) ranksBefore(x, y *entry) bool {
	if x.Sim != y.Sim {
		return x.Sim > y.Sim
	}
	return bytes.Compare(a.key(x), a.key(y)) < 0
}

// topK returns the k best entries under ranksBefore, best first. It keeps a
// bounded heap of at most min(k, len(ents)) candidates, rooted at the worst
// one kept, so each further entry costs one comparison unless it displaces
// the root.
func (a *aesTable) topK(k int) []*entry {
	n := min(k, len(a.ents))
	if n <= 0 {
		return nil
	}
	h := make([]*entry, n)
	for i := range h {
		h[i] = &a.ents[i]
	}
	for j := n/2 - 1; j >= 0; j-- {
		a.siftWorst(h, j)
	}
	for i := n; i < len(a.ents); i++ {
		if e := &a.ents[i]; a.ranksBefore(e, h[0]) {
			h[0] = e
			a.siftWorst(h, 0)
		}
	}
	// Heapsort: move the worst remaining entry to the back until the slice
	// runs best first.
	for end := n - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		a.siftWorst(h[:end], 0)
	}
	return h
}

// siftWorst restores the heap below j: every entry ranks before its parent.
func (a *aesTable) siftWorst(h []*entry, j int) {
	for {
		w := j
		for _, c := range [2]int{2*j + 1, 2*j + 2} {
			if c < len(h) && a.ranksBefore(h[w], h[c]) {
				w = c
			}
		}
		if w == j {
			return
		}
		h[j], h[w] = h[w], h[j]
		j = w
	}
}

// foundSteps returns, for each of the returned entries top (best first),
// the trace indices of the relaxation steps that retrieved it, in issue
// order: one pass over the found-by log.
func (a *aesTable) foundSteps(top []*entry) [][]int {
	steps := make([][]int, len(top))
	for r, e := range top {
		e.rank = int32(r + 1)
	}
	for _, f := range a.found {
		if r := a.ents[f.entry].rank; r > 0 {
			steps[r-1] = append(steps[r-1], int(f.step))
		}
	}
	return steps
}
