// Package engine implements the boolean query processor that backs the
// simulated autonomous database.
//
// The paper's problem statement (§3.1) constrains the source relation R to
// "support the boolean query processing model (i.e. a tuple either satisfies
// or does not satisfy a query)". This engine provides exactly that: it
// evaluates conjunctive selection queries and returns the satisfying tuples,
// with no ranking, no similarity, and no insight into the caller's intent.
// Everything similarity-related lives above it in the AIMQ layers.
//
// Queries are evaluated over an internal/column store: every `=`/range
// predicate becomes a bitmap per chunk — categorical equality is a
// zero-scan posting-bitmap fetch, a dictionary miss short-circuits the
// whole conjunction, numeric ranges use per-chunk min/max zone maps to skip
// or blanket-accept chunks — and conjunctions AND the bitmaps
// word-at-a-time. Chunk evaluation fans out over a worker pool for
// unlimited scans. A numeric equality resolves to its run of the column's
// exact-value index (an absent value empties the plan); when the shortest
// such run holds no more positions than one posting bitmap has words, the
// engine walks that run instead of the chunks and tests every other
// predicate at each position. Results are always in ascending position
// order. The original hash/sorted-index row evaluator survives only as a
// test oracle (legacy_test.go): the randomized differential, metamorphic
// and fuzz suites assert both return identical position sets.
//
// The engine also keeps execution statistics so the experiment harness can
// report how many queries and tuples each relaxation strategy costs (paper
// §6.3's Work/RelevantTuple metric counts extracted tuples).
package engine

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"aimq/internal/bitmap"
	"aimq/internal/column"
	"aimq/internal/obs"
	"aimq/internal/query"
	"aimq/internal/relation"
)

// Stats accumulates execution counters. All fields are updated atomically;
// an Engine is safe for concurrent queries.
type Stats struct {
	Queries        atomic.Int64 // queries executed (Execute and Count)
	TuplesReturned atomic.Int64 // tuples returned across all Execute calls
	// TuplesScanned counts per-position work: candidates tested against
	// residual predicates plus positions materialized straight from
	// bitmaps. Pure bitmap-index work (posting fetch, AND, popcount)
	// touches no individual tuples and adds nothing here.
	TuplesScanned atomic.Int64
	// TuplesCounted counts tuples tallied by Count queries — kept separate
	// so cardinality probes don't inflate TuplesReturned, which prices the
	// §6.3 extraction work.
	TuplesCounted atomic.Int64
	BusyNanos     atomic.Int64 // wall time spent inside Execute/Count

	// Columnar execution telemetry, folded in once per query (always on —
	// the per-chunk accumulation is plain integer adds).
	ChunksVisited   atomic.Int64 // chunks evaluated
	ZoneKilled      atomic.Int64 // chunks eliminated wholesale by zone maps
	ZoneSkipped     atomic.Int64 // residual checks skipped by blanket accepts
	PostingEmpty    atomic.Int64 // chunks whose posting AND/OR emptied early
	DenseRows       atomic.Int64 // rows swept by dense residual kernels
	SparseChecks    atomic.Int64 // positions tested by sparse filters
	ParallelQueries atomic.Int64 // queries the chunk worker pool ran
}

// Snapshot is a plain-value copy of Stats.
type Snapshot struct {
	Queries        int64
	TuplesReturned int64
	TuplesScanned  int64
	TuplesCounted  int64
	BusyNanos      int64

	ChunksVisited   int64
	ZoneKilled      int64
	ZoneSkipped     int64
	PostingEmpty    int64
	DenseRows       int64
	SparseChecks    int64
	ParallelQueries int64
}

// Busy is the cumulative wall time spent executing queries.
func (s Snapshot) Busy() time.Duration { return time.Duration(s.BusyNanos) }

// Snapshot returns the current counter values.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		Queries:        s.Queries.Load(),
		TuplesReturned: s.TuplesReturned.Load(),
		TuplesScanned:  s.TuplesScanned.Load(),
		TuplesCounted:  s.TuplesCounted.Load(),
		BusyNanos:      s.BusyNanos.Load(),

		ChunksVisited:   s.ChunksVisited.Load(),
		ZoneKilled:      s.ZoneKilled.Load(),
		ZoneSkipped:     s.ZoneSkipped.Load(),
		PostingEmpty:    s.PostingEmpty.Load(),
		DenseRows:       s.DenseRows.Load(),
		SparseChecks:    s.SparseChecks.Load(),
		ParallelQueries: s.ParallelQueries.Load(),
	}
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.Queries.Store(0)
	s.TuplesReturned.Store(0)
	s.TuplesScanned.Store(0)
	s.TuplesCounted.Store(0)
	s.BusyNanos.Store(0)
	s.ChunksVisited.Store(0)
	s.ZoneKilled.Store(0)
	s.ZoneSkipped.Store(0)
	s.PostingEmpty.Store(0)
	s.DenseRows.Store(0)
	s.SparseChecks.Store(0)
	s.ParallelQueries.Store(0)
}

// Engine answers boolean conjunctive queries over a fixed relation.
type Engine struct {
	rel     *relation.Relation
	stats   Stats
	workers int // chunk-eval workers; 0 = min(GOMAXPROCS, 8)

	buildOnce sync.Once
	store     *column.Store
}

// New creates a columnar engine over the relation. The column store is
// built lazily on the first query so construction is free for relations
// only used as data.
func New(rel *relation.Relation) *Engine {
	return &Engine{rel: rel}
}

// Relation returns the underlying relation.
func (e *Engine) Relation() *relation.Relation { return e.rel }

// Stats returns the engine's execution counters.
func (e *Engine) Stats() *Stats { return &e.stats }

// Store returns the columnar store, building it on first use. Exposed for
// the bench harness's storage diagnostics.
func (e *Engine) Store() *column.Store {
	e.buildOnce.Do(e.build)
	return e.store
}

func (e *Engine) build() {
	e.store = column.MustBuild(e.rel, 0)
}

func (e *Engine) effWorkers() int {
	if e.workers > 0 {
		return e.workers
	}
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	return w
}

// Execute runs a conjunctive query and returns the positions of all
// satisfying tuples, up to limit (limit <= 0 means unlimited), in
// ascending relation order.
//
// Imprecise (like) predicates are evaluated as equality: the boolean model
// cannot do anything else, which is the premise of the paper.
func (e *Engine) Execute(q *query.Query, limit int) []int {
	return e.ExecuteExplained(q, limit, nil)
}

// ExecuteTuples is Execute returning the tuples themselves.
func (e *Engine) ExecuteTuples(q *query.Query, limit int) []relation.Tuple {
	return e.ExecuteTuplesExplained(q, limit, nil)
}

// Count returns the number of tuples satisfying the query. The result
// bitmap is popcounted without materializing a position slice, and the
// tally lands in Stats.TuplesCounted rather than inflating TuplesReturned.
func (e *Engine) Count(q *query.Query) int {
	e.buildOnce.Do(e.build)
	e.stats.Queries.Add(1)
	start := time.Now()
	defer func() { e.stats.BusyNanos.Add(time.Since(start).Nanoseconds()) }()

	_, n, scanned, ec := e.runColumnar(q, 0, true, nil)
	e.stats.TuplesScanned.Add(scanned)
	e.stats.TuplesCounted.Add(int64(n))
	e.foldExec(&ec)
	return n
}

// scanKind classifies a residual (non-posting) predicate.
type scanKind uint8

const (
	kLess    scanKind = iota // numeric v < hi
	kGreater                 // numeric v > lo
	kRange                   // numeric lo <= v <= hi
	kEqNum                   // numeric v == lo
	kInNum                   // numeric v ∈ nums
	kEqCode                  // categorical code == code (no postings)
	kInCode                  // categorical code ∈ codes (no postings)
)

// scanPred is one compiled residual predicate, holding the column it reads.
type scanPred struct {
	attr   int
	kind   scanKind
	floats []float64 // the attribute's values (numeric kinds)
	codes  []uint32  // the attribute's codes (categorical kinds)
	lo, hi float64
	code   uint32
	set    []uint32 // kInCode alternatives
	nums   []float64
}

// matches reports whether the row at position i satisfies sp. It is the one
// per-position definition of every residual predicate: the sparse filter
// and the exact-value walk both test through it. NULL is NaN or NullCode in
// the column, and fails every test.
func (sp *scanPred) matches(i int) bool {
	switch sp.kind {
	case kLess:
		return sp.floats[i] < sp.hi
	case kGreater:
		return sp.floats[i] > sp.lo
	case kRange:
		v := sp.floats[i]
		return v >= sp.lo && v <= sp.hi
	case kEqNum:
		return sp.floats[i] == sp.lo
	case kInNum:
		v := sp.floats[i]
		for _, x := range sp.nums {
			if v == x {
				return true
			}
		}
	case kEqCode:
		return sp.codes[i] == sp.code
	case kInCode:
		c := sp.codes[i]
		for _, code := range sp.set {
			if c == code {
				return true
			}
		}
	}
	return false
}

// colPlan is a compiled columnar query: posting bitmaps to AND, in-list
// posting groups to OR-then-AND, and residual scan predicates.
type colPlan struct {
	empty bool
	ands  []*bitmap.Bitmap
	ors   [][]*bitmap.Bitmap
	scans []scanPred
	// cands is the shortest exact-value run among the numeric equalities
	// (nil when there is none): every match lies in it. candScan is its
	// predicate's index in scans and candTerm its EXPLAIN plan term.
	cands    []uint32
	candScan int
	candTerm int
}

// planTerm records one compiled predicate in the EXPLAIN plan. No-op when
// no EXPLAIN was requested — the hot path passes ex == nil.
func planTerm(ex *obs.EngineExec, s *relation.Schema, attr int, op query.Op, access string, alts int) {
	if ex == nil {
		return
	}
	ex.Plan = append(ex.Plan, obs.EnginePlanTerm{
		Attr:         s.Attr(attr).Name,
		Op:           op.String(),
		Access:       access,
		Alternatives: alts,
	})
}

// compile turns the query into a columnar plan. A dictionary miss on an
// equality predicate (or an in-list with no present alternative) marks the
// plan empty — the short-circuit that makes absent-value probes free. When
// ex is non-nil the chosen access path of every predicate is recorded in
// ex.Plan, reusing its array when it has room.
func (e *Engine) compile(q *query.Query, ex *obs.EngineExec) colPlan {
	var p colPlan
	s := q.Schema
	if ex != nil {
		ex.Plan = slices.Grow(ex.Plan[:0], len(q.Preds))
	}
	for _, pr := range q.Preds {
		cat := s.Type(pr.Attr) == relation.Categorical
		switch pr.Op {
		case query.OpEq, query.OpLike:
			if pr.Value.IsNull() {
				// An explicit NULL binding matches nothing: non-null tuple
				// values never Equal a null, and null tuple values fail
				// every predicate.
				p.empty = true
				return p
			}
			if cat {
				code, ok := e.store.Code(pr.Attr, pr.Value.Str)
				if !ok {
					p.empty = true
					return p
				}
				if b := e.store.Posting(pr.Attr, code); b != nil {
					p.ands = append(p.ands, b)
					planTerm(ex, s, pr.Attr, pr.Op, AccessPosting, 0)
				} else {
					p.scans = append(p.scans, e.scanOn(pr.Attr, scanPred{kind: kEqCode, code: code}))
					planTerm(ex, s, pr.Attr, pr.Op, AccessScan, 0)
				}
			} else {
				run := e.store.Equal(pr.Attr, pr.Value.Num)
				if len(run) == 0 {
					p.empty = true // absent value, like a dictionary miss
					return p
				}
				p.scans = append(p.scans, e.scanOn(pr.Attr, scanPred{kind: kEqNum, lo: pr.Value.Num}))
				planTerm(ex, s, pr.Attr, pr.Op, AccessScan, 0)
				if p.cands == nil || len(run) < len(p.cands) {
					p.cands, p.candScan = run, len(p.scans)-1
					if ex != nil {
						p.candTerm = len(ex.Plan) - 1
					}
				}
			}
		case query.OpIn:
			if cat {
				var group []*bitmap.Bitmap
				var codes []uint32
				scan := !e.store.HasPostings(pr.Attr)
				for _, alt := range pr.Values {
					if alt.IsNull() {
						continue
					}
					code, ok := e.store.Code(pr.Attr, alt.Str)
					if !ok {
						continue // absent alternative contributes nothing
					}
					if scan {
						codes = append(codes, code)
					} else {
						group = append(group, e.store.Posting(pr.Attr, code))
					}
				}
				switch {
				case scan && len(codes) > 0:
					p.scans = append(p.scans, e.scanOn(pr.Attr, scanPred{kind: kInCode, set: codes}))
					planTerm(ex, s, pr.Attr, pr.Op, AccessScan, len(codes))
				case !scan && len(group) > 0:
					p.ors = append(p.ors, group)
					planTerm(ex, s, pr.Attr, pr.Op, AccessOrPostings, len(group))
				default: // no alternative occurs in the column
					p.empty = true
					return p
				}
			} else {
				var nums []float64
				for _, alt := range pr.Values {
					if !alt.IsNull() {
						nums = append(nums, alt.Num)
					}
				}
				if len(nums) == 0 {
					p.empty = true
					return p
				}
				p.scans = append(p.scans, e.scanOn(pr.Attr, scanPred{kind: kInNum, nums: nums}))
				planTerm(ex, s, pr.Attr, pr.Op, AccessScan, len(nums))
			}
		case query.OpLess:
			if cat {
				p.empty = true // comparisons never match categorical attributes
				return p
			}
			p.scans = append(p.scans, e.scanOn(pr.Attr, scanPred{kind: kLess, hi: pr.Value.Num}))
			planTerm(ex, s, pr.Attr, pr.Op, AccessScan, 0)
		case query.OpGreater:
			if cat {
				p.empty = true
				return p
			}
			p.scans = append(p.scans, e.scanOn(pr.Attr, scanPred{kind: kGreater, lo: pr.Value.Num}))
			planTerm(ex, s, pr.Attr, pr.Op, AccessScan, 0)
		case query.OpRange:
			if cat {
				p.empty = true
				return p
			}
			p.scans = append(p.scans, e.scanOn(pr.Attr, scanPred{kind: kRange, lo: pr.Value.Num, hi: pr.Hi.Num}))
			planTerm(ex, s, pr.Attr, pr.Op, AccessScan, 0)
		default:
			// Unknown operator: Predicate.Matches returns false for it, so
			// the conjunction is empty.
			p.empty = true
			return p
		}
	}
	return p
}

// scanOn completes sp with the attribute and the column it reads.
func (e *Engine) scanOn(attr int, sp scanPred) scanPred {
	sp.attr = attr
	if e.store.Schema().Type(attr) == relation.Categorical {
		sp.codes = e.store.Codes(attr)
	} else {
		sp.floats = e.store.Floats(attr)
	}
	return sp
}

// runColumnar evaluates q over the column store. countOnly popcounts the
// result instead of materializing positions. Returns the positions (nil
// when counting), the count (counting mode only), the per-position scan
// work performed, and the chunk-level execution counters. ex, when non-nil,
// receives the compiled plan (the counters are filled by the caller).
func (e *Engine) runColumnar(q *query.Query, limit int, countOnly bool, ex *obs.EngineExec) (out []int, count int, scanned int64, ec execCounters) {
	n := e.store.Len()
	if len(q.Preds) == 0 {
		// Full scan of the empty conjunction: every tuple matches.
		if ex != nil {
			ex.FullScan = true
		}
		if countOnly {
			return nil, n, int64(n), ec
		}
		m := n
		if limit > 0 && limit < m {
			m = limit
		}
		out = make([]int, m)
		for i := range out {
			out[i] = i
		}
		return out, 0, int64(m), ec
	}
	p := e.compile(q, ex)
	if ex != nil {
		ex.Empty = p.empty
	}
	if p.empty || n == 0 {
		return nil, 0, 0, ec
	}
	// Walking the shortest exact-value run costs at most as many position
	// tests as one posting bitmap over the relation has words to AND.
	if p.cands != nil && len(p.cands) <= n/bitmap.WordBits {
		if ex != nil {
			ex.Plan[p.candTerm].Access = AccessIndex
		}
		out, count, ec.sparseChecks = walk(&p, limit, countOnly)
		return out, count, ec.sparseChecks, ec
	}

	chunks := e.store.NumChunks()
	workers := e.effWorkers()
	if limit > 0 || workers == 1 || chunks < 2*workers {
		return e.runChunks(&p, 0, chunks, limit, countOnly)
	}

	// Worker pool: contiguous chunk ranges, one shard per worker, results
	// concatenated in chunk order so the output stays position-sorted and
	// deterministic at any worker count.
	type shard struct {
		out     []int
		count   int
		scanned int64
		ec      execCounters
	}
	if workers > chunks {
		workers = chunks
	}
	shards := make([]shard, workers)
	per := (chunks + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > chunks {
			hi = chunks
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			o, c, s, sec := e.runChunks(&p, lo, hi, 0, countOnly)
			shards[w] = shard{out: o, count: c, scanned: s, ec: sec}
		}(w, lo, hi)
	}
	wg.Wait()
	ec.parallel = true
	total := 0
	for i := range shards {
		total += len(shards[i].out)
		count += shards[i].count
		scanned += shards[i].scanned
		ec.merge(shards[i].ec)
	}
	if !countOnly {
		out = make([]int, 0, total)
		for i := range shards {
			out = append(out, shards[i].out...)
		}
	}
	return out, count, scanned, ec
}

// walk evaluates the plan over its candidate run, in ascending position
// order: each candidate is tested against every posting, in-list group and
// residual predicate except the equality the run came from, which it
// satisfies by construction. limit (> 0) stops the walk once enough
// positions are collected; countOnly tallies instead of collecting. It
// returns the number of candidates visited with the matches.
func walk(p *colPlan, limit int, countOnly bool) (out []int, count int, visited int64) {
	if !countOnly {
		n := len(p.cands)
		if limit > 0 && limit < n {
			n = limit
		}
		out = make([]int, 0, n)
	}
next:
	for _, c := range p.cands {
		i := int(c)
		visited++
		for _, b := range p.ands {
			if !b.Get(i) {
				continue next
			}
		}
		for _, group := range p.ors {
			if !anyGet(group, i) {
				continue next
			}
		}
		for si := range p.scans {
			if si != p.candScan && !p.scans[si].matches(i) {
				continue next
			}
		}
		if countOnly {
			count++
			continue
		}
		out = append(out, i)
		if len(out) == limit {
			break
		}
	}
	return out, count, visited
}

// anyGet reports whether any bitmap of an in-list group has bit i.
func anyGet(group []*bitmap.Bitmap, i int) bool {
	for _, b := range group {
		if b.Get(i) {
			return true
		}
	}
	return false
}

// runChunks evaluates the plan over chunks [c0, c1), honoring limit (> 0)
// by stopping once enough positions are collected.
func (e *Engine) runChunks(p *colPlan, c0, c1, limit int, countOnly bool) (out []int, count int, scanned int64, ec execCounters) {
	nw := e.store.ChunkSize() / bitmap.WordBits
	acc := make([]uint64, nw)
	var tmp []uint64 // lazily sized; only in-list posting groups need it
	for c := c0; c < c1; c++ {
		words, visited, perPos := e.evalChunk(p, c, acc, &tmp, &ec)
		scanned += visited
		if words == nil {
			continue
		}
		lo, _ := e.store.ChunkBounds(c)
		if countOnly {
			count += bitmap.CountWords(words)
			continue
		}
		max := 0
		if limit > 0 {
			max = limit - len(out)
		}
		before := len(out)
		out = appendLimited(out, words, lo, max)
		if !perPos {
			// No residual predicate visited individual positions in this
			// chunk; the materialized positions are the tuples touched.
			scanned += int64(len(out) - before)
		}
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out, count, scanned, ec
}

// evalChunk evaluates the plan over one chunk into acc. It returns the
// result words (nil when the chunk contributes nothing), the number of
// positions individually visited, and whether any per-position residual
// work happened (for scan accounting). Execution telemetry lands in ec as
// plain integer adds.
func (e *Engine) evalChunk(p *colPlan, c int, acc []uint64, tmp *[]uint64, ec *execCounters) (words []uint64, visited int64, perPos bool) {
	lo, hi := e.store.ChunkBounds(c)
	nbits := hi - lo
	nw := bitmap.WordsFor(nbits)
	acc = acc[:nw]
	ec.chunksVisited++

	full := false
	if len(p.ands) > 0 {
		copy(acc, p.ands[0].WordRange(lo, hi))
		for _, b := range p.ands[1:] {
			bitmap.AndWords(acc, b.WordRange(lo, hi))
		}
	} else {
		bitmap.FillWords(acc, nbits)
		full = len(p.ors) == 0
	}
	for _, group := range p.ors {
		if cap(*tmp) < nw {
			*tmp = make([]uint64, nw)
		}
		t := (*tmp)[:nw]
		bitmap.ZeroWords(t)
		for _, b := range group {
			bitmap.OrWords(t, b.WordRange(lo, hi))
		}
		bitmap.AndWords(acc, t)
	}
	if !bitmap.AnyWord(acc) {
		ec.postingEmpty++
		return nil, 0, false
	}

	for si := range p.scans {
		sp := &p.scans[si]
		switch e.zoneState(sp, c, nbits) {
		case zoneNone:
			ec.zoneKilled++
			return nil, visited, perPos
		case zoneAll:
			ec.zoneSkipped++
			continue
		}
		if full {
			// First residual over an untouched chunk: dense kernel over the
			// whole column chunk beats per-bit iteration.
			bitmap.ZeroWords(acc)
			denseScan(sp, lo, hi, acc)
			visited += int64(nbits)
			ec.denseRows += int64(nbits)
			full, perPos = false, true
		} else {
			v := sparseFilter(sp, lo, acc)
			visited += v
			ec.sparseChecks += v
			perPos = true
		}
		if !bitmap.AnyWord(acc) {
			return nil, visited, perPos
		}
	}
	return acc, visited, perPos
}

// Zone tri-state for a residual predicate over one chunk.
const (
	zonePartial = iota // evaluate per position
	zoneNone           // no position in the chunk can match
	zoneAll            // every position in the chunk matches
)

// zoneState consults the chunk's zone map: numeric predicates can skip a
// chunk wholesale (all values outside the bound, or all NULL) or accept it
// wholesale (all values inside and no NULLs).
func (e *Engine) zoneState(sp *scanPred, c, nbits int) int {
	switch sp.kind {
	case kEqCode, kInCode:
		return zonePartial
	}
	z := e.store.Zone(sp.attr, c)
	if z.NonNull == 0 {
		return zoneNone
	}
	noNulls := z.NonNull == nbits
	switch sp.kind {
	case kLess:
		if z.Min >= sp.hi {
			return zoneNone
		}
		if noNulls && z.Max < sp.hi {
			return zoneAll
		}
	case kGreater:
		if z.Max <= sp.lo {
			return zoneNone
		}
		if noNulls && z.Min > sp.lo {
			return zoneAll
		}
	case kRange:
		if z.Min > sp.hi || z.Max < sp.lo {
			return zoneNone
		}
		if noNulls && z.Min >= sp.lo && z.Max <= sp.hi {
			return zoneAll
		}
	case kEqNum:
		if sp.lo < z.Min || sp.lo > z.Max {
			return zoneNone
		}
		if noNulls && z.Min == z.Max && z.Min == sp.lo {
			return zoneAll
		}
	case kInNum:
		for _, x := range sp.nums {
			if x >= z.Min && x <= z.Max {
				return zonePartial
			}
		}
		return zoneNone
	}
	return zonePartial
}

// denseScan runs the tight per-row kernel for one predicate over chunk
// rows [lo, hi), setting bits (chunk-local) in out.
func denseScan(sp *scanPred, lo, hi int, out []uint64) {
	switch sp.kind {
	case kLess:
		column.ScanLess(sp.floats[lo:hi], sp.hi, out)
	case kGreater:
		column.ScanGreater(sp.floats[lo:hi], sp.lo, out)
	case kRange:
		column.ScanRange(sp.floats[lo:hi], sp.lo, sp.hi, out)
	case kEqNum:
		column.ScanEqNum(sp.floats[lo:hi], sp.lo, out)
	case kInNum:
		vals := sp.floats[lo:hi]
		for _, x := range sp.nums {
			column.ScanEqNum(vals, x, out) // kernels only set bits: union
		}
	case kEqCode:
		column.ScanEqCode(sp.codes[lo:hi], sp.code, out)
	case kInCode:
		codes := sp.codes[lo:hi]
		for _, code := range sp.set {
			column.ScanEqCode(codes, code, out)
		}
	}
}

// sparseFilter tests the predicate at each set position of acc (chunk base
// lo), clearing the bits that fail, and returns the number of positions
// visited.
func sparseFilter(sp *scanPred, lo int, acc []uint64) int64 {
	var visited int64
	for wi := range acc {
		w := acc[wi]
		if w == 0 {
			continue
		}
		base := lo + wi*bitmap.WordBits
		for w != 0 {
			bit := trailingZeros(w)
			visited++
			if !sp.matches(base + bit) {
				acc[wi] &^= 1 << uint(bit)
			}
			w &= w - 1
		}
	}
	return visited
}

// appendLimited appends base+bit for every set bit (ascending) to dst,
// stopping after max appends when max > 0.
func appendLimited(dst []int, words []uint64, base, max int) []int {
	if max <= 0 {
		return bitmap.AppendWordPositions(dst, words, base)
	}
	for wi, w := range words {
		wbase := base + wi*bitmap.WordBits
		for w != 0 {
			dst = append(dst, wbase+trailingZeros(w))
			if max--; max == 0 {
				return dst
			}
			w &= w - 1
		}
	}
	return dst
}

// trailingZeros aliases math/bits.TrailingZeros64 for the hot loops.
func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }
