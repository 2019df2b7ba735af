package engine

import (
	"time"

	"aimq/internal/obs"
	"aimq/internal/query"
	"aimq/internal/relation"
)

// Access paths a compiled predicate can take in the columnar plan.
const (
	// AccessPosting: equality resolved to a per-value posting bitmap —
	// zero-scan, word-ANDed into the accumulator.
	AccessPosting = "posting"
	// AccessOrPostings: in-list whose alternatives all carry postings —
	// ORed into a temporary, then ANDed.
	AccessOrPostings = "or-postings"
	// AccessScan: residual predicate evaluated per chunk, after zone-map
	// consultation, by dense or sparse kernels — or, when another term took
	// the index path, tested at each of its candidate positions.
	AccessScan = "scan"
	// AccessIndex: numeric equality whose exact-value index run drove the
	// query. The engine walked that run's positions in ascending order and
	// tested every other term at each; no chunk was visited, so the chunk
	// counters stay zero and sparse_checks counts the positions walked.
	AccessIndex = "index"
)

// execCounters accumulates per-chunk execution telemetry. It is threaded
// through every columnar evaluation as plain integer adds — no allocation,
// no branches on a recorder — and folded into the Stats atomics once per
// query, so the always-on cost is a handful of register increments.
type execCounters struct {
	chunksVisited int
	zoneKilled    int
	zoneSkipped   int
	postingEmpty  int
	denseRows     int64
	sparseChecks  int64
	parallel      bool
}

func (ec *execCounters) merge(o execCounters) {
	ec.chunksVisited += o.chunksVisited
	ec.zoneKilled += o.zoneKilled
	ec.zoneSkipped += o.zoneSkipped
	ec.postingEmpty += o.postingEmpty
	ec.denseRows += o.denseRows
	ec.sparseChecks += o.sparseChecks
}

// foldExec lands one query's execution counters in the engine-wide stats.
func (e *Engine) foldExec(ec *execCounters) {
	e.stats.ChunksVisited.Add(int64(ec.chunksVisited))
	e.stats.ZoneKilled.Add(int64(ec.zoneKilled))
	e.stats.ZoneSkipped.Add(int64(ec.zoneSkipped))
	e.stats.PostingEmpty.Add(int64(ec.postingEmpty))
	e.stats.DenseRows.Add(ec.denseRows)
	e.stats.SparseChecks.Add(ec.sparseChecks)
	if ec.parallel {
		e.stats.ParallelQueries.Add(1)
	}
}

// ExecuteExplained is Execute that also fills ex, when non-nil, with the
// compiled plan and the per-chunk execution counters — the engine's EXPLAIN
// ANALYZE, in the form traces carry.
func (e *Engine) ExecuteExplained(q *query.Query, limit int, ex *obs.EngineExec) []int {
	e.buildOnce.Do(e.build)
	e.stats.Queries.Add(1)
	start := time.Now()

	out, _, scanned, ec := e.runColumnar(q, limit, false, ex)
	e.stats.TuplesScanned.Add(scanned)
	e.stats.TuplesReturned.Add(int64(len(out)))
	e.foldExec(&ec)
	elapsed := time.Since(start)
	e.stats.BusyNanos.Add(elapsed.Nanoseconds())
	if ex != nil {
		ex.Chunks = e.store.NumChunks()
		ex.ChunksVisited = ec.chunksVisited
		ex.ZoneKilled = ec.zoneKilled
		ex.ZoneSkipped = ec.zoneSkipped
		ex.PostingEmpty = ec.postingEmpty
		ex.DenseRows = ec.denseRows
		ex.SparseChecks = ec.sparseChecks
		ex.Parallel = ec.parallel
		ex.Scanned = scanned
		ex.Matched = len(out)
		ex.ElapsedUs = float64(elapsed.Nanoseconds()) / 1e3
	}
	return out
}

// ExecuteTuplesExplained is ExecuteTuples with an EXPLAIN record (see
// ExecuteExplained).
func (e *Engine) ExecuteTuplesExplained(q *query.Query, limit int, ex *obs.EngineExec) []relation.Tuple {
	pos := e.ExecuteExplained(q, limit, ex)
	out := make([]relation.Tuple, len(pos))
	for i, p := range pos {
		out[i] = e.rel.Tuple(p)
	}
	return out
}
