// Package probe implements AIMQ's Data Collector: it extracts a sample of
// an autonomous source by issuing probing queries through its boolean
// interface (paper §3 Figure 1, §6.2).
//
// The paper selects probing queries "from a set of spanning queries, i.e.
// queries which together cover all the tuples stored in the data sources".
// The Collector realizes that: it enumerates the distinct values of a pivot
// attribute (discovered from an initial unconstrained probe) and issues one
// equality query per value; numeric pivots are covered with a sweep of
// disjoint ranges. The union of the answers is the probed relation, which
// Sample caps at the requested size with a simple random sample.
package probe

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/webdb"
)

// Collector probes a Source and materializes the probed relation.
type Collector struct {
	src webdb.Source

	// SeedProbeLimit caps the initial unconstrained probe used to discover
	// pivot values. Default 2000.
	SeedProbeLimit int
	// Buckets is the number of ranges used to span a numeric pivot.
	// Default 20.
	Buckets int
	// Parallelism is the number of spanning queries in flight at once
	// (remote sources tolerate a handful of concurrent form submissions).
	// Results are merged in query order, so the probed relation — and
	// everything sampled from it — is identical regardless of the setting.
	// Default 1 (sequential).
	Parallelism int

	// Stats describes the most recent Collect run: how much probing work
	// the offline phase cost. It is plain state on the collector — read it
	// after Collect returns, not concurrently with it.
	Stats Stats
}

// Stats profiles one Collect run.
type Stats struct {
	Pivot           string // pivot attribute probed
	SeedTuples      int    // tuples the unconstrained seed probe returned
	SpanningQueries int    // spanning queries issued
	Failures        int    // spanning queries that failed
	TuplesReturned  int    // tuples returned across spanning queries, pre-dedup
	ProbedTuples    int    // distinct tuples kept in the probed relation

	// ProbeTime and CapTime time the two steps of a Sample call: the
	// collect (seed probe, pivot discovery, spanning queries), then the
	// down-sampling cap.
	ProbeTime, CapTime time.Duration
}

// Sample is the probing step shared by the offline learn phase and the
// drift monitor's re-probe. It collects the source with spanning queries
// over pivot ("" = discover one, see Collect), workers at a time, then caps
// the probed relation at limit tuples (0 = keep all) drawn with rng.
func Sample(src webdb.Source, pivot string, limit, workers int, rng *rand.Rand) (*relation.Relation, Stats, error) {
	start := time.Now()
	c := New(src)
	c.Parallelism = workers
	rel, err := c.Collect(pivot)
	if err != nil {
		return nil, c.Stats, err
	}
	st := c.Stats
	st.ProbeTime = time.Since(start)
	capStart := time.Now()
	if limit > 0 && rel.Size() > limit {
		rel = rel.Sample(limit, rng)
	}
	st.CapTime = time.Since(capStart)
	return rel, st, nil
}

// New creates a collector over src.
func New(src webdb.Source) *Collector {
	return &Collector{src: src, SeedProbeLimit: 2000, Buckets: 20}
}

// Collect probes the source with spanning queries over pivot (an attribute
// name) and returns the probed relation containing every distinct tuple
// retrieved. Duplicate tuples returned by overlapping probes are kept once.
// With pivot "" it discovers one from the seed probe's tuples: the
// lowest-cardinality attribute that shows at least two values. The first
// failed spanning query fails the collect.
func (c *Collector) Collect(pivot string) (*relation.Relation, error) {
	sc := c.src.Schema()
	if _, ok := sc.Index(pivot); pivot != "" && !ok {
		return nil, fmt.Errorf("probe: pivot attribute %q not in schema %s", pivot, sc)
	}

	// Seed probe: an unconstrained query reveals pivot values (a real
	// crawler would enumerate the form's dropdown; the seed probe is the
	// query-only equivalent).
	seed, err := c.src.Query(query.New(sc), c.SeedProbeLimit)
	if err != nil {
		return nil, fmt.Errorf("probe: seed query: %w", err)
	}
	if pivot == "" {
		for _, info := range coverage(sc, seed) {
			if info.DistinctInSeed >= 2 {
				pivot = info.Attr
				break
			}
		}
		if pivot == "" {
			return nil, errors.New("probe: no usable probing pivot (source empty?)")
		}
	}
	attr, _ := sc.Index(pivot)

	spanning, err := c.spanningQueries(sc, attr, seed)
	if err != nil {
		return nil, err
	}

	results, failures, firstErr := c.runSpanning(spanning)
	c.Stats = Stats{
		Pivot:           pivot,
		SeedTuples:      len(seed),
		SpanningQueries: len(spanning),
		Failures:        failures,
	}
	if firstErr != nil {
		return nil, firstErr
	}

	out := relation.New(sc)
	seen := make(map[string]bool)
	var kb []byte
	for _, tuples := range results {
		c.Stats.TuplesReturned += len(tuples)
		for _, t := range tuples {
			kb = relation.AppendTupleKey(kb[:0], sc, t)
			if !seen[string(kb)] {
				seen[string(kb)] = true
				out.Append(t)
			}
		}
	}
	c.Stats.ProbedTuples = out.Size()
	if out.Size() == 0 {
		return nil, fmt.Errorf("probe: spanning queries over %s returned no tuples", pivot)
	}
	return out, nil
}

// runSpanning executes the spanning queries on Parallelism workers (at
// least one) and returns per-query results in query order, plus the failure
// count and the first error observed. Once a query has failed, no further
// one reaches the source: a worker that takes a job after the failure skips
// it, so one worker sends exactly the queries up to the failing one.
func (c *Collector) runSpanning(spanning []*query.Query) ([][]relation.Tuple, int, error) {
	results := make([][]relation.Tuple, len(spanning))
	workers := min(max(c.Parallelism, 1), len(spanning))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures int
		firstErr error
	)
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if failed() {
					continue
				}
				tuples, err := c.src.Query(spanning[i], 0)
				if err != nil {
					mu.Lock()
					failures++
					if firstErr == nil {
						firstErr = fmt.Errorf("probe: spanning query %s: %w", spanning[i], err)
					}
					mu.Unlock()
					continue
				}
				results[i] = tuples
			}
		}()
	}
	for i := range spanning {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results, failures, firstErr
}

func (c *Collector) spanningQueries(sc *relation.Schema, attr int, seed []relation.Tuple) ([]*query.Query, error) {
	typ := sc.Type(attr)
	if typ == relation.Categorical {
		seen := map[string]bool{}
		var qs []*query.Query
		for _, t := range seed {
			v := t[attr]
			if v.IsNull() || seen[v.Str] {
				continue
			}
			seen[v.Str] = true
			qs = append(qs, query.New(sc).Where(sc.Attr(attr).Name, query.OpEq, v))
		}
		if len(qs) == 0 {
			return nil, fmt.Errorf("probe: seed probe found no values for pivot %s", sc.Attr(attr).Name)
		}
		return qs, nil
	}

	// Numeric pivot: span [min,max] seen in the seed with disjoint ranges,
	// widened slightly so boundary values are not lost.
	min, max := math.Inf(1), math.Inf(-1)
	for _, t := range seed {
		v := t[attr]
		if v.IsNull() {
			continue
		}
		min = math.Min(min, v.Num)
		max = math.Max(max, v.Num)
	}
	if math.IsInf(min, 1) {
		return nil, fmt.Errorf("probe: seed probe found no values for pivot %s", sc.Attr(attr).Name)
	}
	span := max - min
	min -= 0.05*span + 1
	max += 0.05*span + 1
	buckets := c.Buckets
	if buckets < 1 {
		buckets = 1
	}
	width := (max - min) / float64(buckets)
	var qs []*query.Query
	name := sc.Attr(attr).Name
	for b := 0; b < buckets; b++ {
		lo := min + float64(b)*width
		hi := lo + width
		if b == buckets-1 {
			hi = max
		}
		// Shrink hi a hair on interior buckets to keep ranges disjoint
		// under the engine's inclusive semantics.
		if b < buckets-1 {
			hi = math.Nextafter(hi, math.Inf(-1))
		}
		qs = append(qs, query.New(sc).WhereRange(name, lo, hi))
	}
	return qs, nil
}

// PivotCoverage is a diagnostic: it reports, for each candidate pivot
// attribute, how many distinct values the seed probe exposes. Collect works
// best with a pivot of moderate cardinality (each value selects a manageable
// slice of the source). Returned in ascending cardinality order.
func PivotCoverage(src webdb.Source, seedLimit int) ([]PivotInfo, error) {
	sc := src.Schema()
	seed, err := src.Query(query.New(sc), seedLimit)
	if err != nil {
		return nil, fmt.Errorf("probe: seed query: %w", err)
	}
	return coverage(sc, seed), nil
}

// coverage counts each attribute's distinct non-null values in seed, in
// ascending order of that count.
func coverage(sc *relation.Schema, seed []relation.Tuple) []PivotInfo {
	out := make([]PivotInfo, 0, sc.Arity())
	for a := 0; a < sc.Arity(); a++ {
		seen := map[string]bool{}
		for _, t := range seed {
			if !t[a].IsNull() {
				seen[t[a].Key(sc.Type(a))] = true
			}
		}
		out = append(out, PivotInfo{Attr: sc.Attr(a).Name, DistinctInSeed: len(seen)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DistinctInSeed < out[j].DistinctInSeed })
	return out
}

// PivotInfo describes one candidate pivot attribute.
type PivotInfo struct {
	Attr           string
	DistinctInSeed int
}
