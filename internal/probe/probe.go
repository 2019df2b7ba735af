// Package probe implements AIMQ's Data Collector: it extracts a sample of
// an autonomous source by issuing probing queries through its boolean
// interface (paper §3 Figure 1, §6.2).
//
// The paper selects probing queries "from a set of spanning queries, i.e.
// queries which together cover all the tuples stored in the data sources".
// Sample realizes that: it enumerates the distinct values of a pivot
// attribute (discovered from an initial unconstrained probe) and issues one
// equality query per value; numeric pivots are covered with a sweep of
// disjoint ranges. The union of the answers is the probed relation, which
// Sample caps at the requested size with a simple random sample.
package probe

import (
	"context"
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

const (
	// seedProbeLimit caps the initial unconstrained probe used to discover
	// pivot values.
	seedProbeLimit = 2000
	// numericBuckets is the number of ranges used to span a numeric pivot.
	numericBuckets = 20
)

// Stats profiles one Sample run.
type Stats struct {
	Pivot           string // pivot attribute probed
	SeedTuples      int    // tuples the unconstrained seed probe returned
	SpanningQueries int    // spanning queries issued
	TuplesReturned  int    // tuples returned across spanning queries, pre-dedup
	ProbedTuples    int    // distinct tuples kept in the probed relation

	// ProbeTime and CapTime time the two steps of a Sample call: the
	// collect (seed probe, pivot discovery, spanning queries), then the
	// down-sampling cap.
	ProbeTime, CapTime time.Duration
}

// Sample is probing's one entry point, shared by the offline learn phase
// and the drift monitor's re-probe. It collects the source with spanning
// queries over pivot ("" = discover one, see collect), workers at a time,
// then caps the probed relation at limit tuples (0 = keep all) drawn with
// rng. Spanning-query results merge in query order, so the sample is
// identical at any worker count. Every source call runs under ctx, and
// once ctx is done no further query is sent.
func Sample(ctx context.Context, src webdb.Source, pivot string, limit, workers int, rng *rand.Rand) (*relation.Relation, Stats, error) {
	start := time.Now()
	rel, st, err := collect(ctx, src, pivot, workers)
	if err != nil {
		return nil, st, err
	}
	st.ProbeTime = time.Since(start)
	capStart := time.Now()
	if limit > 0 && rel.Size() > limit {
		rel = rel.Sample(limit, rng)
	}
	st.CapTime = time.Since(capStart)
	return rel, st, nil
}

// collect probes src with spanning queries over pivot (an attribute name)
// and returns the probed relation containing every distinct tuple
// retrieved. Duplicate tuples returned by overlapping probes are kept once.
// With pivot "" it discovers one from the seed probe's tuples: the
// lowest-cardinality attribute that shows at least two values. The first
// failed spanning query, or ctx ending, fails the collect.
func collect(ctx context.Context, src webdb.Source, pivot string, workers int) (*relation.Relation, Stats, error) {
	sc := src.Schema()
	if _, ok := sc.Index(pivot); pivot != "" && !ok {
		return nil, Stats{}, fmt.Errorf("probe: pivot attribute %q not in schema %s", pivot, sc)
	}

	// Seed probe: an unconstrained query reveals pivot values (a real
	// crawler would enumerate the form's dropdown; the seed probe is the
	// query-only equivalent).
	seed, err := src.QueryContext(ctx, query.New(sc), seedProbeLimit)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("probe: seed query: %w", err)
	}
	if pivot == "" {
		for _, info := range coverage(sc, seed) {
			if info.distinctInSeed >= 2 {
				pivot = info.attr
				break
			}
		}
		if pivot == "" {
			return nil, Stats{}, errors.New("probe: no usable probing pivot (source empty?)")
		}
	}
	attr, _ := sc.Index(pivot)

	spanning, err := spanningQueries(sc, attr, seed)
	if err != nil {
		return nil, Stats{}, err
	}

	results, err := runSpanning(ctx, src, spanning, workers)
	st := Stats{
		Pivot:           pivot,
		SeedTuples:      len(seed),
		SpanningQueries: len(spanning),
	}
	if err != nil {
		return nil, st, err
	}

	out := relation.New(sc)
	seen := make(map[string]bool)
	var kb []byte
	for _, tuples := range results {
		st.TuplesReturned += len(tuples)
		for _, t := range tuples {
			kb = relation.AppendTupleKey(kb[:0], sc, t)
			if !seen[string(kb)] {
				seen[string(kb)] = true
				out.Append(t)
			}
		}
	}
	st.ProbedTuples = out.Size()
	if out.Size() == 0 {
		return nil, st, fmt.Errorf("probe: spanning queries over %s returned no tuples", pivot)
	}
	return out, st, nil
}

// runSpanning executes the spanning queries on workers goroutines (at
// least one) and returns per-query results in query order, plus the first
// error observed. Once a query has failed or ctx has ended, no further
// one reaches the source: a worker that takes a job after that skips it,
// so one worker sends exactly the queries up to the failing one.
func runSpanning(ctx context.Context, src webdb.Source, spanning []*query.Query, workers int) ([][]relation.Tuple, error) {
	results := make([][]relation.Tuple, len(spanning))
	workers = min(max(workers, 1), len(spanning))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	stopped := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if err := ctx.Err(); firstErr == nil && err != nil {
			firstErr = fmt.Errorf("probe: spanning queries: %w", err)
		}
		return firstErr != nil
	}
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if stopped() {
					continue
				}
				tuples, err := src.QueryContext(ctx, spanning[i], 0)
				if err != nil {
					mu.Lock()
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
	return results, firstErr
}

func spanningQueries(sc *relation.Schema, attr int, seed []relation.Tuple) ([]*query.Query, error) {
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
	width := (max - min) / numericBuckets
	var qs []*query.Query
	name := sc.Attr(attr).Name
	for b := 0; b < numericBuckets; b++ {
		lo := min + float64(b)*width
		hi := lo + width
		if b == numericBuckets-1 {
			hi = max
		}
		// Shrink hi a hair on interior buckets to keep ranges disjoint
		// under the engine's inclusive semantics.
		if b < numericBuckets-1 {
			hi = math.Nextafter(hi, math.Inf(-1))
		}
		qs = append(qs, query.New(sc).WhereRange(name, lo, hi))
	}
	return qs, nil
}

// coverage counts each attribute's distinct non-null values in seed, in
// ascending order of that count. collect works best with a pivot of
// moderate cardinality (each value selects a manageable slice of the
// source), so it takes the first attribute that shows two values.
func coverage(sc *relation.Schema, seed []relation.Tuple) []pivotInfo {
	out := make([]pivotInfo, 0, sc.Arity())
	for a := 0; a < sc.Arity(); a++ {
		seen := map[string]bool{}
		for _, t := range seed {
			if !t[a].IsNull() {
				seen[t[a].Key(sc.Type(a))] = true
			}
		}
		out = append(out, pivotInfo{attr: sc.Attr(a).Name, distinctInSeed: len(seen)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].distinctInSeed < out[j].distinctInSeed })
	return out
}

// pivotInfo describes one candidate pivot attribute.
type pivotInfo struct {
	attr           string
	distinctInSeed int
}
