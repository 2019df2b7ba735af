package probe

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/webdb"
)

func carSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "Make", Type: relation.Categorical},
		relation.Attribute{Name: "Model", Type: relation.Categorical},
		relation.Attribute{Name: "Year", Type: relation.Numeric},
		relation.Attribute{Name: "Price", Type: relation.Numeric},
	)
}

func bigRel(n int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	s := carSchema()
	r := relation.New(s)
	makes := []string{"Toyota", "Honda", "Ford", "BMW", "Nissan", "Dodge"}
	models := []string{"Camry", "Accord", "Focus", "Civic", "Altima", "Ram"}
	for i := 0; i < n; i++ {
		r.Append(relation.Tuple{
			relation.Cat(makes[rng.Intn(len(makes))]),
			relation.Cat(models[rng.Intn(len(models))]),
			relation.Numv(float64(1990 + rng.Intn(17))),
			relation.Numv(float64(i)), // unique price => every tuple distinct
		})
	}
	return r
}

func TestCollectCategoricalPivotCoversAll(t *testing.T) {
	rel := bigRel(3000, 1)
	src := &webdb.ProbeCounter{Src: webdb.NewLocal(rel)}
	got, _, err := collect(context.Background(), src, "Make", 1)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if got.Size() != rel.Size() {
		t.Errorf("collect got %d tuples, source has %d", got.Size(), rel.Size())
	}
	if src.Queries() < 7 { // seed + one per make
		t.Errorf("suspiciously few probes: %d", src.Queries())
	}
}

func TestCollectNumericPivotCoversAll(t *testing.T) {
	rel := bigRel(2000, 3)
	got, _, err := collect(context.Background(), webdb.NewLocal(rel), "Year", 1)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if got.Size() != rel.Size() {
		t.Errorf("numeric pivot covered %d of %d tuples", got.Size(), rel.Size())
	}
}

func TestCollectDeduplicates(t *testing.T) {
	s := carSchema()
	rel := relation.New(s)
	// Two identical tuples: the probed relation keeps one.
	tp := relation.Tuple{relation.Cat("Toyota"), relation.Cat("Camry"), relation.Numv(2000), relation.Numv(9000)}
	rel.Append(tp)
	rel.Append(tp.Clone())
	rel.Append(relation.Tuple{relation.Cat("Honda"), relation.Cat("Civic"), relation.Numv(1999), relation.Numv(7000)})
	got, _, err := collect(context.Background(), webdb.NewLocal(rel), "Make", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 2 {
		t.Errorf("dedup kept %d tuples, want 2", got.Size())
	}
}

// TestCollectKeepsTuplesWithSeparatorBytes: tuples whose strings hold the
// key's separator bytes, or a lone 0x00 where another tuple has NULL, are
// distinct tuples and all survive dedup; an exact duplicate still does not.
func TestCollectKeepsTuplesWithSeparatorBytes(t *testing.T) {
	s := carSchema()
	rel := relation.New(s)
	distinct := []relation.Tuple{
		{relation.Cat("X\x1fY"), relation.Cat("Z"), relation.Numv(2000), relation.Numv(9000)},
		{relation.Cat("X"), relation.Cat("Y\x1fZ"), relation.Numv(2000), relation.Numv(9000)},
		{relation.Cat("\x00"), relation.Cat("Z"), relation.Numv(2000), relation.Numv(9000)},
		{relation.NullValue, relation.Cat("Z"), relation.Numv(2000), relation.Numv(9000)},
	}
	for _, tp := range distinct {
		rel.Append(tp)
	}
	rel.Append(distinct[0].Clone())
	got, _, err := collect(context.Background(), webdb.NewLocal(rel), "Year", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != len(distinct) {
		t.Errorf("dedup kept %d tuples, want %d", got.Size(), len(distinct))
	}
}

func TestCollectPartialSeedStillWorks(t *testing.T) {
	rel := bigRel(5000, 7)
	// The seed sees 2,000 of 5,000 tuples; makes repeat, so spanning
	// still covers all.
	got, _, err := collect(context.Background(), webdb.NewLocal(rel), "Make", 1)
	if err != nil {
		t.Fatal(err)
	}
	// All 6 makes almost surely appear within the first 2,000 tuples.
	if got.Size() != rel.Size() {
		t.Errorf("partial seed covered %d of %d", got.Size(), rel.Size())
	}
}

func TestCollectErrors(t *testing.T) {
	ctx := context.Background()
	rel := bigRel(100, 9)
	if _, _, err := collect(ctx, webdb.NewLocal(rel), "Ghost", 1); err == nil || !strings.Contains(err.Error(), "pivot") {
		t.Errorf("unknown pivot error = %v", err)
	}
	empty := relation.New(carSchema())
	if _, _, err := collect(ctx, webdb.NewLocal(empty), "Make", 1); err == nil {
		t.Errorf("empty source should fail")
	}
}

func TestCollectFlakySource(t *testing.T) {
	rel := bigRel(1000, 12)
	flaky := webdb.NewChaos(webdb.NewLocal(rel), webdb.ChaosConfig{FailEvery: 4})
	// Any failure must surface the injected failure.
	if _, _, err := collect(context.Background(), flaky, "Make", 1); err == nil || !errors.Is(err, webdb.ErrInjected) {
		t.Errorf("collector error = %v", err)
	}
}

// TestSampleSendsSeedQueryOnce: pivot discovery reads the seed probe's own
// tuples, so a Sample sends the unconstrained seed query once and then only
// its spanning queries.
func TestSampleSendsSeedQueryOnce(t *testing.T) {
	rel := bigRel(5000, 3)
	for _, workers := range []int{1, 4} {
		src := &webdb.ProbeCounter{Src: webdb.NewLocal(rel)}
		_, st, err := Sample(context.Background(), src, "", 0, workers, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got, want := src.Queries(), 1+int64(st.SpanningQueries); got != want {
			t.Errorf("workers=%d: %d source queries for %d spanning queries, want %d",
				workers, got, st.SpanningQueries, want)
		}
	}
}

// TestPivotCoverage: coverage lists the candidate pivots in ascending
// order of the distinct values the seed shows, the order pivot discovery
// reads them in.
func TestPivotCoverage(t *testing.T) {
	rel := bigRel(500, 17)
	seed := make([]relation.Tuple, rel.Size())
	for i := range seed {
		seed[i] = rel.Tuple(i)
	}
	infos := coverage(rel.Schema(), seed)
	if len(infos) != 4 {
		t.Fatalf("coverage returned %d attrs", len(infos))
	}
	for i := 1; i < len(infos); i++ {
		if infos[i-1].distinctInSeed > infos[i].distinctInSeed {
			t.Errorf("coverage not sorted: %v", infos)
		}
	}
	// Price is unique per tuple: must be the highest-cardinality pivot.
	if infos[len(infos)-1].attr != "Price" {
		t.Errorf("highest-cardinality pivot = %s, want Price", infos[len(infos)-1].attr)
	}
}

// TestPivotCoverageSourceError: pivot discovery reads the seed query's
// tuples, so a failed seed query fails Sample with the source's error.
func TestPivotCoverageSourceError(t *testing.T) {
	flaky := webdb.NewChaos(webdb.NewLocal(bigRel(10, 18)), webdb.ChaosConfig{FailEvery: 1})
	_, _, err := Sample(context.Background(), flaky, "", 0, 1, rand.New(rand.NewSource(18)))
	if !errors.Is(err, webdb.ErrInjected) || !strings.Contains(err.Error(), "seed query") {
		t.Errorf("failed seed query error = %v", err)
	}
}

func TestParallelCollectMatchesSequential(t *testing.T) {
	rel := bigRel(4000, 41)
	ctx := context.Background()
	a, _, err := collect(ctx, webdb.NewLocal(rel), "Make", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := collect(ctx, &webdb.ProbeCounter{Src: webdb.NewLocal(rel)}, "Make", 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != b.Size() {
		t.Fatalf("sizes differ: %d vs %d", a.Size(), b.Size())
	}
	// Merge order is deterministic: tuple-for-tuple identical.
	sc := rel.Schema()
	for i := 0; i < a.Size(); i++ {
		for j := 0; j < sc.Arity(); j++ {
			if !a.Tuple(i)[j].Equal(b.Tuple(i)[j], sc.Type(j)) {
				t.Fatalf("tuple %d differs between sequential and parallel probing", i)
			}
		}
	}
}

// TestParallelCollectFlaky: a source that fails the k-th spanning query
// fails the collect with the source's error, and no spanning query after
// the failure reaches the source — at one worker, exactly k are sent.
func TestParallelCollectFlaky(t *testing.T) {
	rel := bigRel(2000, 43)
	const k = 3
	for _, workers := range []int{1, 4} {
		src := &failNth{Source: webdb.NewLocal(rel), n: 1 + k} // call 1 is the seed probe
		if _, _, err := collect(context.Background(), src, "Make", workers); !errors.Is(err, errBoom) {
			t.Errorf("workers=%d: err = %v, want the source's error", workers, err)
		}
		if got := src.calls.Load() - 1; workers == 1 && got != k {
			t.Errorf("workers=1: %d spanning queries reached the source, want %d", got, k)
		}
	}
}

var errBoom = errors.New("boom")

// failNth passes queries through to Source, failing only the n-th call.
type failNth struct {
	webdb.Source
	n     int32
	calls atomic.Int32
}

func (f *failNth) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	if f.calls.Add(1) == f.n {
		return nil, errBoom
	}
	return f.Source.QueryContext(ctx, q, limit)
}

// TestSampleStopsOnCancel: a Sample whose context is cancelled after the
// k-th spanning query fails with context.Canceled, and the source sees no
// spanning query after the cancel; at one worker, exactly k are sent.
func TestSampleStopsOnCancel(t *testing.T) {
	rel := bigRel(2000, 43)
	const k = 3
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		src := &cancelNth{
			ProbeCounter: &webdb.ProbeCounter{Src: webdb.NewLocal(rel)},
			n:            1 + k, // call 1 is the seed probe
			workers:      workers,
			cancel:       cancel,
			release:      make(chan struct{}),
		}
		// Year spans 20 range queries, more than k plus the other workers'.
		if _, _, err := Sample(ctx, src, "Year", 0, workers, rand.New(rand.NewSource(1))); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if after := src.Queries() - src.sent; after != 0 {
			t.Errorf("workers=%d: %d spanning queries reached the source after the cancel", workers, after)
		}
		if got := src.sent - 1; workers == 1 && got != k {
			t.Errorf("workers=1: %d spanning queries reached the source, want %d", got, k)
		}
	}
}

// cancelNth passes queries through to a counting source and cancels the
// probe's context once the n-th call has been answered. It holds the n-th
// and later calls until every worker is in one, so that no worker sits
// between its context check and its next call when the cancel lands; sent
// is the number of queries the source had seen then.
type cancelNth struct {
	*webdb.ProbeCounter
	n, workers int
	cancel     context.CancelFunc
	release    chan struct{}

	mu          sync.Mutex
	calls, held int
	sent        int64
}

func (c *cancelNth) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	ts, err := c.ProbeCounter.QueryContext(ctx, q, limit)
	c.mu.Lock()
	c.calls++
	hold := c.calls >= c.n
	if hold {
		c.held++
		if c.held == c.workers {
			c.sent = c.Queries()
			c.cancel()
			close(c.release)
		}
	}
	c.mu.Unlock()
	if hold {
		<-c.release
	}
	return ts, err
}

func TestCollectRecordsStats(t *testing.T) {
	rel := bigRel(1200, 11)
	src := &webdb.ProbeCounter{Src: webdb.NewLocal(rel)}
	got, st, err := collect(context.Background(), src, "Make", 1)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if st.Pivot != "Make" {
		t.Errorf("Pivot = %q", st.Pivot)
	}
	if st.SeedTuples != 1200 {
		t.Errorf("SeedTuples = %d, want 1200", st.SeedTuples)
	}
	if st.SpanningQueries != 6 { // one per distinct make
		t.Errorf("SpanningQueries = %d, want 6", st.SpanningQueries)
	}
	if st.ProbedTuples != got.Size() || st.ProbedTuples != rel.Size() {
		t.Errorf("ProbedTuples = %d, relation %d", st.ProbedTuples, got.Size())
	}
	if st.TuplesReturned < st.ProbedTuples {
		t.Errorf("TuplesReturned %d < ProbedTuples %d", st.TuplesReturned, st.ProbedTuples)
	}
}

// TestParallelCollectDeterministicAcrossWorkerCounts pins the -probe-workers
// determinism contract: the collected sample is tuple-for-tuple identical
// for 1, 4 and 8 workers, because spanning-query results merge in query
// order regardless of completion order. Run under -race this is also the
// concurrency check on the probe worker pool.
func TestParallelCollectDeterministicAcrossWorkerCounts(t *testing.T) {
	rel := bigRel(4000, 51)
	run := func(workers int) *relation.Relation {
		out, _, err := collect(context.Background(), webdb.NewLocal(rel), "Make", workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	base := run(1)
	sc := rel.Schema()
	for _, workers := range []int{4, 8} {
		got := run(workers)
		if got.Size() != base.Size() {
			t.Fatalf("workers=%d: size %d, want %d", workers, got.Size(), base.Size())
		}
		for i := 0; i < base.Size(); i++ {
			for j := 0; j < sc.Arity(); j++ {
				if !base.Tuple(i)[j].Equal(got.Tuple(i)[j], sc.Type(j)) {
					t.Fatalf("workers=%d: tuple %d differs from sequential collect", workers, i)
				}
			}
		}
	}
}
