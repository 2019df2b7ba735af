package probe

import (
	"errors"
	"math/rand"
	"strings"
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
	c := New(src)
	c.SeedProbeLimit = 3000 // seed sees everything => full coverage
	got, err := c.Collect("Make")
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if got.Size() != rel.Size() {
		t.Errorf("Collect got %d tuples, source has %d", got.Size(), rel.Size())
	}
	if src.Queries() < 7 { // seed + one per make
		t.Errorf("suspiciously few probes: %d", src.Queries())
	}
}

func TestCollectNumericPivotCoversAll(t *testing.T) {
	rel := bigRel(2000, 3)
	src := webdb.NewLocal(rel)
	c := New(src)
	c.SeedProbeLimit = 2000
	got, err := c.Collect("Year")
	if err != nil {
		t.Fatalf("Collect: %v", err)
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
	c := New(webdb.NewLocal(rel))
	got, err := c.Collect("Make")
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
	c := New(webdb.NewLocal(rel))
	got, err := c.Collect("Year")
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != len(distinct) {
		t.Errorf("dedup kept %d tuples, want %d", got.Size(), len(distinct))
	}
}

func TestCollectPartialSeedStillWorks(t *testing.T) {
	rel := bigRel(5000, 7)
	c := New(webdb.NewLocal(rel))
	c.SeedProbeLimit = 200 // seed sees a fraction; makes repeat, so spanning still covers all
	got, err := c.Collect("Make")
	if err != nil {
		t.Fatal(err)
	}
	// All 6 makes almost surely appear within the first 200 tuples.
	if got.Size() != rel.Size() {
		t.Errorf("partial seed covered %d of %d", got.Size(), rel.Size())
	}
}

func TestCollectErrors(t *testing.T) {
	rel := bigRel(100, 9)
	c := New(webdb.NewLocal(rel))
	if _, err := c.Collect("Ghost"); err == nil || !strings.Contains(err.Error(), "pivot") {
		t.Errorf("unknown pivot error = %v", err)
	}
	empty := relation.New(carSchema())
	ce := New(webdb.NewLocal(empty))
	if _, err := ce.Collect("Make"); err == nil {
		t.Errorf("empty source should fail")
	}
}

func TestCollectFlakySource(t *testing.T) {
	rel := bigRel(1000, 12)
	flaky := webdb.NewChaos(webdb.NewLocal(rel), webdb.ChaosConfig{FailEvery: 4})
	c := New(flaky)
	c.SeedProbeLimit = 1000
	// Any failure must surface the injected failure.
	if _, err := c.Collect("Make"); err == nil || !errors.Is(err, webdb.ErrInjected) {
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
		_, st, err := Sample(src, "", 0, workers, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got, want := src.Queries(), 1+int64(st.SpanningQueries); got != want {
			t.Errorf("workers=%d: %d source queries for %d spanning queries, want %d",
				workers, got, st.SpanningQueries, want)
		}
	}
}

func TestPivotCoverage(t *testing.T) {
	rel := bigRel(500, 17)
	infos, err := PivotCoverage(webdb.NewLocal(rel), 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 4 {
		t.Fatalf("PivotCoverage returned %d attrs", len(infos))
	}
	for i := 1; i < len(infos); i++ {
		if infos[i-1].DistinctInSeed > infos[i].DistinctInSeed {
			t.Errorf("PivotCoverage not sorted: %v", infos)
		}
	}
	// Price is unique per tuple: must be the highest-cardinality pivot.
	if infos[len(infos)-1].Attr != "Price" {
		t.Errorf("highest-cardinality pivot = %s, want Price", infos[len(infos)-1].Attr)
	}
}

func TestPivotCoverageSourceError(t *testing.T) {
	flaky := webdb.NewChaos(webdb.NewLocal(bigRel(10, 18)), webdb.ChaosConfig{FailEvery: 1})
	if _, err := PivotCoverage(flaky, 10); err == nil {
		t.Errorf("PivotCoverage swallowed source error")
	}
}

func TestParallelCollectMatchesSequential(t *testing.T) {
	rel := bigRel(4000, 41)
	seq := New(webdb.NewLocal(rel))
	seq.SeedProbeLimit = 4000
	par := New(&webdb.ProbeCounter{Src: webdb.NewLocal(rel)})
	par.SeedProbeLimit = 4000
	par.Parallelism = 6

	a, err := seq.Collect("Make")
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.Collect("Make")
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
		c := New(src)
		c.Parallelism = workers
		if _, err := c.Collect("Make"); !errors.Is(err, errBoom) {
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

func (f *failNth) Query(q *query.Query, limit int) ([]relation.Tuple, error) {
	if f.calls.Add(1) == f.n {
		return nil, errBoom
	}
	return f.Source.Query(q, limit)
}

func TestCollectRecordsStats(t *testing.T) {
	rel := bigRel(1200, 11)
	src := &webdb.ProbeCounter{Src: webdb.NewLocal(rel)}
	c := New(src)
	c.SeedProbeLimit = 1200
	got, err := c.Collect("Make")
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	st := c.Stats
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
	collect := func(workers int) *relation.Relation {
		c := New(webdb.NewLocal(rel))
		c.SeedProbeLimit = 4000
		c.Parallelism = workers
		out, err := c.Collect("Make")
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	base := collect(1)
	sc := rel.Schema()
	for _, workers := range []int{4, 8} {
		got := collect(workers)
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
