package main

import (
	"fmt"
	"math/bits"
	"math/rand"

	"aimq/internal/core"
	"aimq/internal/datagen"
	"aimq/internal/query"
	"aimq/internal/relation"
)

// workload is one traffic mix the benchmark drives. Every config field not
// named here stays at its zero value (the library default) or at
// aimq-serve's flag default; see stack.go.
type workload struct {
	name string
	// why records the reason the workload exists: which layers it stresses
	// and which it bypasses.
	why     string
	dataset string // "cardb" or "censusdb"
	tuples  int
	// maxPreds bounds the like predicates per query (1..maxPreds).
	maxPreds int
	// remote serves the relation through an in-process webdb.Server (aimqd's
	// wiring) that the service reaches with webdb.Client.
	remote bool
	// engine holds the per-workload departures from the zero core.Config;
	// OnFailure is set for every workload in stack.go.
	engine     core.Config
	departures []departure
	// open, when set, drives an open loop over a hot pool; otherwise the
	// load is a closed loop over distinct queries.
	open *openLoop
	// countPrefix is how many requests, in stream order, the count metrics
	// (source queries, Work/RelevantTuple, answers, Sim) cover on a closed
	// loop. A fixed prefix makes them repeat exactly for a seed; timings
	// cover the whole window.
	countPrefix int
	// checkEvery is N of the every-Nth request recomputed after the window.
	checkEvery int
	// corePass is how many queries the traced run's direct core pass
	// answers (closed loops; the open loop replays its pool).
	corePass int
}

// departure is one config value that differs from what aimq-serve runs with
// its default flags, with the reason.
type departure struct{ field, value, why string }

// openLoop shapes the car-hot-swap traffic.
type openLoop struct {
	rate float64 // requests per second, sent on a fixed schedule
	// poolAttrs are the attributes the hot pool's queries bind; the pool
	// holds one query per attribute subset of size 1..maxPreds.
	poolAttrs []string
	zipfS     float64 // skew of the draws over the pool
	// poolSeed fixes the data and the hot pool: the workload seed only
	// draws the request sequence. The pool is the workload's definition,
	// and the refill work after a promote, which sets the whole tail,
	// varies with the pool's values.
	poolSeed int64
	// swapAt are fractions of the window at which the source drifts (a
	// webdb.Swap flips between the base and the perturbed relation) and a
	// background re-learn is triggered.
	swapAt  []float64
	perturb datagen.Perturbation
}

var workloads = []*workload{
	{
		name: "car-cold",
		why: "Every request is a distinct query, so the answer cache never hits and Algorithm 1 (core, similarity) " +
			"plus the columnar engine do nearly all the work. This is the workload for changes to core, " +
			"the relaxation schedule or the engine (ROADMAP directions 1 and 5). Its 7-attribute learn spends " +
			"about half its time mining.",
		dataset:     "cardb",
		tuples:      100_000,
		maxPreds:    3,
		countPrefix: 126, // two full rounds of the 63 query shapes
		checkEvery:  16,
		corePass:    63,
	},
	{
		name: "census-remote",
		why: "The paper's premise: a source that only answers boolean form queries over HTTP. Per-call HTTP and " +
			"JSON dominate, so engine and core changes should barely move it while anything that cuts source " +
			"round trips should. Its 13-attribute learn makes TANE mining most of setup.",
		dataset:  "censusdb",
		tuples:   45_000,
		maxPreds: 4,
		remote:   true,
		engine: core.Config{
			Tsim:              0.4,
			MaxQueriesPerBase: 150,
			KeyPruneMaxError:  0.05,
		},
		departures: []departure{
			{"service.Config.Engine.Tsim", "0.4", "the paper's CensusDB threshold (the repo's guided-census scenario)"},
			{"service.Config.Engine.MaxQueriesPerBase", "150", "with aimq-serve's unbounded default a 3-predicate query over " +
				"45k-tuple CensusDB issued ~63k-74k source queries and took ~20 s, one hitting the 30 s deadline; " +
				"that robustness problem is left for a later change"},
			{"service.Config.Engine.KeyPruneMaxError", "0.05", "trust the mined near-key so budgeted steps are not spent " +
				"re-extracting the base tuple (guided-census setting)"},
		},
		countPrefix: 120,
		checkEvery:  16,
		corePass:    60,
	},
	{
		name: "car-hot-swap",
		why: "The only workload where cached rendered responses serve most requests while re-learn, promote and " +
			"cache refill run alongside the reads. Each promote flushes the generation-keyed cache, so the swap " +
			"cliff (ROADMAP direction 3) shows in the tail, as does any change that trades cache-miss speed " +
			"against cache-hit speed.",
		dataset:  "cardb",
		tuples:   100_000,
		maxPreds: 3,
		open: &openLoop{
			rate: 400,
			// The pool is one round of the car-cold generator over the
			// attributes a shopper types first: every query shape over Make,
			// Model and Year once (7 queries). A fixed mix of shapes keeps the
			// refill work after a promote (a few seconds of CPU) alike for
			// every seed. Randomly drawn pools made the tail vary more than
			// twofold between seeds, and larger ones stalled up to 40% of
			// requests behind the refill.
			poolAttrs: []string{"Make", "Model", "Year"},
			zipfS:     1.1,
			poolSeed:  1,
			swapAt:    []float64{0.2, 0.6},
			// Prices inflate and the source stops filling Color on a tenth of
			// its listings. The null rate is what changes the mined model:
			// numeric similarity is bucketed relative to the sample's range,
			// so scaling Price alone re-learns an identical fingerprint and
			// nothing is promoted.
			perturb: datagen.Perturbation{
				ScaleNumeric: map[string]float64{"Price": 1.1},
				NullRate:     map[string]float64{"Color": 0.1},
			},
		},
		departures: []departure{
			{"lifecycle controller", "on, trigger-only", "aimq-serve starts it only with -refresh-interval or " +
				"drift monitoring; here the benchmark triggers the re-learn at each source drift"},
			{"cache warm", "pool pre-warmed with WarmCache", "as aimq-serve's -cache-snapshot does at startup"},
		},
		checkEvery: 64,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// generate builds the workload's relation from the seed; car-hot-swap
// always uses its fixed pool seed.
func (w *workload) generate(seed int64) *relation.Relation {
	if w.open != nil {
		seed = w.open.poolSeed
	}
	if w.dataset == "censusdb" {
		return datagen.GenerateCensusDB(w.tuples, seed).Rel
	}
	return datagen.GenerateCarDB(w.tuples, seed).Rel
}

// queryStream returns n distinct imprecise queries over rel in the
// /answer?q= text form, skipping any already in seen (and adding its own).
// Queries are drawn in rounds: each round visits every attribute subset of
// size 1..maxPreds once, in a seeded order, and binds each chosen attribute
// with "like" to its value in a random tuple. Rounds fix the mix of query
// shapes, and query cost depends mostly on shape (a bound numeric attribute
// is selective, a lone categorical one is not), so every seed sees the same
// share of expensive queries.
func queryStream(rel *relation.Relation, attrs []int, maxPreds, n int, rng *rand.Rand, seen map[string]bool) []string {
	shapes := shapesOf(attrs, maxPreds)
	out := make([]string, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(len(shapes)) {
			if len(out) == n {
				break
			}
			for try := 0; try < 20; try++ {
				text, ok := shapeQuery(rel, shapes[i], rng)
				if ok && !seen[text] {
					seen[text] = true
					out = append(out, text)
					break
				}
			}
		}
	}
	return out
}

// shapesOf lists every subset of attrs with 1..maxPreds members.
func shapesOf(attrs []int, maxPreds int) [][]int {
	var shapes [][]int
	for mask := 1; mask < 1<<len(attrs); mask++ {
		if bits.OnesCount(uint(mask)) > maxPreds {
			continue
		}
		var shape []int
		for i, a := range attrs {
			if mask&(1<<i) != 0 {
				shape = append(shape, a)
			}
		}
		shapes = append(shapes, shape)
	}
	return shapes
}

// shapeQuery binds the given attributes to a random tuple's values. ok is
// false when the tuple holds a null there.
func shapeQuery(rel *relation.Relation, attrs []int, rng *rand.Rand) (string, bool) {
	sc := rel.Schema()
	t := rel.Tuple(rng.Intn(rel.Size()))
	q := query.New(sc)
	for _, a := range attrs {
		if t[a].IsNull() {
			return "", false
		}
		q.Preds = append(q.Preds, query.Predicate{Attr: a, Op: query.OpLike, Value: t[a]})
	}
	// Text sorts predicates by attribute, so equal texts are equal cache keys.
	return q.Text(), true
}

// plan is the seeded request stream of one run.
type plan struct {
	warmup []string // closed loop: distinct queries answered before the window
	stream []string // closed loop: the measured stream; open loop: the hot pool
	// draws are the pool indices of the open loop's requests, in send order.
	draws []int
}

// makePlan derives every input of a run from the seed. The data seed and the
// query seeds are separate streams, so the queries of a seed do not depend on
// how many tuples the generator drew.
func (w *workload) makePlan(rel *relation.Relation, seed int64, seconds int) plan {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	seen := map[string]bool{}
	sc := rel.Schema()
	var p plan
	if w.open == nil {
		all := make([]int, sc.Arity())
		for a := range all {
			all[a] = a
		}
		p.warmup = queryStream(rel, all, w.maxPreds, 4, rng, seen)
		// Generous head-room: the closed loop stops at the deadline, long
		// before it runs out of queries on any plausible machine.
		p.stream = queryStream(rel, all, w.maxPreds, max(w.countPrefix, 100*seconds), rng, seen)
		return p
	}
	var attrs []int
	for _, name := range w.open.poolAttrs {
		attrs = append(attrs, sc.MustIndex(name))
	}
	pool := len(shapesOf(attrs, w.maxPreds))
	p.stream = queryStream(rel, attrs, w.maxPreds, pool, rand.New(rand.NewSource(w.open.poolSeed)), seen)
	zipf := rand.NewZipf(rng, w.open.zipfS, 1, uint64(pool-1))
	p.draws = make([]int, int(w.open.rate*float64(seconds)))
	for i := range p.draws {
		p.draws[i] = int(zipf.Uint64())
	}
	return p
}

func (w *workload) String() string {
	return fmt.Sprintf("%s (%s, %d tuples)", w.name, w.dataset, w.tuples)
}
