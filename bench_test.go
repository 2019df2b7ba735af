// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6), one testing.B target per artifact, plus ablation benches for the
// design choices DESIGN.md calls out. Each bench runs the corresponding
// experiment at quick scale and reports the paper's headline quantity as a
// custom metric, so `go test -bench . -benchmem` both exercises the code
// paths and prints the reproduced numbers.
//
// Run the paper-scale versions through cmd/aimq-experiments -full; absolute
// wall-clock differs from the 2006 testbed, but the reported shapes hold
// (see EXPERIMENTS.md).
package aimq

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"aimq/internal/afd"
	"aimq/internal/core"
	"aimq/internal/experiments"
	"aimq/internal/probe"
	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/similarity"
	"aimq/internal/supertuple"
	"aimq/internal/tane"
	"aimq/internal/webdb"
)

// benchLab is shared across benches: experiments only read from it, and
// building datasets per-bench would swamp the timings.
var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

func lab() *experiments.Lab {
	benchLabOnce.Do(func() { benchLab = experiments.NewLab(experiments.Quick()) })
	return benchLab
}

// BenchmarkTable2_AIMQOffline times AIMQ's offline phase (supertuple
// generation + similarity estimation) on the CarDB study sample — the upper
// half of Table 2.
func BenchmarkTable2_AIMQOffline(b *testing.B) {
	l := lab()
	sample := l.CarSample(l.P.StudySample)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BuildPipeline(sample, l.P.Terr, l.P.MaxLHS); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_ROCKOffline times ROCK's offline phase (links, clustering,
// labeling) — the lower half of Table 2. The AIMQ/ROCK ratio is the table's
// headline.
func BenchmarkTable2_ROCKOffline(b *testing.B) {
	r, err := experiments.RunTable2(lab())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(r.RockTotalCar().Microseconds())/float64(r.AIMQTotalCar().Microseconds()), "rock/aimq-ratio")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable2(lab()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3_AttributeOrdering regenerates Figure 3 and reports the rank
// correlation between the smallest sample's attribute ordering and the full
// database's (the robustness headline).
func BenchmarkFig3_AttributeOrdering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig3(lab())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SpearmanVsFull[0], "spearman-vs-full")
	}
}

// BenchmarkFig4_KeyMining regenerates Figure 4 and reports whether the
// best key survives sampling (1 = stable).
func BenchmarkFig4_KeyMining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig4(lab())
		if err != nil {
			b.Fatal(err)
		}
		stable := 0.0
		if r.BestKeyStable() {
			stable = 1
		}
		b.ReportMetric(stable, "bestkey-stable")
	}
}

// BenchmarkTable3_SimilarityRobustness regenerates Table 3 and reports the
// mean top-3 overlap between sample and full-database value neighborhoods.
func BenchmarkTable3_SimilarityRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable3(lab())
		if err != nil {
			b.Fatal(err)
		}
		total := 0.0
		for _, row := range r.Rows {
			total += row.OrderOverlap
		}
		b.ReportMetric(total/float64(len(r.Rows)), "top3-overlap")
	}
}

// BenchmarkFig5_SimilarityGraph regenerates Figure 5 (the Make similarity
// graph) and reports Ford's degree.
func BenchmarkFig5_SimilarityGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig5(lab())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.FordEdges)), "ford-degree")
	}
}

// BenchmarkFig6_GuidedRelax regenerates Figure 6 and reports the average
// Work/RelevantTuple at the highest threshold.
func BenchmarkFig6_GuidedRelax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig6(lab())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Avg[len(r.Avg)-1], "work/relevant@0.9")
	}
}

// BenchmarkFig7_RandomRelax regenerates Figure 7; compare its
// work/relevant@0.9 against Figure 6's.
func BenchmarkFig7_RandomRelax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig7(lab())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Avg[len(r.Avg)-1], "work/relevant@0.9")
	}
}

// BenchmarkFig8_UserStudy regenerates Figure 8 and reports the MRR margin of
// GuidedRelax over ROCK (positive = paper's result).
func BenchmarkFig8_UserStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig8(lab())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MRR["AIMQ-GuidedRelax"]-r.MRR["ROCK"], "mrr-margin-vs-rock")
	}
}

// BenchmarkFig9_CensusAccuracy regenerates Figure 9 and reports AIMQ's
// accuracy margin over ROCK averaged across k.
func BenchmarkFig9_CensusAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig9(lab())
		if err != nil {
			b.Fatal(err)
		}
		margin := 0.0
		for ki := range r.Ks {
			margin += r.Accuracy["AIMQ"][ki] - r.Accuracy["ROCK"][ki]
		}
		b.ReportMetric(margin/float64(len(r.Ks)), "accuracy-margin-vs-rock")
	}
}

// --- component benches: the building blocks' raw cost ---

func benchCarSample(b *testing.B, n int) *relation.Relation {
	b.Helper()
	return lab().CarSample(n)
}

// BenchmarkTANE times dependency mining alone at two sample sizes.
func BenchmarkTANE(b *testing.B) {
	for _, n := range []int{1500, 5000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sample := benchCarSample(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tane.Miner{Terr: 0.15, MaxLHS: 3}.Mine(sample)
			}
		})
	}
}

// BenchmarkSuperTupleBuild times AV-pair supertuple construction.
func BenchmarkSuperTupleBuild(b *testing.B) {
	sample := benchCarSample(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		supertuple.Builder{Buckets: 10}.Build(sample)
	}
}

// BenchmarkSimilarityEstimation times the pairwise VSim matrices (the
// O(m·k²) phase Table 2 isolates).
func BenchmarkSimilarityEstimation(b *testing.B) {
	sample := benchCarSample(b, 5000)
	mined := tane.Miner{Terr: 0.15, MaxLHS: 3}.Mine(sample)
	ord, err := afd.Order(mined)
	if err != nil {
		b.Fatal(err)
	}
	idx := supertuple.Builder{Buckets: 10}.Build(sample)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		similarity.New(idx, ord, similarity.Config{})
	}
}

// BenchmarkAnswerQuery times one end-to-end imprecise query against the
// quick-scale CarDB (online phase only).
func BenchmarkAnswerQuery(b *testing.B) {
	l := lab()
	pipe, err := l.CarPipeline(l.P.StudySample)
	if err != nil {
		b.Fatal(err)
	}
	eng := core.New(webdb.NewLocal(l.Car().Rel), pipe.Est, &core.Guided{Ord: pipe.Ord}, core.Config{
		Tsim: 0.5, K: 10, TargetRelevant: 30,
	})
	q := query.New(l.Car().Rel.Schema()).
		Where("Model", query.OpLike, relation.Cat("Camry")).
		Where("Price", query.OpLike, relation.Numv(10000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Answer(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches (DESIGN.md §5) ---

// BenchmarkAblation_TaneMaxLHS quantifies mining cost vs antecedent bound.
func BenchmarkAblation_TaneMaxLHS(b *testing.B) {
	sample := benchCarSample(b, 2500)
	for _, maxLHS := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("maxlhs=%d", maxLHS), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := tane.Miner{Terr: 0.15, MaxLHS: maxLHS}.Mine(sample)
				b.ReportMetric(float64(len(res.AFDs)), "afds")
			}
		})
	}
}

// BenchmarkAblation_SupertupleBuckets quantifies similarity-estimation cost
// and neighborhood stability vs numeric bucket count.
func BenchmarkAblation_SupertupleBuckets(b *testing.B) {
	sample := benchCarSample(b, 2500)
	mined := tane.Miner{Terr: 0.15, MaxLHS: 3}.Mine(sample)
	ord, err := afd.Order(mined)
	if err != nil {
		b.Fatal(err)
	}
	model := sample.Schema().MustIndex("Model")
	for _, buckets := range []int{5, 10, 20, 40} {
		b.Run(fmt.Sprintf("buckets=%d", buckets), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx := supertuple.Builder{Buckets: buckets}.Build(sample)
				est := similarity.New(idx, ord, similarity.Config{})
				top := est.TopSimilar(model, "Camry", 1)
				hit := 0.0
				if len(top) > 0 && (top[0].Value == "Accord" || top[0].Value == "Corolla" ||
					top[0].Value == "Altima" || top[0].Value == "Taurus" || top[0].Value == "Malibu") {
					hit = 1
				}
				b.ReportMetric(hit, "camry-top1-is-sedan")
			}
		})
	}
}

// BenchmarkAblation_RelaxationStrategy compares the online work of guided
// and random relaxation for the same query.
func BenchmarkAblation_RelaxationStrategy(b *testing.B) {
	l := lab()
	pipe, err := l.CarPipeline(l.P.StudySample)
	if err != nil {
		b.Fatal(err)
	}
	src := webdb.NewLocal(l.Car().Rel)
	q := query.New(l.Car().Rel.Schema()).
		Where("Model", query.OpLike, relation.Cat("Accord")).
		Where("Price", query.OpLike, relation.Numv(9000))
	strategies := map[string]core.Relaxer{
		"guided": &core.Guided{Ord: pipe.Ord},
		"random": &core.Random{Rng: rand.New(rand.NewSource(1))},
	}
	for name, relaxer := range strategies {
		b.Run(name, func(b *testing.B) {
			eng := core.New(src, pipe.Est, relaxer, core.Config{Tsim: 0.6, K: 10, TargetRelevant: 20})
			for i := 0; i < b.N; i++ {
				res, err := eng.Answer(q)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Work.TuplesExtracted), "tuples-extracted")
			}
		})
	}
}

// BenchmarkAblation_MinedVsUniformWeights compares ranking with mined
// importance weights against uniform weights on the user-study metric —
// the heart of the paper's Figure 8 contrast.
func BenchmarkAblation_MinedVsUniformWeights(b *testing.B) {
	l := lab()
	pipe, err := l.CarPipeline(l.P.StudySample)
	if err != nil {
		b.Fatal(err)
	}
	car := l.Car()
	uniform := similarity.New(pipe.Est.Index, afd.Uniform(car.Rel.Schema()), similarity.Config{})
	src := webdb.NewLocal(car.Rel)
	tuple := car.Rel.Tuple(3)
	q := query.FromTuple(car.Rel.Schema(), tuple)
	for i := range q.Preds {
		q.Preds[i].Op = query.OpLike
	}
	for name, est := range map[string]*similarity.Estimator{"mined": pipe.Est, "uniform": uniform} {
		b.Run(name, func(b *testing.B) {
			eng := core.New(src, est, &core.Guided{Ord: pipe.Ord}, core.Config{Tsim: 0.3, K: 10, BaseLimit: 3})
			for i := 0; i < b.N; i++ {
				if _, err := eng.Answer(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Terr sweeps the g3 error threshold and reports how many
// dependencies qualify — the knob DESIGN.md §5a discusses (too loose and
// near-constant attributes flood the weights; too tight and nothing mines).
func BenchmarkAblation_Terr(b *testing.B) {
	sample := benchCarSample(b, 2500)
	for _, terr := range []float64{0.05, 0.10, 0.15, 0.25} {
		b.Run(fmt.Sprintf("terr=%.2f", terr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := tane.Miner{Terr: terr, MaxLHS: 3}.Mine(sample)
				b.ReportMetric(float64(len(res.AFDs)), "afds")
				b.ReportMetric(float64(len(res.AKeys)), "akeys")
			}
		})
	}
}

// BenchmarkProbeParallelism measures probing wall-clock vs concurrency
// against an in-process source (network sources benefit far more).
func BenchmarkProbeParallelism(b *testing.B) {
	rel := lab().Car().Rel
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := probe.Sample(context.Background(), webdb.NewLocal(rel), "Make", 0, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
