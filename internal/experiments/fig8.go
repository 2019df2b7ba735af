package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"aimq/internal/afd"
	"aimq/internal/core"
	"aimq/internal/metrics"
	"aimq/internal/relation"
	"aimq/internal/rock"
	"aimq/internal/similarity"
	"aimq/internal/userstudy"
	"aimq/internal/webdb"
)

// Fig8Result reproduces Figure 8 (average MRR of the user study): random
// CarDB tuples are posed as imprecise queries; GuidedRelax, RandomRelax and
// ROCK each contribute their 10 most similar tuples; a panel of simulated
// users re-ranks every answer list; answer quality is the paper's redefined
// MRR. Attribute importance and value similarities are learned from the
// study sample (paper: 25k). Expected shape: MRR(Guided) > MRR(Random) and
// MRR(Guided) > MRR(ROCK).
//
// The result also reports RankingAlignment — how well each system's
// similarity model orders broad candidate pools against the users' latent
// notion. This isolates the paper's conclusion ("the attribute ordering
// heuristic is able to closely approximate the importance users ascribe to
// the various attributes") from the top-10 MRR protocol, which loses
// sensitivity when a dense database hands every system near-identical
// near-perfect answer lists.
type Fig8Result struct {
	Queries int
	Users   int
	// MRR maps system name → mean MRR over queries and users.
	MRR map[string]float64
	// PerQuery maps system name → per-query mean MRR.
	PerQuery map[string][]float64
	// RankingAlignment maps similarity model → mean Spearman correlation
	// of its candidate ranking against the latent user ranking.
	RankingAlignment map[string]float64
	// NDCG maps system name → mean nDCG of its top-10 against the latent
	// graded relevance.
	NDCG map[string]float64
}

// RunFig8 runs the simulated user study.
func RunFig8(l *Lab) (*Fig8Result, error) {
	car := l.Car()
	pipe, err := l.CarPipeline(l.P.StudySample)
	if err != nil {
		return nil, err
	}
	// Answers come from the study sample itself — the dataset the paper's
	// systems were set up over for the study (importance weights, value
	// similarities and ROCK's clusters are all learned from it).
	sample := l.CarSample(l.P.StudySample)
	src := webdb.NewLocal(sample)
	mkConfig := core.Config{
		Tsim:      0.5, // the paper's default threshold
		K:         10,
		BaseLimit: 5,
	}
	guided := core.New(src, pipe.Est, &core.Guided{Ord: pipe.Ord}, mkConfig)
	// RandomRelax, per the paper, "gives equal importance to all the
	// attributes": it shares AIMQ's association-mined value similarities
	// but gates and ranks with uniform weights.
	uniformEst := similarity.New(pipe.Est.Index, afd.Uniform(car.Rel.Schema()), similarity.Config{})
	random := core.New(src, uniformEst, &core.Random{Rng: rand.New(rand.NewSource(l.P.Seed + 81))}, mkConfig)

	clustering, err := rock.Cluster(sample, rock.Config{
		Theta: l.P.Theta, SampleSize: l.P.RockSample, Seed: l.P.Seed + 82,
	})
	if err != nil {
		return nil, fmt.Errorf("fig8 rock: %w", err)
	}
	rockAns := &rock.Answerer{C: clustering, K: 10}

	panel := userstudy.NewPanel(car, l.P.StudyUsers, l.P.Seed+83)
	rng := rand.New(rand.NewSource(l.P.Seed + 84))
	queryTuples := car.Rel.Sample(l.P.StudyQueries, rng).Tuples()

	out := &Fig8Result{
		Queries:          len(queryTuples),
		Users:            l.P.StudyUsers,
		MRR:              map[string]float64{},
		PerQuery:         map[string][]float64{},
		RankingAlignment: map[string]float64{},
		NDCG:             map[string]float64{},
	}
	ndcg := map[string][]float64{}
	sc := car.Rel.Schema()
	for _, t := range queryTuples {
		q := likeQuery(sc, t)
		for _, system := range []core.Answerer{guided, random} {
			res, err := system.Answer(q)
			if err != nil {
				return nil, fmt.Errorf("fig8 %s: %w", system.Name(), err)
			}
			out.PerQuery[system.Name()] = append(out.PerQuery[system.Name()], panel.Score(t, res.Answers))
			ndcg[system.Name()] = append(ndcg[system.Name()], panel.ScoreNDCG(t, res.Answers))
		}
		// ROCK supplies its 10 most similar tuples under its own measure.
		rockAnswers := rockAns.SimilarTuples(t, 10)
		out.PerQuery[rockAns.Name()] = append(out.PerQuery[rockAns.Name()], panel.Score(t, rockAnswers))
		ndcg[rockAns.Name()] = append(ndcg[rockAns.Name()], panel.ScoreNDCG(t, rockAnswers))
	}
	for name, scores := range out.PerQuery {
		out.MRR[name] = metrics.Mean(scores)
	}
	for name, scores := range ndcg {
		out.NDCG[name] = metrics.Mean(scores)
	}

	// Ranking alignment over broad pools: 150 same-make + 50 arbitrary
	// candidates per query, ranked by each similarity model and correlated
	// against the latent user similarity.
	poolRng := rand.New(rand.NewSource(l.P.Seed + 85))
	align := map[string][]float64{}
	for _, qt := range queryTuples {
		q := likeQuery(sc, qt)
		var cands []relation.Tuple
		for tries := 0; len(cands) < 150 && tries < 20000; tries++ {
			c := sample.Tuple(poolRng.Intn(sample.Size()))
			if c[0].Str == qt[0].Str {
				cands = append(cands, c)
			}
		}
		for i := 0; i < 50; i++ {
			cands = append(cands, sample.Tuple(poolRng.Intn(sample.Size())))
		}
		var latent, mined, uniform, rockSim []float64
		minedW := pipe.Est.Ordering.ImportanceWeights(q.BoundAttrs())
		uniformW := uniformEst.Ordering.ImportanceWeights(q.BoundAttrs())
		for _, c := range cands {
			latent = append(latent, car.TrueTupleSim(qt, c))
			mined = append(mined, pipe.Est.Sim(q, c, minedW))
			uniform = append(uniform, uniformEst.Sim(q, c, uniformW))
			rockSim = append(rockSim, rockAns.Similarity(qt, c))
		}
		align["AIMQ-GuidedRelax"] = append(align["AIMQ-GuidedRelax"], metrics.Spearman(mined, latent))
		align["AIMQ-RandomRelax"] = append(align["AIMQ-RandomRelax"], metrics.Spearman(uniform, latent))
		align["ROCK"] = append(align["ROCK"], metrics.Spearman(rockSim, latent))
	}
	for name, rhos := range align {
		out.RankingAlignment[name] = metrics.Mean(rhos)
	}
	return out, nil
}

// Systems returns the system names in the paper's presentation order.
func (r *Fig8Result) Systems() []string {
	return []string{"AIMQ-GuidedRelax", "AIMQ-RandomRelax", "ROCK"}
}

// Render prints the MRR bars and the ranking-alignment supplement.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: Average MRR over CarDB (%d queries, %d simulated users)\n", r.Queries, r.Users)
	fmt.Fprintf(&b, "%-20s %8s %8s %28s\n", "System", "MRR", "nDCG", "ranking alignment (Spearman)")
	for _, name := range r.Systems() {
		fmt.Fprintf(&b, "%-20s %8.4f %8.4f %28.4f\n", name, r.MRR[name], r.NDCG[name], r.RankingAlignment[name])
	}
	return b.String()
}
