package experiments

import (
	"fmt"
	"strings"
	"time"

	"aimq/internal/rock"
)

// Table2Result reproduces Table 2: offline computation time of AIMQ
// (supertuple generation + similarity estimation) vs ROCK (link
// computation and clustering on a small sample, then data labeling) on the
// CarDB study sample and the CensusDB dataset.
type Table2Result struct {
	CarN, CensusN int

	CarAIMQSuperTuple time.Duration
	CarAIMQSimilarity time.Duration
	CarRock           rock.Timings
	CensusAIMQSuper   time.Duration
	CensusAIMQSim     time.Duration
	CensusRock        rock.Timings
	RockSampleCar     int
	RockSampleCensus  int
}

// RunTable2 measures the offline phases.
func RunTable2(l *Lab) (*Table2Result, error) {
	out := &Table2Result{}

	// AIMQ offline on the CarDB study sample (paper: 25k).
	carN := l.P.StudySample
	carPipe, err := l.CarPipeline(carN)
	if err != nil {
		return nil, err
	}
	out.CarN = carN
	out.CarAIMQSuperTuple = carPipe.Stats.Stage("supertuple")
	out.CarAIMQSimilarity = carPipe.Stats.Stage("similarity")

	// ROCK offline on the same CarDB sample.
	out.RockSampleCar = l.P.RockSample
	carRock, err := rock.Cluster(l.CarSample(carN), rock.Config{
		Theta: l.P.Theta, SampleSize: l.P.RockSample, Seed: l.P.Seed + 31,
	})
	if err != nil {
		return nil, fmt.Errorf("table2 cardb rock: %w", err)
	}
	out.CarRock = carRock.Timings

	// AIMQ offline on the full CensusDB.
	census := l.Census()
	censusPipe, err := BuildPipeline(census.Rel, l.P.CensusTerr, l.P.CensusLHS)
	if err != nil {
		return nil, fmt.Errorf("table2 censusdb pipeline: %w", err)
	}
	out.CensusN = census.Rel.Size()
	out.CensusAIMQSuper = censusPipe.Stats.Stage("supertuple")
	out.CensusAIMQSim = censusPipe.Stats.Stage("similarity")

	out.RockSampleCensus = l.P.RockCensusSample
	censusRock, err := rock.Cluster(census.Rel, rock.Config{
		Theta: l.P.Theta, SampleSize: l.P.RockCensusSample, Seed: l.P.Seed + 32,
	})
	if err != nil {
		return nil, fmt.Errorf("table2 censusdb rock: %w", err)
	}
	out.CensusRock = censusRock.Timings
	return out, nil
}

// AIMQTotalCar is AIMQ's total offline time on CarDB.
func (r *Table2Result) AIMQTotalCar() time.Duration {
	return r.CarAIMQSuperTuple + r.CarAIMQSimilarity
}

// RockTotalCar is ROCK's total offline time on CarDB.
func (r *Table2Result) RockTotalCar() time.Duration {
	return r.CarRock.LinkComputation + r.CarRock.InitialClustering + r.CarRock.DataLabeling
}

// AIMQTotalCensus is AIMQ's total offline time on CensusDB.
func (r *Table2Result) AIMQTotalCensus() time.Duration {
	return r.CensusAIMQSuper + r.CensusAIMQSim
}

// RockTotalCensus is ROCK's total offline time on CensusDB.
func (r *Table2Result) RockTotalCensus() time.Duration {
	return r.CensusRock.LinkComputation + r.CensusRock.InitialClustering + r.CensusRock.DataLabeling
}

// Render prints the table in the paper's layout.
func (r *Table2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Offline Computation Time\n")
	fmt.Fprintf(&b, "%-28s %14s %14s\n", "", fmt.Sprintf("CarDB (%dk)", r.CarN/1000), fmt.Sprintf("CensusDB (%dk)", r.CensusN/1000))
	fmt.Fprintf(&b, "AIMQ\n")
	fmt.Fprintf(&b, "  %-26s %14s %14s\n", "SuperTuple Generation", fmtDur(r.CarAIMQSuperTuple), fmtDur(r.CensusAIMQSuper))
	fmt.Fprintf(&b, "  %-26s %14s %14s\n", "Similarity Estimation", fmtDur(r.CarAIMQSimilarity), fmtDur(r.CensusAIMQSim))
	fmt.Fprintf(&b, "ROCK\n")
	fmt.Fprintf(&b, "  %-26s %14s %14s\n",
		fmt.Sprintf("Link Computation (%dk)", r.RockSampleCar/1000),
		fmtDur(r.CarRock.LinkComputation), fmtDur(r.CensusRock.LinkComputation))
	fmt.Fprintf(&b, "  %-26s %14s %14s\n",
		fmt.Sprintf("Initial Clustering (%dk)", r.RockSampleCar/1000),
		fmtDur(r.CarRock.InitialClustering), fmtDur(r.CensusRock.InitialClustering))
	fmt.Fprintf(&b, "  %-26s %14s %14s\n", "Data Labeling",
		fmtDur(r.CarRock.DataLabeling), fmtDur(r.CensusRock.DataLabeling))
	fmt.Fprintf(&b, "\nAIMQ total: CarDB %s, CensusDB %s\n", fmtDur(r.AIMQTotalCar()), fmtDur(r.AIMQTotalCensus()))
	fmt.Fprintf(&b, "ROCK total: CarDB %s, CensusDB %s\n", fmtDur(r.RockTotalCar()), fmtDur(r.RockTotalCensus()))
	return b.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fmin", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%dms", d.Milliseconds())
	}
}
