// Command aimq-mine runs AIMQ's offline phase (internal/learn) over a CSV
// relation and prints what it learned: approximate functional
// dependencies, approximate keys, the attribute relaxation order with
// importance weights, and (optionally) mined value neighborhoods.
//
// Usage:
//
//	aimq-mine -data cardb.csv -terr 0.15 -maxlhs 3
//	aimq-mine -data cardb.csv -similar Make=Ford,Model=Camry
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"aimq/internal/learn"
	"aimq/internal/relation"
)

func main() {
	data := flag.String("data", "", "CSV file to mine")
	terr := flag.Float64("terr", 0.15, "g3 error threshold")
	maxLHS := flag.Int("maxlhs", 3, "max antecedent size")
	minimal := flag.Bool("minimal", false, "report only minimal dependencies")
	topAFDs := flag.Int("afds", 25, "number of AFDs to print")
	similar := flag.String("similar", "", "comma-separated Attr=Value pairs to show mined neighborhoods for")
	workers := flag.Int("workers", 1, "offline-phase workers: TANE levels, supertuple build and the VSim sweep (results are identical at any count)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aimq-mine:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "aimq-mine:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	err := run(*data, *terr, *maxLHS, *minimal, *topAFDs, *similar, *workers)

	if *memProfile != "" {
		f, mErr := os.Create(*memProfile)
		if mErr == nil {
			runtime.GC()
			mErr = pprof.WriteHeapProfile(f)
			f.Close()
		}
		if mErr != nil {
			fmt.Fprintln(os.Stderr, "aimq-mine: memprofile:", mErr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aimq-mine:", err)
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(1)
	}
}

func run(data string, terr float64, maxLHS int, minimal bool, topAFDs int, similar string, workers int) error {
	if data == "" {
		return fmt.Errorf("need -data")
	}
	rel, err := relation.LoadCSV(data)
	if err != nil {
		return err
	}
	fmt.Printf("mining %d tuples of %s (Terr=%.2f, MaxLHS=%d, workers=%d)\n\n", rel.Size(), rel.Schema(), terr, maxLHS, workers)

	m, err := learn.FromSample(rel, learn.Config{Terr: terr, MaxLHS: maxLHS, MinimalOnly: minimal, Workers: workers})
	if err != nil {
		return err
	}
	res := m.Mined
	fmt.Printf("lattice: %d levels, %d sets examined, %d partition products (%d pruned/reused), peak partition memory %d bytes\n\n",
		res.LevelsVisited, res.SetsExamined, res.ProductsComputed, res.PartitionCacheHits, res.PeakPartitionBytes)
	fmt.Printf("approximate functional dependencies: %d (top %d by support)\n", len(res.AFDs), topAFDs)
	for i, a := range res.AFDs {
		if i >= topAFDs {
			break
		}
		fmt.Println("  " + a.Render(rel.Schema()))
	}
	fmt.Printf("\napproximate keys: %d\n", len(res.AKeys))
	for _, k := range res.AKeys {
		fmt.Println("  " + k.Render(rel.Schema()))
	}
	fmt.Println()
	fmt.Print(m.Ord.Describe())

	if similar != "" {
		fmt.Println("\nmined value neighborhoods:")
		for _, pair := range strings.Split(similar, ",") {
			parts := strings.SplitN(strings.TrimSpace(pair), "=", 2)
			if len(parts) != 2 {
				return fmt.Errorf("bad -similar entry %q (want Attr=Value)", pair)
			}
			attr, ok := rel.Schema().Index(parts[0])
			if !ok {
				return fmt.Errorf("unknown attribute %q", parts[0])
			}
			fmt.Println("  " + m.Est.DescribeNeighborhood(attr, parts[1], 5))
		}
	}
	return nil
}
