// Tracing: bridge a REAL Go tree search onto the simulated Cell. Instead of
// replaying the paper's published 42_SC workload numbers, this example runs
// an actual maximum likelihood search with the instrumented kernels,
// converts the measured operation counts into a workload profile
// (workload.FromMeter), and asks the simulator how that exact workload
// would have fared on the Cell at each optimization stage.
//
//	go run ./examples/tracing
package main

import (
	"fmt"
	"log"
	"math/rand"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/cellrt"
	"raxmlcell/internal/core"
	"raxmlcell/internal/search"
	"raxmlcell/internal/seqsim"
	"raxmlcell/internal/workload"
)

func main() {
	log.SetFlags(0)

	// A mid-sized real dataset: 20 taxa x 900 sites.
	rng := rand.New(rand.NewSource(7777))
	align, _, err := seqsim.Generate(seqsim.Params{
		Taxa: 20, Sites: 900, MeanBranch: 0.08, Alpha: 0.8, InvariantFraction: 0.4,
	}, seqsim.DefaultModel(), rng)
	if err != nil {
		log.Fatal(err)
	}
	patterns := alignment.Compress(align)

	fmt.Printf("running a real search over %d taxa x %d patterns...\n",
		patterns.NumTaxa, patterns.NumPatterns())
	cfg := core.DefaultConfig()
	cfg.Seed = 11
	cfg.Search = search.Options{Radius: 4, MaxRounds: 4, SmoothPasses: 3, Epsilon: 0.02, AlphaOpt: true}
	// Meter the paper's full recomputation, the workload shape the
	// simulated Cell stages below were measured on.
	cfg.Kernel.FullRecompute = true
	res, meter, err := core.InferOnce(patterns, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search done: logL %.4f after %d SPR moves\n", res.LogL, res.Moves)
	fmt.Printf("measured kernel profile:\n  %s\n\n", meter.String())

	total := float64(meter.NewviewCalls + meter.MakenewzCalls + meter.EvaluateCalls)
	fmt.Printf("call split: newview %.1f%%, makenewz %.1f%%, evaluate %.1f%%\n",
		100*float64(meter.NewviewCalls)/total,
		100*float64(meter.MakenewzCalls)/total,
		100*float64(meter.EvaluateCalls)/total)
	fmt.Println("(the paper profiled 76.8% / 19.16% / 2.37% of runtime for 42_SC on a Power5)")

	prof, err := workload.FromMeter("traced", meter, patterns.NumPatterns())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nthe same workload on the simulated Cell, stage by stage (1 worker, 1 search):")
	var prev float64
	for stage := cellrt.StagePPEOnly; stage < cellrt.NumStages; stage++ {
		rep, err := core.CellRun(prof, stage, cellrt.SchedNaive, 1, 1)
		if err != nil {
			log.Fatal(err)
		}
		delta := ""
		if prev > 0 {
			delta = fmt.Sprintf("  (%+.0f%%)", 100*(rep.Seconds/prev-1))
		}
		fmt.Printf("  %-14s %8.3fs%s\n", stage.String()+":", rep.Seconds, delta)
		prev = rep.Seconds
	}
	mgps, err := core.CellRun(prof, cellrt.StageAllOffloaded, cellrt.SchedMGPS, 0, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-14s %8.3fs for 8 concurrent searches under MGPS\n", "mgps:", mgps.Seconds)
}
