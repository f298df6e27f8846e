// Command cellsim runs the RAxML workload on the simulated Cell Broadband
// Engine under a chosen optimization stage and scheduler, printing the
// simulated execution time and SPE utilization — a single cell of the
// paper's Tables 1-8 on demand.
//
// Usage:
//
//	cellsim -stage all-offloaded -scheduler mgps -bootstraps 16
//	cellsim -stage naive-offload -workers 2 -bootstraps 8
//	cellsim -workload-from data.phy -stage all-offloaded  # drive the simulator
//	                                                      # from a real Go search
//	cellsim -scheduler mgps -bootstraps 8 -trace out.json # record the timeline
//	                                                      # (open in Perfetto)
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/cell"
	"raxmlcell/internal/cellrt"
	"raxmlcell/internal/core"
	"raxmlcell/internal/obs"
	"raxmlcell/internal/search"
	"raxmlcell/internal/workload"
)

var stageByName = map[string]cellrt.Stage{
	"ppe-only":      cellrt.StagePPEOnly,
	"naive-offload": cellrt.StageNaiveOffload,
	"sdk-exp":       cellrt.StageSDKExp,
	"vector-cond":   cellrt.StageVectorCond,
	"double-buffer": cellrt.StageDoubleBuffer,
	"vector-fp":     cellrt.StageVectorFP,
	"direct-comm":   cellrt.StageDirectComm,
	"all-offloaded": cellrt.StageAllOffloaded,
}

var schedByName = map[string]cellrt.Scheduler{
	"naive": cellrt.SchedNaive,
	"edtlp": cellrt.SchedEDTLP,
	"llp":   cellrt.SchedLLP,
	"mgps":  cellrt.SchedMGPS,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cellsim: ")

	var (
		stageName = flag.String("stage", "all-offloaded", "optimization stage: "+names(stageByName))
		schedName = flag.String("scheduler", "naive", "scheduler: "+names(schedByName))
		workers   = flag.Int("workers", 1, "MPI processes (MGPS sizes itself)")
		boots     = flag.Int("bootstraps", 1, "number of tree searches")
		episodes  = flag.Int("episodes", 0, "scheduling quanta per search (0 = default 150)")
		wlFrom    = flag.String("workload-from", "", "derive the workload from a real search over this alignment instead of the 42_SC paper profile (was -trace before the timeline tracer took that name)")
		traceOut  = flag.String("trace", "", "write the simulated timeline as Chrome trace-event JSON to this file (open in Perfetto or chrome://tracing)")
	)
	flag.Parse()

	stage, ok := stageByName[*stageName]
	if !ok {
		log.Fatalf("unknown stage %q (want one of %s)", *stageName, names(stageByName))
	}
	sched, ok := schedByName[*schedName]
	if !ok {
		log.Fatalf("unknown scheduler %q (want one of %s)", *schedName, names(schedByName))
	}

	prof := workload.Profile42SC()
	if *wlFrom != "" {
		f, err := os.Open(*wlFrom)
		if err != nil {
			log.Fatal(err)
		}
		a, err := alignment.ReadPhylip(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		pat := alignment.Compress(a)
		fmt.Printf("tracing a real search over %d taxa x %d patterns...\n", pat.NumTaxa, pat.NumPatterns())
		cfg := core.DefaultConfig()
		cfg.Search = search.Options{Radius: 3, MaxRounds: 3, SmoothPasses: 3, Epsilon: 0.01, AlphaOpt: true}
		// The simulator replays the paper's workload shape: full
		// recomputation, as RAxML was profiled.
		cfg.Kernel.FullRecompute = true
		_, meter, err := core.InferOnce(pat, cfg)
		if err != nil {
			log.Fatal(err)
		}
		prof, err = workload.FromMeter(*wlFrom, meter, pat.NumPatterns())
		if err != nil {
			log.Fatal(err)
		}
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
	}
	cfg := cellrt.Config{
		Stage:     stage,
		Scheduler: sched,
		Workers:   *workers,
		Searches:  *boots,
		Episodes:  *episodes,
	}
	if tracer != nil {
		cfg.Tracer = tracer
	}
	rep, err := cellrt.Run(prof, cell.DefaultCostModel(), cell.DefaultParams(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	if tracer != nil {
		var buf bytes.Buffer
		if err := tracer.WriteJSON(&buf); err != nil {
			log.Fatal(err)
		}
		// Gate the file on the trace-event schema check, so a malformed
		// trace fails the run instead of surfacing later in a viewer.
		n, err := obs.ValidateTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*traceOut, buf.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeline: %d events written to %s (schema ok)\n", n, *traceOut)
	}

	fmt.Printf("workload %s: %d search(es), stage %v, scheduler %v, %d worker(s)\n",
		prof.Name, *boots, stage, sched, rep.Config.Workers)
	fmt.Printf("simulated time: %.2f s (%d cycles at 3.2 GHz)\n", rep.Seconds, rep.Cycles)
	fmt.Printf("offloaded calls: %.0f, signalling time: %.2f s, max LLP width: %d\n",
		rep.OffloadedCalls, rep.CommSeconds, rep.MaxLLPWidth)
	fmt.Printf("SPE utilization:")
	for i, u := range rep.SPEUtilization {
		fmt.Printf(" spe%d=%.0f%%", i, 100*u)
	}
	fmt.Println()
}

func names[T any](m map[string]T) string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	// Deterministic help text.
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return strings.Join(out, "|")
}
