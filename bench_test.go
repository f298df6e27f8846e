package raxmlcell

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/bench"
	"raxmlcell/internal/cell"
	"raxmlcell/internal/cellrt"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/model"
	"raxmlcell/internal/parsimony"
	"raxmlcell/internal/platform"
	"raxmlcell/internal/search"
	"raxmlcell/internal/seqsim"
	"raxmlcell/internal/workload"
)

// benchStage runs one staged-optimization table cell (1 worker, 1
// bootstrap) per iteration and reports the simulated seconds alongside the
// paper's published value.
func benchStage(b *testing.B, stage cellrt.Stage) {
	cfg := bench.DefaultConfig()
	var last float64
	for i := 0; i < b.N; i++ {
		rep, err := cellrt.Run(cfg.Profile, cfg.Cost, cfg.Params, cellrt.Config{
			Stage: stage, Scheduler: cellrt.SchedNaive, Workers: 1, Searches: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = rep.Seconds
	}
	b.ReportMetric(last, "simulated-s")
	b.ReportMetric(bench.PaperStageTimes[stage][0], "paper-s")
}

func BenchmarkTable1PPEOnly(b *testing.B)      { benchStage(b, cellrt.StagePPEOnly) }
func BenchmarkTable1NaiveOffload(b *testing.B) { benchStage(b, cellrt.StageNaiveOffload) }
func BenchmarkTable2SDKExp(b *testing.B)       { benchStage(b, cellrt.StageSDKExp) }
func BenchmarkTable3VectorCond(b *testing.B)   { benchStage(b, cellrt.StageVectorCond) }
func BenchmarkTable4DoubleBuffer(b *testing.B) { benchStage(b, cellrt.StageDoubleBuffer) }
func BenchmarkTable5Vectorize(b *testing.B)    { benchStage(b, cellrt.StageVectorFP) }
func BenchmarkTable6DirectComm(b *testing.B)   { benchStage(b, cellrt.StageDirectComm) }
func BenchmarkTable7OffloadAll(b *testing.B)   { benchStage(b, cellrt.StageAllOffloaded) }

// BenchmarkTable8MGPS runs the dynamic scheduler at 8 bootstraps.
func BenchmarkTable8MGPS(b *testing.B) {
	cfg := bench.DefaultConfig()
	var last float64
	for i := 0; i < b.N; i++ {
		rep, err := cellrt.Run(cfg.Profile, cfg.Cost, cfg.Params, cellrt.Config{
			Stage: cellrt.StageAllOffloaded, Scheduler: cellrt.SchedMGPS, Searches: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = rep.Seconds
	}
	b.ReportMetric(last, "simulated-s")
	b.ReportMetric(bench.PaperMGPSTimes[1], "paper-s")
}

// BenchmarkFigure3Platforms regenerates the full platform-comparison series.
func BenchmarkFigure3Platforms(b *testing.B) {
	cfg := bench.DefaultConfig()
	var pts []bench.Figure3Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.Figure3(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := pts[len(pts)-1] // 128 bootstraps
	b.ReportMetric(last.Cell, "cell-128bs-s")
	b.ReportMetric(last.Power5, "power5-128bs-s")
	b.ReportMetric(last.Xeon, "xeon-128bs-s")
}

// profileSplitSearch runs the small real search behind BenchmarkProfileSplit
// (12 taxa x 400 sites, parsimony start, radius 3, 2 rounds) under the
// paper's full-recomputation metering and returns its Meter.
func profileSplitSearch(tb testing.TB, pat *alignment.Patterns, m *model.Model) likelihood.Meter {
	start, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(2)))
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{FullRecompute: true})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := search.Run(eng, start, search.Options{Radius: 3, MaxRounds: 2, SmoothPasses: 2, Epsilon: 0.05, AlphaOpt: true}); err != nil {
		tb.Fatal(err)
	}
	return eng.Meter
}

// profileSplitInput is the simulated alignment of profileSplitSearch.
func profileSplitInput(tb testing.TB) (*alignment.Patterns, *model.Model) {
	m := seqsim.DefaultModel()
	a, _, err := seqsim.Generate(seqsim.Params{Taxa: 12, Sites: 400, MeanBranch: 0.1, Alpha: 0.8}, m, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	return alignment.Compress(a), m
}

// TestProfileSplitPaperMeter pins the full-recomputation Meter of the
// BenchmarkProfileSplit search. These are the counts the paper-metering
// mode fed the Cell tables before the engine's vector store became the
// default path; any drift means FullRecompute no longer reproduces the
// paper's workload shape.
func TestProfileSplitPaperMeter(t *testing.T) {
	pat, m := profileSplitInput(t)
	got := profileSplitSearch(t, pat, m)
	want := likelihood.Meter{NewviewCalls: 3011, MakenewzCalls: 573, EvaluateCalls: 34, NewtonIters: 3784,
		Muls: 128654484, Adds: 90974040, Exps: 166608}
	type key struct{ newview, makenewz, evaluate, newton, muls, adds, exps, cacheHits, sharedHits uint64 }
	pick := func(mt likelihood.Meter) key {
		return key{mt.NewviewCalls, mt.MakenewzCalls, mt.EvaluateCalls, mt.NewtonIters,
			mt.Muls, mt.Adds, mt.Exps, mt.CacheHits, mt.SharedHits}
	}
	if pick(got) != pick(want) {
		t.Errorf("paper-metering meter drifted:\n got  %+v\n want %+v", pick(got), pick(want))
	}
}

// BenchmarkProfileSplit runs a real Go tree search and reports the
// §5.2 profile split (share of kernel operations in the three offloaded
// functions) computed from the live full-recomputation meter.
func BenchmarkProfileSplit(b *testing.B) {
	pat, m := profileSplitInput(b)
	var meter likelihood.Meter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meter = profileSplitSearch(b, pat, m)
	}
	b.StopTimer()
	total := float64(meter.NewviewCalls + meter.MakenewzCalls + meter.EvaluateCalls)
	if total > 0 {
		b.ReportMetric(100*float64(meter.NewviewCalls)/total, "newview-%calls")
		b.ReportMetric(100*float64(meter.MakenewzCalls)/total, "makenewz-%calls")
		b.ReportMetric(100*float64(meter.EvaluateCalls)/total, "evaluate-%calls")
	}
}

// --- ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationSignalScaling shows the mailbox-vs-direct signalling gap
// growing with the number of workers (Section 5.2.6 "scales with
// parallelism").
func BenchmarkAblationSignalScaling(b *testing.B) {
	cfg := bench.DefaultConfig()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var mb, dc float64
			for i := 0; i < b.N; i++ {
				rep1, err := cellrt.Run(cfg.Profile, cfg.Cost, cfg.Params, cellrt.Config{
					Stage: cellrt.StageVectorFP, Scheduler: cellrt.SchedNaive,
					Workers: workers, Searches: 4 * workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep2, err := cellrt.Run(cfg.Profile, cfg.Cost, cfg.Params, cellrt.Config{
					Stage: cellrt.StageDirectComm, Scheduler: cellrt.SchedNaive,
					Workers: workers, Searches: 4 * workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				mb, dc = rep1.Seconds, rep2.Seconds
			}
			b.ReportMetric(100*(1-dc/mb), "direct-comm-gain-%")
		})
	}
}

// BenchmarkAblationBuffering sweeps the strip-mining DMA buffer size for
// the single- vs double-buffered kernels (the paper tuned 2 KB).
func BenchmarkAblationBuffering(b *testing.B) {
	for _, bufBytes := range []float64{512, 2048, 8192} {
		b.Run(fmt.Sprintf("buf-%dB", int(bufBytes)), func(b *testing.B) {
			cfg := bench.DefaultConfig()
			cfg.Profile.DMABatchBytes = bufBytes
			var single, double float64
			for i := 0; i < b.N; i++ {
				rep1, err := cellrt.Run(cfg.Profile, cfg.Cost, cfg.Params, cellrt.Config{
					Stage: cellrt.StageVectorCond, Scheduler: cellrt.SchedNaive, Workers: 1, Searches: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep2, err := cellrt.Run(cfg.Profile, cfg.Cost, cfg.Params, cellrt.Config{
					Stage: cellrt.StageDoubleBuffer, Scheduler: cellrt.SchedNaive, Workers: 1, Searches: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				single, double = rep1.Seconds, rep2.Seconds
			}
			b.ReportMetric(single-double, "dma-stall-s")
		})
	}
}

// BenchmarkAblationSchedulers compares the three schedulers across
// task-parallelism degrees.
func BenchmarkAblationSchedulers(b *testing.B) {
	cfg := bench.DefaultConfig()
	for _, searches := range []int{1, 4, 8, 32} {
		for _, sched := range []cellrt.Scheduler{cellrt.SchedEDTLP, cellrt.SchedLLP, cellrt.SchedMGPS} {
			name := fmt.Sprintf("%v-searches-%d", sched, searches)
			b.Run(name, func(b *testing.B) {
				workers := 4
				if sched == cellrt.SchedEDTLP {
					workers = 8
				}
				if searches < workers {
					workers = searches
				}
				var last float64
				for i := 0; i < b.N; i++ {
					rep, err := cellrt.Run(cfg.Profile, cfg.Cost, cfg.Params, cellrt.Config{
						Stage: cellrt.StageAllOffloaded, Scheduler: sched,
						Workers: workers, Searches: searches,
					})
					if err != nil {
						b.Fatal(err)
					}
					last = rep.Seconds
				}
				b.ReportMetric(last, "simulated-s")
			})
		}
	}
}

// BenchmarkAblationSPEScaling sweeps the machine's SPE count under LLP for
// a single search — the Amdahl curve behind the paper's -36% one-bootstrap
// MGPS gain.
func BenchmarkAblationSPEScaling(b *testing.B) {
	cfg := bench.DefaultConfig()
	for _, spes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("spes-%d", spes), func(b *testing.B) {
			params := cfg.Params
			params.NumSPE = spes
			sched := cellrt.SchedLLP
			if spes == 1 {
				sched = cellrt.SchedNaive // LLP needs a second SPE to distribute to
			}
			var last float64
			for i := 0; i < b.N; i++ {
				rep, err := cellrt.Run(cfg.Profile, cfg.Cost, params, cellrt.Config{
					Stage: cellrt.StageAllOffloaded, Scheduler: sched,
					Workers: 1, Searches: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = rep.Seconds
			}
			b.ReportMetric(last, "simulated-s")
		})
	}
}

// BenchmarkAblationBranch varies how often the scaling branch is taken and
// compares the scalar and integer-cast conditionals on the real kernels.
func BenchmarkAblationBranch(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	m := seqsim.DefaultModel()
	a, _, err := seqsim.Generate(seqsim.Params{Taxa: 40, Sites: 300, MeanBranch: 0.2}, m, rng)
	if err != nil {
		b.Fatal(err)
	}
	pat := alignment.Compress(a)
	for _, cfgName := range []string{"scalar-cond", "int-cond"} {
		b.Run(cfgName, func(b *testing.B) {
			kc := likelihood.Config{IntCond: cfgName == "int-cond", FullRecompute: true}
			eng, err := likelihood.NewEngine(pat, m, kc)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(10))
			tr, err := parsimony.BuildStepwise(pat, rng)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Evaluate(tr.Tips[0]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(eng.Meter.ScaleChecks)/float64(b.N), "checks/op")
		})
	}
}

// BenchmarkAblationTipCases measures the real-kernel benefit of the
// tip-case specializations: a caterpillar places most newview calls in the
// tip/inner class, a balanced random tree mixes in inner/inner work.
func BenchmarkAblationTipCases(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	m := seqsim.DefaultModel()
	a, truth, err := seqsim.Generate(seqsim.Params{Taxa: 24, Sites: 500, MeanBranch: 0.1}, m, rng)
	if err != nil {
		b.Fatal(err)
	}
	pat := alignment.Compress(a)
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{FullRecompute: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Evaluate(truth.Tips[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	mt := eng.Meter
	total := float64(mt.TipTipCalls + mt.TipInnerCalls + mt.InnerInnerCalls)
	b.ReportMetric(100*float64(mt.TipTipCalls+mt.TipInnerCalls)/total, "tip-case-%")
}

// --- real-kernel microbenchmarks ---

// BenchmarkNewview42SC runs the real newview kernel over the full 42_SC
// stand-in tree (one full-tree recomputation per iteration).
func BenchmarkNewview42SC(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	m := seqsim.DefaultModel()
	a, _, err := seqsim.Generate(seqsim.Params42SC(), m, rng)
	if err != nil {
		b.Fatal(err)
	}
	pat := alignment.Compress(a)
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{FullRecompute: true})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := parsimony.BuildStepwise(pat, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.NewView(tr.Tips[0].Back)
	}
	b.StopTimer()
	b.ReportMetric(float64(pat.NumPatterns()), "patterns")
}

// BenchmarkMakenewz42SC optimizes one branch of the 42_SC stand-in.
func BenchmarkMakenewz42SC(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	m := seqsim.DefaultModel()
	a, _, err := seqsim.Generate(seqsim.Params42SC(), m, rng)
	if err != nil {
		b.Fatal(err)
	}
	pat := alignment.Compress(a)
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{FullRecompute: true})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := parsimony.BuildStepwise(pat, rng)
	if err != nil {
		b.Fatal(err)
	}
	edge := tr.Edges()[5]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.MakeNewz(edge); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluate42SC computes the full log likelihood of the 42_SC
// stand-in per iteration.
func BenchmarkEvaluate42SC(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	m := seqsim.DefaultModel()
	a, _, err := seqsim.Generate(seqsim.Params42SC(), m, rng)
	if err != nil {
		b.Fatal(err)
	}
	pat := alignment.Compress(a)
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{FullRecompute: true})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := parsimony.BuildStepwise(pat, rng)
	if err != nil {
		b.Fatal(err)
	}
	var ll float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ll, err = eng.Evaluate(tr.Tips[0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(ll, "logL")
}

// benchSmooth42SC measures a branch-smoothing sweep over the 42_SC
// stand-in tree, the hot loop of the search, with the engine's vector store
// keeping vectors across calls (cached) or under full recomputation (the
// paper's metering). combines/op is the number of newview executions a
// sweep actually performs; cachehits/op counts the traversal-descriptor
// stops at valid cached vectors.
func benchSmooth42SC(b *testing.B, cached bool, backend string) {
	rng := rand.New(rand.NewSource(61))
	m := seqsim.DefaultModel()
	a, _, err := seqsim.Generate(seqsim.Params42SC(), m, rng)
	if err != nil {
		b.Fatal(err)
	}
	pat := alignment.Compress(a)
	tr, err := parsimony.BuildStepwise(pat, rng)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{FullRecompute: !cached, Backend: backend})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.SmoothBranches(eng, tr, 1, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.Meter.NewviewCalls)/float64(b.N), "combines/op")
	b.ReportMetric(float64(eng.Meter.CacheHits)/float64(b.N), "cachehits/op")
}

func BenchmarkSmooth42SC(b *testing.B)        { benchSmooth42SC(b, false, "scalar") }
func BenchmarkSmoothBatched42SC(b *testing.B) { benchSmooth42SC(b, false, "batched") }
func BenchmarkSmoothCached42SC(b *testing.B)  { benchSmooth42SC(b, true, "scalar") }

// benchSearch42SC runs a whole small hill-climbing search per iteration
// (fresh tree and engine each time) and reports the end-to-end newview-call
// count under full recomputation vs the cached default.
func benchSearch42SC(b *testing.B, cached bool, backend string) {
	rng := rand.New(rand.NewSource(62))
	m := seqsim.DefaultModel()
	a, _, err := seqsim.Generate(seqsim.Params42SC(), m, rng)
	if err != nil {
		b.Fatal(err)
	}
	pat := alignment.Compress(a)
	var combines, hits uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(63)))
		if err != nil {
			b.Fatal(err)
		}
		eng, err := likelihood.NewEngine(pat, m, likelihood.Config{FullRecompute: !cached, Backend: backend})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := search.Run(eng, start, search.Options{
			Radius: 3, MaxRounds: 2, SmoothPasses: 2, Epsilon: 0.05,
		}); err != nil {
			b.Fatal(err)
		}
		combines += eng.Meter.NewviewCalls
		hits += eng.Meter.CacheHits
	}
	b.StopTimer()
	b.ReportMetric(float64(combines)/float64(b.N), "combines/op")
	b.ReportMetric(float64(hits)/float64(b.N), "cachehits/op")
}

func BenchmarkSearch42SC(b *testing.B)        { benchSearch42SC(b, false, "scalar") }
func BenchmarkSearchBatched42SC(b *testing.B) { benchSearch42SC(b, false, "batched") }
func BenchmarkSearchCached42SC(b *testing.B)  { benchSearch42SC(b, true, "scalar") }

// BenchmarkParallelSPR42SC is the task-level-parallelism counterpart of
// BenchmarkSearch42SC: the identical whole-search workload with SPR
// candidates fanned out over a worker pool (and traversal descriptors
// executed wavefront-parallel). The serial/workers-4 pair is the source of
// the committed BENCH_PR5.json speedup figure; results are
// scheduling-invariant, so logL is reported for cross-checking.
func BenchmarkParallelSPR42SC(b *testing.B) {
	rng := rand.New(rand.NewSource(62))
	m := seqsim.DefaultModel()
	a, _, err := seqsim.Generate(seqsim.Params42SC(), m, rng)
	if err != nil {
		b.Fatal(err)
	}
	pat := alignment.Compress(a)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var ll float64
			for i := 0; i < b.N; i++ {
				start, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(63)))
				if err != nil {
					b.Fatal(err)
				}
				eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
				if err != nil {
					b.Fatal(err)
				}
				res, err := search.Run(eng, start, search.Options{
					Radius: 3, MaxRounds: 2, SmoothPasses: 2, Epsilon: 0.05,
					Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				ll = res.LogL
			}
			b.ReportMetric(ll, "logL")
		})
	}
}

// BenchmarkParallelEvaluate measures the shared-memory loop-level
// parallelism of the kernels (the RAxML-OMP analogue) on a wide alignment.
func BenchmarkParallelEvaluate(b *testing.B) {
	rng := rand.New(rand.NewSource(51))
	m := seqsim.DefaultModel()
	a, truth, err := seqsim.Generate(seqsim.Params{Taxa: 24, Sites: 5000, MeanBranch: 0.1, Alpha: 0.8}, m, rng)
	if err != nil {
		b.Fatal(err)
	}
	pat := alignment.Compress(a)
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			eng, err := likelihood.NewEngine(pat, m, likelihood.Config{Threads: threads, FullRecompute: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Evaluate(truth.Tips[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFastExpVsLibm compares the SDK-style exp against math.Exp.
func BenchmarkFastExpVsLibm(b *testing.B) {
	xs := make([]float64, 1024)
	rng := rand.New(rand.NewSource(31))
	for i := range xs {
		xs[i] = -10 * rng.Float64()
	}
	b.Run("fastexp", func(b *testing.B) {
		s := 0.0
		for i := 0; i < b.N; i++ {
			s += likelihood.FastExp(xs[i%len(xs)])
		}
		if math.IsNaN(s) {
			b.Fatal("NaN")
		}
	})
	b.Run("libm", func(b *testing.B) {
		s := 0.0
		for i := 0; i < b.N; i++ {
			s += math.Exp(xs[i%len(xs)])
		}
		if math.IsNaN(s) {
			b.Fatal("NaN")
		}
	})
}

// BenchmarkMasterWorkerThroughput runs a real parallel mini-analysis.
func BenchmarkMasterWorkerThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	m := seqsim.DefaultModel()
	a, _, err := seqsim.Generate(seqsim.Params{Taxa: 8, Sites: 200, MeanBranch: 0.1}, m, rng)
	if err != nil {
		b.Fatal(err)
	}
	pat := alignment.Compress(a)
	_ = pat
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := platform.Power5().Makespan(8); err != nil {
			b.Fatal(err)
		}
		if _, err := workloadRoundTrip(pat); err != nil {
			b.Fatal(err)
		}
	}
}

func workloadRoundTrip(pat *alignment.Patterns) (float64, error) {
	prof := workload.Profile42SC()
	rep, err := cellrt.Run(prof, cell.DefaultCostModel(), cell.DefaultParams(), cellrt.Config{
		Stage: cellrt.StageAllOffloaded, Scheduler: cellrt.SchedEDTLP, Workers: 8, Searches: 8,
	})
	if err != nil {
		return 0, err
	}
	return rep.Seconds, nil
}
