// Command perfbench is the repository's benchmark: it runs one named
// workload through core.Analyze in its default configuration, checks the
// result against an independent oracle, and prints every metric by name
// and unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
//
// With --trace 0 it times untraced analyses (wall_s, cpu_s, setup_s,
// peak_rss_mb). With --trace 1 it runs one untraced and one traced analysis
// and derives the per-layer table from the traced one's metrics registry
// and wall trace. README.md documents the workloads and every metric.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"raxmlcell/internal/core"
	"raxmlcell/internal/mw"
	"raxmlcell/internal/obs"
	"raxmlcell/internal/search"
	"raxmlcell/internal/wallclock"
)

// traceCap is the span-tracer retention cap of the traced run, far above
// the few thousand events an analysis here records, so none is dropped.
const traceCap = 1 << 22

// setupBatch is how many set-up repeats run before the first analysis and
// after each timed one: set-up then samples the host across the whole run,
// as the analyses do, instead of at one instant.
const setupBatch = 50

type options struct {
	Root     string
	Workload string
	Seed     int64
	Seconds  float64
	Trace    int
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.Root, "root", ".", "checkout root (holds internal/ and the workload inputs)")
	flag.StringVar(&o.Workload, "workload", "", "workload name (see README.md)")
	flag.Int64Var(&o.Seed, "seed", 1, "permutes the site order of a simulated input")
	flag.Float64Var(&o.Seconds, "seconds", 20, "measurement time of one run")
	flag.IntVar(&o.Trace, "trace", 0, "1 = per-layer metrics from a traced run, 0 = end-to-end metrics")
	flag.Parse()
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

// run executes one benchmark run, printing a readable report to out; the
// caller prints the returned result as the final JSON line.
func run(o options, out io.Writer) (*result, error) {
	w, err := findWorkload(o.Workload)
	if err != nil {
		return nil, err
	}
	if o.Trace != 0 && o.Trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", o.Trace)
	}
	h := probeHost(o.Root)
	hj, _ := json.Marshal(h) // a struct of strings and ints always marshals
	fmt.Fprintf(out, "host %s\n", hj)
	if slots := w.Workers * w.SearchWorkers; slots > h.NProc {
		return nil, fmt.Errorf("workload %s asks for %d workers x %d search workers = %d CPUs, host has %d; refusing to time an oversubscribed run",
			w.Name, w.Workers, w.SearchWorkers, slots, h.NProc)
	}

	build := filepath.Join(o.Root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	cfg := w.config(filepath.Join(tmp, "campaign.ckpt"))
	path, err := w.writeInput(o.Root, tmp, w.GenSeed, o.Seed)
	if err != nil {
		return nil, err
	}
	st := &setupTimer{path: path, cfg: cfg}
	in, err := st.repeat(setupBatch)
	if err != nil {
		return nil, err
	}
	printWorkload(out, w, o.Seed, in, cfg.Cats, h.L2KB)

	g := &gate{log: out}
	var metrics []metric
	if o.Trace == 0 {
		metrics, err = endToEnd(in, cfg, o.Seconds, st, g, out)
	} else {
		metrics, err = perLayer(o, w, in, cfg, tmp, g, out)
	}
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   g.failed == 0,
		Attempted: g.attempted,
		Failed:    g.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range metrics {
		fmt.Fprintf(out, "metric %-40s %16.6g %s\n", m.Name, m.Value, m.Unit)
		res.Metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	fmt.Fprintf(out, "fail_frac %g ratio (%d failed of %d attempted)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	return res, nil
}

// setupTimer collects set-up times for the setup_s median.
type setupTimer struct {
	path  string
	cfg   core.Config
	times []float64
}

// repeat runs set-up n times and returns the input the last repeat
// produced. Each repeat starts from a collected heap, so the median does not
// depend on where the collector's cycle happens to fall.
func (s *setupTimer) repeat(n int) (input, error) {
	var in input
	for range n {
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = setup(s.path, s.cfg); err != nil {
			return input{}, err
		}
		s.times = append(s.times, time.Since(t0).Seconds())
	}
	return in, nil
}

// analyzeOnce runs one untraced analysis with a fresh checkpoint file and
// returns it with its wall and CPU seconds. Callers collect the heap first,
// so one analysis's garbage is not charged to the next.
func analyzeOnce(in input, cfg core.Config) (a *core.Analysis, wall, cpu float64, err error) {
	if err := removeCheckpoint(cfg); err != nil {
		return nil, 0, 0, err
	}
	c0 := cpuSeconds()
	t0 := time.Now()
	a, err = core.Analyze(in.Pat, cfg)
	wall = time.Since(t0).Seconds()
	cpu = cpuSeconds() - c0
	if err != nil {
		return nil, 0, 0, fmt.Errorf("analyze: %w", err)
	}
	return a, wall, cpu, nil
}

// removeCheckpoint deletes the campaign checkpoint, so the next analysis
// computes every job instead of resuming them.
func removeCheckpoint(cfg core.Config) error {
	if cfg.Checkpoint == "" {
		return nil
	}
	if err := os.Remove(cfg.Checkpoint); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// endToEnd times untraced analyses for about seconds — it starts another
// only when one more, at the median time so far, still fits — with a batch
// of set-up repeats after each, and reports the medians.
func endToEnd(in input, cfg core.Config, seconds float64, st *setupTimer, g *gate, out io.Writer) ([]metric, error) {
	jobs := cfg.Inferences + cfg.Bootstraps
	var walls, cpus []float64
	var first *core.Analysis
	start := time.Now()
	for {
		runtime.GC()
		a, wall, cpu, err := analyzeOnce(in, cfg)
		if err != nil {
			return nil, err
		}
		g.analysis(a, jobs)
		g.repeatable(a)
		if first == nil {
			first = a
		}
		walls, cpus = append(walls, wall), append(cpus, cpu)
		fmt.Fprintf(out, "rep %d wall_s=%.4f cpu_s=%.4f best_logl=%.10f newview_calls=%d\n",
			len(walls), wall, cpu, a.BestLogL, a.Meter.NewviewCalls)
		if _, err := st.repeat(setupBatch); err != nil {
			return nil, err
		}
		if time.Since(start).Seconds()+median(walls) > seconds {
			break
		}
	}
	peak := peakRSSMB()
	g.oracle(in, first, cfg.Cats)
	fmt.Fprintf(out, "samples wall_s=%d cpu_s=%d setup_s=%d\n", len(walls), len(cpus), len(st.times))
	fmt.Fprintf(out, "best_logl %.10f logL\n", first.BestLogL)
	return endToEndMetrics(median(walls), median(cpus), median(st.times), peak), nil
}

// endToEndMetrics names the end-to-end metrics BENCHMARK.json lists.
func endToEndMetrics(wall, cpu, setup, peakRSS float64) []metric {
	return []metric{
		{"wall_s", "s", wall},
		{"cpu_s", "s", cpu},
		{"setup_s", "s", setup},
		{"peak_rss_mb", "MB", peakRSS},
	}
}

// perLayer runs one untraced analysis (the baseline of the trace overhead
// and the source of the Go runtime numbers), one traced analysis of the
// same input, and — for simulated workloads — an untraced analysis of an
// input drawn from the next generator seed, for the workload-property record.
func perLayer(o options, w workload, in input, cfg core.Config, tmp string, g *gate, out io.Writer) ([]metric, error) {
	jobs := cfg.Inferences + cfg.Bootstraps
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	base, wall, _, err := analyzeOnce(in, cfg)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	g.analysis(base, jobs)
	g.repeatable(base)
	g.oracle(in, base, cfg.Cats)

	if err := removeCheckpoint(cfg); err != nil {
		return nil, err
	}
	runtime.GC()
	tr, err := traced(in, cfg, filepath.Join(o.Root, ".bench_build", "trace-"+w.Name+".json"))
	if err != nil {
		return nil, err
	}
	g.analysis(tr.a, jobs)
	g.repeatable(tr.a)
	if tr.dropped != 0 {
		g.fail("trace dropped %d events", tr.dropped)
	}
	var ckptBytes int64
	if cfg.Checkpoint != "" {
		st, err := os.Stat(cfg.Checkpoint)
		if err != nil {
			return nil, err
		}
		ckptBytes = st.Size()
	}
	fmt.Fprintf(out, "traced wall_s=%.4f untraced wall_s=%.4f best_logl=%.10f trace_events=%d kernel_backends=%v\n",
		tr.times.Analyze.dur(), wall, tr.a.BestLogL, tr.events, tr.kernels.Backends)

	if w.Sim != nil {
		path2, err := w.writeInput(o.Root, tmp, w.GenSeed+1, o.Seed)
		if err != nil {
			return nil, err
		}
		in2, err := setup(path2, cfg)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		a2, _, _, err := analyzeOnce(in2, cfg)
		if err != nil {
			return nil, err
		}
		g.analysis(a2, jobs)
		g.oracle(in2, a2, cfg.Cats)
		fmt.Fprintf(out, "second draw gen_seed=%d patterns=%d newview_calls=%d (gen_seed=%d: patterns=%d newview_calls=%d)\n",
			w.GenSeed+1, in2.Pat.NumPatterns(), a2.Meter.NewviewCalls, w.GenSeed, in.Pat.NumPatterns(), tr.a.Meter.NewviewCalls)
	}

	m := tr.a.Meter
	bootstraps := 0
	for _, r := range tr.a.Results {
		if r.Err == nil && r.Job.Kind == mw.Bootstrap {
			bootstraps++
		}
	}
	return layerMetrics(layerInputs{
		Workers: cfg.Workers, SearchWorkers: cfg.Search.Workers, Jobs: jobs,
		Times: tr.times, Snap: tr.snap, Kernels: tr.kernels,
		BestLogL:     tr.a.BestLogL,
		NewviewCalls: m.NewviewCalls, MakenewzCalls: m.MakenewzCalls, EvaluateCalls: m.EvaluateCalls,
		NewtonIters: m.NewtonIters, CacheHits: m.CacheHits, SharedHits: m.SharedHits,
		ScaleEvents: m.ScaleEvents, Flops: m.Flops(), BytesStreamed: m.BytesStreamed,
		Attempts: tr.a.Stats.Attempts, Retries: tr.a.Stats.Retries, Quarantined: len(tr.a.Quarantined),
		Bootstraps: bootstraps, Moves: tr.moves, CheckpointBytes: ckptBytes,
		UntracedWall: wall,
		AllocBytes:   ms1.TotalAlloc - ms0.TotalAlloc,
		GCCycles:     ms1.NumGC - ms0.NumGC,
		GCPauseNs:    ms1.PauseTotalNs - ms0.PauseTotalNs,
		TraceEvents:  tr.events, TraceDropped: tr.dropped,
	}), nil
}

// tracedResult is one traced analysis with everything read back from its
// published metrics and its validated wall trace.
type tracedResult struct {
	a       *core.Analysis
	moves   int
	snap    obs.Snapshot
	kernels kernelTimes
	times   campaignTimes
	events  int
	dropped uint64
}

// traced runs core.Analyze with a metrics registry and a recording span
// tracer, brackets the call with the benchmark's own "analyze" span, writes
// the trace to tracePath, validates it with obs.ValidateTrace and only then
// derives the campaign times from it.
func traced(in input, cfg core.Config, tracePath string) (*tracedResult, error) {
	reg := obs.NewRegistry()
	tr := obs.NewSpanTracer(wallclock.Monotonic())
	tr.SetMaxEvents(traceCap)
	cfg.Metrics = reg
	cfg.Trace = tr.Root(spanCampaign)
	var mu sync.Mutex
	moves := 0
	cfg.Search.OnProgress = func(p search.Progress) {
		if p.Phase == "final" {
			mu.Lock()
			moves += p.Moves
			mu.Unlock()
		}
	}
	sp := tr.Root("bench").Start(spanAnalyze, "bench")
	a, err := core.Analyze(in.Pat, cfg)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("traced analyze: %w", err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if _, err := obs.ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		return nil, fmt.Errorf("validate trace: %w", err)
	}
	spans, err := parseTrace(buf.Bytes())
	if err != nil {
		return nil, err
	}
	times, err := summarize(spans, cfg.Workers)
	if err != nil {
		return nil, err
	}
	snap := reg.Snapshot()
	return &tracedResult{
		a: a, moves: moves, snap: snap, kernels: kernelTimesOf(snap), times: times,
		events: tr.Len(), dropped: tr.Dropped(),
	}, nil
}

// cpuSeconds is the user+system CPU time this process has consumed.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is this process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
