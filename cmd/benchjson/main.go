// Command benchjson measures the compute-backend and task-level-parallelism
// speedups of the SPR search on the 42_SC stand-in workload and writes them
// as machine-readable JSON (BENCH_PR12.json in the repo root is a committed
// snapshot).
//
// The workload follows BenchmarkSearch42SC / BenchmarkParallelSPR42SC in
// bench_test.go: simulate a 42-taxa x 1167-site alignment at the paper's
// benchmark dimensions (seed 62), build the same parsimony starting tree
// every run (seed 63), then hill-climb with Radius 3, MaxRounds 4,
// SmoothPasses 2, Epsilon 0.05 — once per (backend, search-workers) cell of
// the measurement matrix. (The benchmarks cap the search at 2 rounds; here
// the cap is 4, and the search converges within it from this start.) Every
// cell must land on the identical logL and move sequence (backends and the
// worker pool are compute/scheduling changes, not search changes);
// benchjson enforces that before writing.
//
// Usage:
//
//	benchjson -out BENCH_PR12.json           # full matrix (best of -reps)
//	benchjson -quick -out /tmp/smoke.json    # single repetition (CI smoke)
//	benchjson -backend batched -workers 1    # one backend, serial only
//	benchjson -check BENCH_PR12.json         # parse + validate an existing file
//	benchjson -check f.json -min-speedup 1.5 # also gate pool scaling (CI)
//	benchjson -check f.json -max-obs-overhead 1.02 # gate instrumentation cost
//
// Besides wall-time speedups the report records pooled/serial newview-call
// ratios per backend ("<backend>-<N>w" -> Newviews(Nw)/Newviews(1w)). These
// count redundant work, not time, so they are meaningful on any host, and
// validation hard-fails any ratio above 1.15: with the shared epoch-tagged
// vector store a pooled search must not redo more than 15% of the serial
// search's newview work (in practice it does less — the store also reuses
// vectors across prune sites that the serial per-prune tables rebuild).
//
// Host metadata (cpus, GOMAXPROCS, Go version) is recorded so a committed
// snapshot from a small container is distinguishable from a multi-core CI
// run; the worker-scaling speedups are only meaningful when cpus >= workers
// (which is why the -min-speedup gate is opt-in, applied by the CI
// scaling-gate job on a multi-core runner), while the backend-vs-scalar
// speedups and the newview ratios are meaningful even on one CPU.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/obs"
	"raxmlcell/internal/parsimony"
	"raxmlcell/internal/search"
	"raxmlcell/internal/seqsim"
	"raxmlcell/internal/wallclock"
)

// Entry is one measured (backend, workers) cell of the matrix.
type Entry struct {
	Name      string  `json:"name"` // "<backend>-<workers>w"
	Backend   string  `json:"backend"`
	Workers   int     `json:"workers"`
	Reps      int     `json:"reps"`
	NsPerOp   int64   `json:"ns_per_op"` // best (minimum) wall time of the reps
	LogL      float64 `json:"logL"`
	Rounds    int     `json:"rounds"`
	Moves     int     `json:"moves"`
	Newviews  uint64  `json:"newview_calls"`
	Makenewzs uint64  `json:"makenewz_calls"`
	Evaluates uint64  `json:"evaluate_calls"`
	Flops     uint64  `json:"flops"`
	Exps      uint64  `json:"exps"`
	// CandsScored is the search.candidates_scored counter: SPR/NNI
	// insertion candidates the cell's search evaluated (schema /5).
	CandsScored uint64 `json:"candidates_scored"`
}

// ObsOverhead is the cost-of-instrumentation cell: the same serial 42sc
// search timed bare and then with the full observability stack engaged — a
// live metrics registry, a recording wall-clock span tracer, a flight
// recorder, and the per-kernel latency histograms — interleaved rep by rep
// so host drift hits both sides equally. Ratio is instrumented over
// baseline best times; the hot paths are designed allocation-free, so the
// ratio is accountable to a low single-digit-percent budget (the CI
// obs-gate passes -max-obs-overhead).
type ObsOverhead struct {
	Backend        string  `json:"backend"`
	Workers        int     `json:"workers"`
	Reps           int     `json:"reps"`
	BaselineNs     int64   `json:"baseline_ns"`
	InstrumentedNs int64   `json:"instrumented_ns"`
	Ratio          float64 `json:"ratio"`
}

// Report is the file schema. Schema /2 extended /1 with the backend axis:
// entries carry a backend name and the scalar speedup field became a map
// keyed by comparison name ("batched-vs-scalar-1w" for backend wins at
// fixed workers, "<backend>-2w" / "<backend>-4w" for pool scaling within a
// backend, relative to that backend's serial cell). Schema /3 adds the
// newview_ratios map — pooled newview calls over the same backend's serial
// cell, keyed "<backend>-<N>w" — the redundancy axis the shared
// ancestral-vector store is accountable to (validation rejects any ratio
// above newviewRatioMax). Schema /4 adds the obs_overhead cell measuring
// what the wall-clock tracing / flight / histogram instrumentation costs on
// the same workload. Schema /5 added per-cell candidates_scored. Schema /6
// drops the topology-memo axis /5 carried (the topo_memo/topo_hits/
// topo_hit_rate cell fields, the "<backend>-1w-nomemo" twin cells and the
// "<backend>-memo-vs-nomemo-1w" speedups) together with the memo itself.
type Report struct {
	Schema        string             `json:"schema"` // "raxmlcell-bench/6"
	Generated     string             `json:"generated"`
	GoVersion     string             `json:"go_version"`
	GOOS          string             `json:"goos"`
	GOARCH        string             `json:"goarch"`
	CPUs          int                `json:"cpus"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	Workload      string             `json:"workload"`
	Backends      []string           `json:"backends"`
	Entries       []Entry            `json:"entries"`
	Speedups      map[string]float64 `json:"speedups"`
	NewviewRatios map[string]float64 `json:"newview_ratios"`
	ObsOverhead   *ObsOverhead       `json:"obs_overhead"`
}

const schemaID = "raxmlcell-bench/6"

// newviewRatioMax is the redundancy budget: a pooled cell may perform at
// most 15% more newview calls than the serial cell of the same backend.
// Mirrors the gate in TestParallelSPRCrossValidation42SC.
const newviewRatioMax = 1.15

func main() {
	var (
		out      = flag.String("out", "BENCH_PR12.json", "output path")
		backends = flag.String("backend", "", "comma-separated compute backends to measure (default: all registered: "+strings.Join(likelihood.Backends(), ", ")+")")
		workers  = flag.String("workers", "1,2,4", "comma-separated search-worker counts per backend")
		reps     = flag.Int("reps", 3, "repetitions per entry; the best time is reported")
		quick    = flag.Bool("quick", false, "single repetition (CI smoke)")
		check    = flag.String("check", "", "validate an existing report file and exit")
		minSpeed = flag.Float64("min-speedup", 0, "fail validation if any backend's largest in-budget pool-scaling speedup (workers <= gomaxprocs of the measuring host) is below this (0 = no gate; CI passes 1.5)")
		maxObs   = flag.Float64("max-obs-overhead", 0, "fail validation if the obs_overhead ratio (instrumented/baseline wall time) exceeds this (0 = no gate; CI passes 1.02)")
	)
	flag.Parse()

	if *check != "" {
		if err := checkFile(*check, *minSpeed, *maxObs); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *check, err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid %s report\n", *check, schemaID)
		return
	}

	if *quick {
		*reps = 1
	}
	bkList := likelihood.Backends()
	if *backends != "" {
		bkList = strings.Split(*backends, ",")
	}
	wkList, err := parseWorkers(*workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: -workers: %v\n", err)
		os.Exit(1)
	}
	rep, err := measure(bkList, wkList, *reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	// Self-validate what was just written: the committed snapshot must pass
	// the same gate CI applies (including -min-speedup / -max-obs-overhead
	// when the caller set them).
	if err := checkFile(*out, *minSpeed, *maxObs); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: wrote invalid report: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %d entries (%s x workers %v)\n", *out, len(rep.Entries),
		strings.Join(rep.Backends, ","), wkList)
	names := make([]string, 0, len(rep.Speedups))
	for n := range rep.Speedups {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  speedup %-24s %.2fx\n", n, rep.Speedups[n])
	}
	names = names[:0]
	for n := range rep.NewviewRatios {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  newview ratio %-18s %.3f (budget %.2f)\n", n, rep.NewviewRatios[n], newviewRatioMax)
	}
	if o := rep.ObsOverhead; o != nil {
		fmt.Printf("  obs overhead %s-%dw: %.3fx (instrumented %.1fms vs baseline %.1fms)\n",
			o.Backend, o.Workers, o.Ratio,
			float64(o.InstrumentedNs)/1e6, float64(o.BaselineNs)/1e6)
	}
}

// parseWorkers turns "1,2,4" into a sorted, deduplicated []int.
func parseWorkers(s string) ([]int, error) {
	seen := map[int]bool{}
	var ws []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q", f)
		}
		if !seen[n] {
			seen[n] = true
			ws = append(ws, n)
		}
	}
	sort.Ints(ws)
	if len(ws) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return ws, nil
}

// measure runs the full backend x workers matrix and assembles the report.
func measure(backends []string, workers []int, reps int) (*Report, error) {
	rng := rand.New(rand.NewSource(62))
	m := seqsim.DefaultModel()
	a, _, err := seqsim.Generate(seqsim.Params42SC(), m, rng)
	if err != nil {
		return nil, err
	}
	pat := alignment.Compress(a)

	var entries []Entry
	for _, bk := range backends {
		for _, w := range workers {
			e, err := runEntry(pat, bk, w, reps)
			if err != nil {
				return nil, err
			}
			entries = append(entries, *e)
		}
	}
	// Determinism gate: no cell of the matrix may change the search result.
	// Backends promise logL within 1e-9 of scalar and the identical move
	// sequence; the worker pool is a pure scheduling change.
	ref := entries[0]
	for _, e := range entries[1:] {
		if math.Abs(ref.LogL-e.LogL) > 1e-9*math.Max(1, math.Abs(ref.LogL)) {
			return nil, fmt.Errorf("%s logL %.12f != %s %.12f", e.Name, e.LogL, ref.Name, ref.LogL)
		}
		if ref.Moves != e.Moves || ref.Rounds != e.Rounds {
			return nil, fmt.Errorf("search path diverged: %s %d moves/%d rounds, %s %d/%d",
				ref.Name, ref.Moves, ref.Rounds, e.Name, e.Moves, e.Rounds)
		}
	}

	overhead, err := measureObsOverhead(pat, backends[0], reps)
	if err != nil {
		return nil, err
	}

	return &Report{
		Schema:        schemaID,
		Generated:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Workload:      "42sc SPR search: seqsim.Params42SC seed 62, parsimony start seed 63, Radius 3, MaxRounds 4, SmoothPasses 2, Epsilon 0.05",
		Backends:      backends,
		Entries:       entries,
		Speedups:      speedups(entries),
		NewviewRatios: newviewRatios(entries),
		ObsOverhead:   overhead,
	}, nil
}

// obsStack is one fully-engaged observability configuration for the
// overhead cell: every sink the production pipeline can attach is live.
type obsStack struct {
	reg    *obs.Registry
	tracer *obs.SpanTracer
	flight *obs.FlightRecorder
}

// newObsStack builds a recording stack on the real wall clock.
func newObsStack() *obsStack {
	now := wallclock.Monotonic()
	tr := obs.NewSpanTracer(now)
	tr.SetRecording(true)
	return &obsStack{reg: obs.NewRegistry(), tracer: tr, flight: obs.NewFlightRecorder(0, now)}
}

// timedSearch runs one 42sc search cell (serial, given backend), optionally
// under a full observability stack, and returns its wall time.
func timedSearch(pat *alignment.Patterns, backend string, st *obsStack) (int64, error) {
	m := seqsim.DefaultModel()
	start, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(63)))
	if err != nil {
		return 0, err
	}
	kcfg := likelihood.Config{Backend: backend}
	opt := search.Options{Radius: 3, MaxRounds: 4, SmoothPasses: 2, Epsilon: 0.05, Workers: 1}
	if st != nil {
		kcfg.Observer = obs.NewKernelHists(st.reg, backend)
		kcfg.Now = st.tracer.Now
		opt.Metrics = st.reg
		opt.Trace = st.tracer.Root("bench").WithJob(backend + "#0")
	}
	eng, err := likelihood.NewEngine(pat, m, kcfg)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if st != nil {
		st.flight.Record("attempt", backend+"#0", 1, 0, "")
	}
	_, err = search.Run(eng, start, opt)
	if st != nil {
		st.flight.Record("attempt.ok", backend+"#0", 1, 0, "")
	}
	if err != nil {
		return 0, err
	}
	return time.Since(t0).Nanoseconds(), nil
}

// measureObsOverhead times the serial search bare and instrumented and
// reports best-of for each side. The two variants are interleaved pair by
// pair with the order alternating between pairs, so both slow drift and
// systematic warm-up effects of the host land on both sides equally; the
// minimum is the standard noise-rejecting estimator for a fixed workload
// (anything above the floor is scheduler interference, not the code).
// A ratio from fewer than a handful of pairs is meaningless on a busy
// host, so the cell measures at least minObsPairs pairs even under -quick.
func measureObsOverhead(pat *alignment.Patterns, backend string, reps int) (*ObsOverhead, error) {
	const minObsPairs = 5
	pairs := reps
	if pairs < minObsPairs {
		pairs = minObsPairs
	}
	o := &ObsOverhead{
		Backend: backend, Workers: 1, Reps: pairs,
		BaselineNs: math.MaxInt64, InstrumentedNs: math.MaxInt64,
	}
	for r := 0; r < pairs; r++ {
		// A fresh stack per rep keeps the tracer's event buffer from growing
		// across reps (amortized append cost would flatter later reps).
		stacks := [2]*obsStack{nil, newObsStack()}
		order := [2]int{0, 1}
		if r%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, side := range order {
			ns, err := timedSearch(pat, backend, stacks[side])
			if err != nil {
				return nil, err
			}
			if side == 0 && ns < o.BaselineNs {
				o.BaselineNs = ns
			}
			if side == 1 && ns < o.InstrumentedNs {
				o.InstrumentedNs = ns
			}
		}
	}
	o.Ratio = float64(o.InstrumentedNs) / float64(o.BaselineNs)
	return o, nil
}

// newviewRatios derives the redundancy map: each pooled cell's newview-call
// count over the 1-worker cell of the same backend. A work-count ratio, not
// a time ratio — host-independent, and what the shared ancestral-vector
// store is gated on.
func newviewRatios(entries []Entry) map[string]float64 {
	serial := map[string]uint64{} // backend -> 1-worker newview calls
	for _, e := range entries {
		if e.Workers == 1 {
			serial[e.Backend] = e.Newviews
		}
	}
	nr := map[string]float64{}
	for _, e := range entries {
		if s, ok := serial[e.Backend]; ok && e.Workers > 1 && s > 0 {
			nr[e.Name] = float64(e.Newviews) / float64(s)
		}
	}
	return nr
}

// speedups derives the comparison map: each backend's pool scaling against
// its own serial cell, and each non-scalar backend against scalar at equal
// worker counts.
func speedups(entries []Entry) map[string]float64 {
	serial := map[string]int64{} // backend -> 1-worker ns
	scalar := map[int]int64{}    // workers -> scalar ns
	for _, e := range entries {
		if e.Workers == 1 {
			serial[e.Backend] = e.NsPerOp
		}
		if e.Backend == "scalar" {
			scalar[e.Workers] = e.NsPerOp
		}
	}
	sp := map[string]float64{}
	for _, e := range entries {
		if s, ok := serial[e.Backend]; ok && e.Workers > 1 {
			sp[e.Name] = float64(s) / float64(e.NsPerOp)
		}
		if s, ok := scalar[e.Workers]; ok && e.Backend != "scalar" {
			sp[fmt.Sprintf("%s-vs-scalar-%dw", e.Backend, e.Workers)] = float64(s) / float64(e.NsPerOp)
		}
	}
	return sp
}

// repInto runs one repetition of the cell's search and folds the wall time
// (keeping the minimum) and the deterministic result/counters into e. Every
// rep carries a fresh metrics registry so candidates_scored reflects a
// single search; the registry cost is identical across cells, so
// comparisons stay fair.
func repInto(pat *alignment.Patterns, e *Entry) error {
	start, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(63)))
	if err != nil {
		return err
	}
	eng, err := likelihood.NewEngine(pat, seqsim.DefaultModel(), likelihood.Config{Backend: e.Backend})
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	t0 := time.Now()
	res, err := search.Run(eng, start, search.Options{
		Radius: 3, MaxRounds: 4, SmoothPasses: 2, Epsilon: 0.05,
		Workers: e.Workers, Metrics: reg,
	})
	if err != nil {
		return err
	}
	if ns := time.Since(t0).Nanoseconds(); ns < e.NsPerOp {
		e.NsPerOp = ns
	}
	mt := eng.Meter
	e.LogL, e.Rounds, e.Moves = res.LogL, res.Rounds, res.Moves
	e.Newviews, e.Makenewzs, e.Evaluates = mt.NewviewCalls, mt.MakenewzCalls, mt.EvaluateCalls
	e.Flops, e.Exps = mt.Flops(), mt.Exps
	snap := reg.Snapshot()
	e.CandsScored, _ = snap.CounterValue("search.candidates_scored")
	return nil
}

// runEntry measures one (backend, workers) cell, reporting the best wall
// time over reps repetitions and the (deterministic) result of the last
// one.
func runEntry(pat *alignment.Patterns, backend string, workers, reps int) (*Entry, error) {
	e := &Entry{
		Name:    fmt.Sprintf("%s-%dw", backend, workers),
		Backend: backend, Workers: workers, Reps: reps, NsPerOp: math.MaxInt64,
	}
	for r := 0; r < reps; r++ {
		if err := repInto(pat, e); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// checkFile parses and validates a report: schema tag, a full matrix of
// entries with non-zero timings and kernel counters, matching results
// across every cell, a non-empty speedup map with positive ratios, and a
// newview-ratio map that is complete (one ratio per pooled cell), consistent
// with the entries it was derived from, and within the redundancy budget.
// When minSpeedup > 0, each backend must additionally reach that pool-scaling
// speedup at its largest in-budget worker count (workers <= the measuring
// host's GOMAXPROCS — a 4-worker cell recorded on one CPU proves redundancy,
// not scaling, and is not held to a wall-time bar). When maxObsOverhead > 0,
// the obs_overhead ratio must not exceed it (opt-in for the same reason as
// the scaling gate: wall-time ratios are only trustworthy on a quiet host).
func checkFile(path string, minSpeedup, maxObsOverhead float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	if rep.Schema != schemaID {
		return fmt.Errorf("schema %q, want %q", rep.Schema, schemaID)
	}
	if rep.CPUs < 1 || rep.GoVersion == "" {
		return fmt.Errorf("missing host metadata")
	}
	if len(rep.Backends) == 0 {
		return fmt.Errorf("no backends recorded")
	}
	if len(rep.Entries) == 0 {
		return fmt.Errorf("no entries")
	}
	serialByBackend := map[string]bool{}
	for _, e := range rep.Entries {
		if e.Backend == "" || e.Workers < 1 {
			return fmt.Errorf("entry %s: missing backend/workers", e.Name)
		}
		if e.Workers == 1 {
			serialByBackend[e.Backend] = true
		}
		if e.NsPerOp <= 0 {
			return fmt.Errorf("entry %s: ns_per_op %d", e.Name, e.NsPerOp)
		}
		// Evaluate may legitimately be zero: the SPR workload reads its
		// likelihoods off MakeNewz, so only the other kernels must show up.
		if e.Newviews == 0 || e.Makenewzs == 0 || e.Flops == 0 {
			return fmt.Errorf("entry %s: zero kernel counters", e.Name)
		}
		if !(e.LogL < 0) {
			return fmt.Errorf("entry %s: implausible logL %v", e.Name, e.LogL)
		}
	}
	for _, bk := range rep.Backends {
		if !serialByBackend[bk] {
			return fmt.Errorf("backend %s has no 1-worker entry", bk)
		}
	}
	ref := rep.Entries[0]
	for _, e := range rep.Entries[1:] {
		if math.Abs(ref.LogL-e.LogL) > 1e-9*math.Max(1, math.Abs(ref.LogL)) {
			return fmt.Errorf("entries disagree on logL: %s %.12f vs %s %.12f",
				ref.Name, ref.LogL, e.Name, e.LogL)
		}
		if ref.Moves != e.Moves || ref.Rounds != e.Rounds {
			return fmt.Errorf("entries disagree on search path: %s vs %s", ref.Name, e.Name)
		}
	}
	if len(rep.Speedups) == 0 && len(rep.Entries) > 1 {
		return fmt.Errorf("no speedups recorded for a multi-entry matrix")
	}
	for name, v := range rep.Speedups {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("speedup %s: %v", name, v)
		}
	}

	// Redundancy gate: the recorded newview_ratios must cover every pooled
	// cell, agree with the entries they summarize, and stay within budget.
	want := newviewRatios(rep.Entries)
	for name, w := range want {
		got, ok := rep.NewviewRatios[name]
		if !ok {
			return fmt.Errorf("newview ratio for %s missing", name)
		}
		if math.Abs(got-w) > 1e-9 {
			return fmt.Errorf("newview ratio %s: recorded %.6f, entries say %.6f", name, got, w)
		}
		if got > newviewRatioMax {
			return fmt.Errorf("newview ratio %s: %.3f exceeds redundancy budget %.2f (pooled search redoing serial work — shared vector store not effective)",
				name, got, newviewRatioMax)
		}
	}
	for name := range rep.NewviewRatios {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("newview ratio %s has no matching entries", name)
		}
	}

	// The obs_overhead cell is mandatory in schema /4 and must be internally
	// consistent; the wall-time budget itself is opt-in.
	o := rep.ObsOverhead
	if o == nil {
		return fmt.Errorf("missing obs_overhead cell")
	}
	if o.Backend == "" || o.Workers < 1 || o.BaselineNs <= 0 || o.InstrumentedNs <= 0 {
		return fmt.Errorf("obs_overhead: incomplete cell %+v", *o)
	}
	if want := float64(o.InstrumentedNs) / float64(o.BaselineNs); math.Abs(o.Ratio-want) > 1e-9 {
		return fmt.Errorf("obs_overhead: ratio %.6f inconsistent with timings (want %.6f)", o.Ratio, want)
	}
	if maxObsOverhead > 0 && o.Ratio > maxObsOverhead {
		return fmt.Errorf("obs_overhead: %.3fx exceeds the %.2fx budget (instrumentation no longer free on the hot path)",
			o.Ratio, maxObsOverhead)
	}

	// Scaling gate (opt-in): each backend's pool must pay for itself in wall
	// time at the largest worker count the measuring host could actually run
	// in parallel.
	if minSpeedup > 0 {
		for _, bk := range rep.Backends {
			best := Entry{}
			for _, e := range rep.Entries {
				if e.Backend == bk && e.Workers > 1 && e.Workers <= rep.GOMAXPROCS && e.Workers > best.Workers {
					best = e
				}
			}
			if best.Workers == 0 {
				continue // host too small for any pooled cell; redundancy gate above still applied
			}
			sp, ok := rep.Speedups[best.Name]
			if !ok {
				return fmt.Errorf("no speedup recorded for %s", best.Name)
			}
			if sp < minSpeedup {
				return fmt.Errorf("speedup %s: %.2fx below the %.2fx scaling gate", best.Name, sp, minSpeedup)
			}
		}
	}
	return nil
}
