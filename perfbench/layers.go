package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"raxmlcell/internal/obs"
)

// Span names the program records (see core.Analyze, mw.Supervise and
// search.Run) and the ones the benchmark records around its own calls.
const (
	spanAnalyze    = "analyze" // benchmark: around core.Analyze
	spanCampaign   = "campaign"
	spanAttempt    = "attempt"
	spanSmooth     = "smooth"
	spanAlphaOpt   = "alpha-opt"
	spanRound      = "round"
	spanCheckpoint = "checkpoint.save"
)

// span is one complete ("X") event of a wall trace, in seconds since the
// tracer's epoch.
type span struct {
	Name       string
	Track      string
	Start, End float64
}

func (s span) dur() float64 { return s.End - s.Start }

// parseTrace decodes a Chrome trace written by obs.SpanTracer.WriteJSON
// into its complete spans, with each tid resolved to its track name.
func parseTrace(raw []byte) ([]span, error) {
	var f struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			TS   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			TID  int             `json:"tid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("decode trace: %w", err)
	}
	tracks := map[int]string{}
	var spans []span
	for _, ev := range f.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			var a struct{ Name string }
			if err := json.Unmarshal(ev.Args, &a); err != nil {
				return nil, fmt.Errorf("decode track name: %w", err)
			}
			tracks[ev.TID] = a.Name
		case ev.Ph == "X":
			spans = append(spans, span{
				Name: ev.Name, Track: tracks[ev.TID],
				Start: ev.TS / 1e6, End: (ev.TS + ev.Dur) / 1e6,
			})
		}
	}
	return spans, nil
}

// nestSlack absorbs the trace's microsecond truncation: a child's start and
// duration are truncated separately, so its end can read up to a
// microsecond past its parent's.
const nestSlack = 2e-6

// selfTimes returns each span's self time: its duration minus the
// durations of its direct children, the spans on the same track that lie
// inside it.
func selfTimes(spans []span) []float64 {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.Track != y.Track {
			return x.Track < y.Track
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End > y.End
	})
	self := make([]float64, len(spans))
	var stack []int
	for _, i := range order {
		s := spans[i]
		self[i] = s.dur()
		for len(stack) > 0 {
			p := spans[stack[len(stack)-1]]
			if p.Track == s.Track && s.Start < p.End && s.End <= p.End+nestSlack {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			self[stack[len(stack)-1]] -= s.dur()
		}
		stack = append(stack, i)
	}
	for i := range self {
		self[i] = max(self[i], 0)
	}
	return self
}

// campaignTimes is what the per-layer split needs from one traced analysis.
type campaignTimes struct {
	Analyze, Campaign span

	Attempts    []float64 // every job attempt's duration
	AttemptSelf float64   // Σ attempt self time: resample, engine, start tree
	Search      float64   // Σ smooth + alpha-opt + round: the search proper
	Smooth      float64   // initial branch smoothing
	AlphaOpt    float64   // initial alpha fit
	Round       float64   // SPR rounds, each with its smoothing and refit
	Rounds      int
	EdgeIdle    float64 // Σ over mw workers of idle time before their first and after their last attempt
	Checkpoints int
	Checkpoint  float64
}

// summarize reduces a traced analysis to campaignTimes. workers is the mw
// worker count: a worker that never ran an attempt idles for the whole
// campaign.
func summarize(spans []span, workers int) (campaignTimes, error) {
	var ct campaignTimes
	var haveAnalyze, haveCampaign bool
	self := selfTimes(spans)
	type lane struct{ first, last float64 }
	lanes := map[string]*lane{}
	for i, s := range spans {
		switch s.Name {
		case spanAnalyze:
			ct.Analyze, haveAnalyze = s, true
		case spanCampaign:
			ct.Campaign, haveCampaign = s, true
		case spanAttempt:
			ct.Attempts = append(ct.Attempts, s.dur())
			ct.AttemptSelf += self[i]
			l, ok := lanes[s.Track]
			if !ok {
				l = &lane{first: s.Start, last: s.End}
				lanes[s.Track] = l
			}
			l.first, l.last = min(l.first, s.Start), max(l.last, s.End)
		case spanSmooth:
			ct.Smooth += s.dur()
		case spanAlphaOpt:
			ct.AlphaOpt += s.dur()
		case spanRound:
			ct.Round += s.dur()
			ct.Rounds++
		case spanCheckpoint:
			ct.Checkpoints++
			ct.Checkpoint += s.dur()
		}
	}
	if !haveAnalyze || !haveCampaign {
		return ct, fmt.Errorf("trace lacks the %q or %q span", spanAnalyze, spanCampaign)
	}
	if len(lanes) > workers {
		return ct, fmt.Errorf("trace has attempts on %d worker tracks, campaign had %d workers", len(lanes), workers)
	}
	ct.Search = ct.Smooth + ct.AlphaOpt + ct.Round
	for _, l := range lanes {
		ct.EdgeIdle += (l.first - ct.Campaign.Start) + (ct.Campaign.End - l.last)
	}
	ct.EdgeIdle += float64(workers-len(lanes)) * ct.Campaign.dur()
	return ct, nil
}

// kernelOps are the three likelihood kernels in the order of the paper's
// §5.2 split.
var kernelOps = [3]string{"newview", "makenewz", "evaluate"}

// kernelTimes sums the kernel latency histograms of a registry snapshot
// (kernel.<backend>.<op>_ms, every backend that ran): busy seconds summed
// over all worker contexts, and timed calls.
type kernelTimes struct {
	S        [3]float64
	Calls    [3]uint64
	Backends []string
}

func (k kernelTimes) busy() float64 { return k.S[0] + k.S[1] + k.S[2] }

func kernelTimesOf(snap obs.Snapshot) kernelTimes {
	var k kernelTimes
	for _, h := range snap.Histograms {
		rest, ok := strings.CutPrefix(h.Name, "kernel.")
		if !ok {
			continue
		}
		backend, op, ok := strings.Cut(rest, ".")
		if !ok {
			continue
		}
		for i, name := range kernelOps {
			if op == name+"_ms" {
				k.S[i] += h.Sum / 1000
				k.Calls[i] += h.Count
				if i == 0 {
					k.Backends = append(k.Backends, backend)
				}
			}
		}
	}
	return k
}

// reconciliation splits the capacity of one analysis — its wall time times
// the Workers x Search.Workers CPU slots it asked for — into layers, in
// worker-seconds. Whatever no layer explains is Unattributed.
type reconciliation struct {
	Capacity     float64
	Likelihood   float64 // kernel busy time, all contexts
	Search       float64 // search-span slots not busy in a kernel: bookkeeping, plus pool slots waiting when pooled
	JobSetup     float64 // attempt self time x pool slots: resample, engine, start tree
	Idle         float64 // mw workers before their first and after their last attempt
	Core         float64 // Analyze outside the campaign: model, plan, then best tree, dedup, support, consensus
	Unattributed float64
}

func reconcile(ct campaignTimes, kernelBusy float64, workers, searchWorkers int) reconciliation {
	p := float64(workers * searchWorkers)
	s := float64(searchWorkers)
	r := reconciliation{
		Capacity:   ct.Analyze.dur() * p,
		Likelihood: kernelBusy,
		Search:     s*ct.Search - kernelBusy,
		JobSetup:   s * ct.AttemptSelf,
		Idle:       s * ct.EdgeIdle,
		Core:       p * (ct.Analyze.dur() - ct.Campaign.dur()),
	}
	r.Unattributed = r.Capacity - r.Likelihood - r.Search - r.JobSetup - r.Idle - r.Core
	return r
}

// metric is one named, unit-carrying number of the benchmark's output.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// layerInputs gathers everything the per-layer table is computed from.
type layerInputs struct {
	Workers, SearchWorkers int
	Jobs                   int

	Times   campaignTimes
	Snap    obs.Snapshot
	Kernels kernelTimes

	// From the traced core.Analysis.
	BestLogL                                   float64
	NewviewCalls, MakenewzCalls, EvaluateCalls uint64
	NewtonIters, CacheHits, SharedHits         uint64
	ScaleEvents, Flops, BytesStreamed          uint64
	Attempts, Retries, Quarantined             int
	Bootstraps                                 int // successful bootstrap replicates
	Moves                                      int
	CheckpointBytes                            int64

	// From the untraced run beside it, and from the trace itself.
	UntracedWall float64
	AllocBytes   uint64
	GCCycles     uint32
	GCPauseNs    uint64
	TraceEvents  int
	TraceDropped uint64
}

// ratio divides, reading 0 where the denominator is 0 (a layer that did no
// work on this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func counter(snap obs.Snapshot, name string) float64 {
	v, _ := snap.CounterValue(name)
	return float64(v)
}

func gauge(snap obs.Snapshot, name string) float64 {
	v, _ := snap.GaugeValue(name)
	return v
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// layerMetrics computes the per-layer table. README.md maps each metric to
// the end-to-end metric and workload it should move.
func layerMetrics(in layerInputs) []metric {
	ct, k := in.Times, in.Kernels
	busy := k.busy()
	rec := reconcile(ct, busy, in.Workers, in.SearchWorkers)
	parallelism := ratio(busy, ct.Search)
	candidates := counter(in.Snap, "search.candidates_scored")
	dedup := counter(in.Snap, "bootstrap.dedup_topologies")
	unique := 0.0
	if in.Bootstraps > 0 {
		unique = float64(in.Bootstraps) - dedup
	}
	jobMax := 0.0
	for _, a := range ct.Attempts {
		jobMax = max(jobMax, a)
	}
	pct := func(s float64) float64 { return 100 * ratio(s, busy) }
	return []metric{
		{"likelihood.newview_calls", "count", float64(in.NewviewCalls)},
		{"likelihood.makenewz_calls", "count", float64(in.MakenewzCalls)},
		{"likelihood.evaluate_calls", "count", float64(in.EvaluateCalls)},
		{"likelihood.newton_iters_per_makenewz", "ratio", ratio(float64(in.NewtonIters), float64(in.MakenewzCalls))},
		{"likelihood.cache_hits", "count", float64(in.CacheHits)},
		{"likelihood.shared_hits", "count", float64(in.SharedHits)},
		{"likelihood.scale_events", "count", float64(in.ScaleEvents)},
		{"likelihood.newview_s", "s", k.S[0]},
		{"likelihood.makenewz_s", "s", k.S[1]},
		{"likelihood.evaluate_s", "s", k.S[2]},
		{"likelihood.newview_us_per_call", "us", 1e6 * ratio(k.S[0], float64(k.Calls[0]))},
		{"likelihood.split_newview_pct", "%", pct(k.S[0])},
		{"likelihood.split_makenewz_pct", "%", pct(k.S[1])},
		{"likelihood.split_evaluate_pct", "%", pct(k.S[2])},
		{"likelihood.gflops", "GFLOP/s", ratio(float64(in.Flops), busy) / 1e9},
		{"likelihood.flops_per_byte", "flop/B", ratio(float64(in.Flops), float64(in.BytesStreamed))},

		{"pool.parallelism", "ratio", parallelism},
		{"pool.efficiency", "ratio", parallelism / float64(in.SearchWorkers)},
		{"pool.busy_peak", "count", gauge(in.Snap, "search.pool_busy_peak")},

		{"search.candidates_scored", "count", candidates},
		{"search.rounds", "count", float64(ct.Rounds)},
		{"search.moves", "count", float64(in.Moves)},
		{"search.newview_per_candidate", "ratio", ratio(float64(in.NewviewCalls), candidates)},
		{"search.round_s", "s", ct.Round},
		{"search.smooth_s", "s", ct.Smooth},
		{"search.alpha_opt_s", "s", ct.AlphaOpt},
		{"search.self_s", "s", rec.Search},
		{"search.best_logl", "logL", in.BestLogL},

		{"mw.jobs", "count", float64(in.Jobs)},
		{"mw.attempts", "count", float64(in.Attempts)},
		{"mw.retries", "count", float64(in.Retries)},
		{"mw.quarantined", "count", float64(in.Quarantined)},
		{"mw.job_p50_s", "s", median(ct.Attempts)},
		{"mw.job_max_s", "s", jobMax},
		{"mw.job_samples", "count", float64(len(ct.Attempts))},
		{"mw.job_setup_s", "s", ct.AttemptSelf},
		{"mw.idle_frac", "ratio", 1 - ratio(sum(ct.Attempts), ct.Campaign.dur()*float64(in.Workers))},
		{"mw.checkpoint_saves", "count", float64(ct.Checkpoints)},
		{"mw.checkpoint_s", "s", ct.Checkpoint},
		{"mw.checkpoint_kb", "KB", float64(in.CheckpointBytes) / 1024},

		{"core.prepare_s", "s", ct.Campaign.Start - ct.Analyze.Start},
		{"core.aggregate_s", "s", ct.Analyze.End - ct.Campaign.End},
		{"core.unattributed_s", "s", rec.Unattributed / float64(in.Workers*in.SearchWorkers)},
		{"phylotree.unique_topologies", "count", unique},
		{"phylotree.dedup_topologies", "count", dedup},

		{"recon.likelihood_pct", "%", 100 * ratio(rec.Likelihood, rec.Capacity)},
		{"recon.search_pct", "%", 100 * ratio(rec.Search, rec.Capacity)},
		{"recon.mw_setup_pct", "%", 100 * ratio(rec.JobSetup, rec.Capacity)},
		{"recon.mw_idle_pct", "%", 100 * ratio(rec.Idle, rec.Capacity)},
		{"recon.core_pct", "%", 100 * ratio(rec.Core, rec.Capacity)},
		{"recon.unattributed_pct", "%", 100 * ratio(rec.Unattributed, rec.Capacity)},

		{"go.alloc_mb", "MB", float64(in.AllocBytes) / (1 << 20)},
		{"go.gc_cycles", "count", float64(in.GCCycles)},
		{"go.gc_pause_ms", "ms", float64(in.GCPauseNs) / 1e6},

		{"obs.trace_overhead", "ratio", ratio(ct.Analyze.dur(), in.UntracedWall)},
		{"obs.trace_events", "count", float64(in.TraceEvents)},
		{"obs.trace_dropped", "count", float64(in.TraceDropped)},
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
