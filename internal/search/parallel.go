package search

import (
	"math"
	"runtime"

	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/obs"
	"raxmlcell/internal/phylotree"
)

// AutoWorkers returns the default search-worker fan-out for this process:
// one worker per schedulable CPU (GOMAXPROCS). Callers that expose a
// -search-workers knob should treat 0 as "auto" and resolve it through
// this function before filling Options.Workers, so that Options itself
// keeps its stable contract (Workers <= 1 means serial — a zero value
// never silently spawns a pool).
func AutoWorkers() int { return runtime.GOMAXPROCS(0) }

// AutoWorkersFrom sizes the fan-out from measured occupancy instead of raw
// CPU count: it returns AutoWorkers() capped at the search.pool_busy_peak
// gauge recorded in reg by a previous pooled search. A pool whose peak
// occupancy never reached the worker count was over-provisioned — candidate
// blocks are contiguous and unstolen, so idle workers are pure fan-out
// overhead — and the next search in the same process (bootstrap replicates,
// repeated inferences) right-sizes to what was actually used. With no
// registry, no recorded peak, or a peak at/above the CPU count it behaves
// exactly like AutoWorkers.
func AutoWorkersFrom(reg *obs.Registry) int {
	w := AutoWorkers()
	if reg == nil {
		return w
	}
	snap := reg.Snapshot()
	if peak, ok := snap.GaugeValue("search.pool_busy_peak"); ok {
		if p := int(peak); p >= 1 && p < w {
			return p
		}
	}
	return w
}

// The paper layers task-level parallelism (EDTLP, and at scale MGPS) on
// top of the loop-level parallelism inside each kernel: independent
// likelihood tasks run concurrently on different SPEs. This file is the
// search-side half of that axis — the regraft candidates of one pruned
// subtree are independent read-only queries against the frozen tree, so
// they fan out over a likelihood.Pool, each worker scoring through its own
// context-bound Views over the engine's one vector store. A serial search
// is the same path with a one-worker pool. The other half (wavefront
// traversal execution) lives in the likelihood package and reuses the
// same pool.

// candScore is one scored insertion candidate. ok marks candidates that
// carry a usable score (detached edges are skipped, mirroring the serial
// loop's continue).
type candScore struct {
	z, ll float64
	ok    bool
	err   error
}

// searchCtx carries the task-parallel state of one search: the worker pool
// (one worker for a serial search), per-worker view bindings, reusable
// candidate/score buffers (hoisted out of the SPR hot loop — see the
// hotpathalloc analyzer), and live metric handles.
type searchCtx struct {
	pool  *likelihood.Pool
	views []*likelihood.Views

	// shared is the engine's vector store, read for the cache.* metrics;
	// publishedHits is the part of its hit total already added to the
	// cache.shared_hits counter, which every search of a campaign feeds.
	shared        *likelihood.SharedCache
	publishedHits uint64

	cands  []*phylotree.Node
	scores []candScore

	// roundParallel records whether the current round fanned candidates
	// out over more than one worker at least once.
	roundParallel bool

	// traceRound is the current round's trace context (set by Run before
	// each round, round-labeled); candidate-batch spans record through it.
	// The zero Ctx before the first round — e.g. when scoreInsertions runs
	// under OptimizeAlpha's NNI pass — is a valid no-op.
	traceRound obs.Ctx

	candidatesScored *obs.Counter
	parallelRounds   *obs.Counter
	sharedHits       *obs.Counter
	epochGauge       *obs.Gauge
	busyPeak         *obs.Gauge
}

// newSearchCtx builds the per-search state from the options: a pool of
// max(opt.Workers, 1) worker contexts with one view binding each —
// installed as the engine's wavefront executor when it has more than one
// worker — and metric handles when opt.Metrics is set.
func newSearchCtx(eng *likelihood.Engine, opt Options) *searchCtx {
	sc := &searchCtx{traceRound: opt.Trace, shared: eng.Shared()}
	sc.pool = eng.NewPool(opt.Workers)
	sc.views = make([]*likelihood.Views, sc.pool.Workers())
	for w := range sc.views {
		sc.views[w] = sc.pool.Ctx(w).Views()
	}
	if opt.Metrics != nil {
		sc.candidatesScored = opt.Metrics.Counter("search.candidates_scored")
		sc.parallelRounds = opt.Metrics.Counter("search.parallel_rounds")
		sc.sharedHits = opt.Metrics.Counter("cache.shared_hits")
		sc.epochGauge = opt.Metrics.Gauge("cache.epoch")
	}
	if sc.pool.Workers() > 1 {
		eng.UsePool(sc.pool)
		if opt.Metrics != nil {
			opt.Metrics.Gauge("search.pool_workers").Set(float64(sc.pool.Workers()))
			busy := opt.Metrics.Gauge("search.pool_busy")
			sc.pool.OnOccupancy = func(b, _ int) { busy.Set(float64(b)) }
			sc.busyPeak = opt.Metrics.Gauge("search.pool_busy_peak")
		}
	}
	return sc
}

// close detaches the pool from the engine; the search installed it, so the
// search removes it before handing the engine back to the caller.
func (sc *searchCtx) close(eng *likelihood.Engine) {
	sc.publishCacheMetrics()
	if sc.pool.Workers() > 1 {
		eng.UsePool(nil)
		sc.pool.OnOccupancy = nil
	}
}

// publishCacheMetrics adds the vector store's new hits to the shared-hits
// counter and republishes its epoch and the pool's occupancy high-water
// mark; called at every round boundary and at close.
func (sc *searchCtx) publishCacheMetrics() {
	if sc.sharedHits != nil {
		hits := sc.shared.Hits()
		sc.sharedHits.Add(hits - sc.publishedHits)
		sc.publishedHits = hits
		sc.epochGauge.Set(float64(sc.shared.Epoch()))
	}
	if sc.busyPeak != nil {
		sc.busyPeak.Set(float64(sc.pool.PeakBusy()))
	}
}

// scoreInsertions fills sc.scores with the lazy insertion score of every
// candidate edge for the subtree pruned by ps (starting branch length z0),
// fanning the candidates out over the pool, each worker scoring through
// its own context's Views. The returned slice is indexed by candidate, so
// the caller's reduction — and therefore the chosen move — is independent
// of scheduling and of the worker count. The first error in candidate
// order wins, matching the serial early-exit.
func (sc *searchCtx) scoreInsertions(eng *likelihood.Engine, cands []*phylotree.Node, ps *phylotree.PrunedSubtree, z0 float64) ([]candScore, error) {
	sub := ps.P
	if sc.candidatesScored != nil {
		sc.candidatesScored.Add(uint64(len(cands)))
	}
	csp := sc.traceRound.Start("candidates", "search")
	defer csp.End()
	if cap(sc.scores) < len(cands) {
		sc.scores = make([]candScore, len(cands))
	}
	scores := sc.scores[:len(cands)]
	for i := range scores {
		scores[i] = candScore{}
	}
	eng.BeginBatch()
	if sc.pool.Workers() > 1 && len(cands) > 1 {
		sc.roundParallel = true
	}
	sc.pool.Run(len(cands), func(w, i int) {
		cand := cands[i]
		if cand.Back == nil {
			return
		}
		z, ll, err := sc.views[w].InsertionScore(cand, sub, z0)
		scores[i] = candScore{z: z, ll: ll, ok: err == nil, err: err}
	})
	for i := range scores {
		if scores[i].err != nil {
			return nil, scores[i].err
		}
	}
	return scores, nil
}

// bestCandidate is the SPR winner reduction: the highest log-likelihood
// among the scored candidates, ties broken by lowest candidate index (the
// strictly-greater comparison in index order — byte-identical to the
// serial loop's choice). Returns index -1 when nothing was scored.
func bestCandidate(scores []candScore, z0 float64) (bestIdx int, bestZ, bestLL float64) {
	bestIdx, bestZ, bestLL = -1, z0, math.Inf(-1)
	for i := range scores {
		if scores[i].ok && scores[i].ll > bestLL {
			bestIdx, bestZ, bestLL = i, scores[i].z, scores[i].ll
		}
	}
	return bestIdx, bestZ, bestLL
}

// bestNNICandidate is the NNI reduction: replay the serial acceptance
// chain — a candidate displaces the incumbent only when it gains more than
// eps over it, starting from the current likelihood — in candidate order,
// so the pooled scoring pass picks exactly the move the serial loop would.
func bestNNICandidate(scores []candScore, z0, current, eps float64) (bestIdx int, bestZ, bestLL float64) {
	bestIdx, bestZ, bestLL = -1, z0, current
	for i := range scores {
		if scores[i].ok && scores[i].ll > bestLL+eps {
			bestIdx, bestZ, bestLL = i, scores[i].z, scores[i].ll
		}
	}
	return bestIdx, bestZ, bestLL
}

// finishRound publishes the per-round parallelism accounting and resets it.
func (sc *searchCtx) finishRound() {
	if sc.roundParallel && sc.parallelRounds != nil {
		sc.parallelRounds.Inc()
	}
	sc.roundParallel = false
	sc.publishCacheMetrics()
}

// appendNNITargets collects the NNI candidate branches around v: the two
// branches hanging off v's ring besides v itself (after pruning, these are
// the re-insertion points of the swapped subtree). Records touching the
// pruned ring sub are excluded, mirroring the old scoring-loop guard.
func appendNNITargets(out []*phylotree.Node, v, sub *phylotree.Node) []*phylotree.Node {
	ring := v.Ring()
	if r := ring[1]; r != sub && r.Back != nil && r.Back != sub {
		out = append(out, r)
	}
	if r := ring[2]; r != sub && r.Back != nil && r.Back != sub {
		out = append(out, r)
	}
	return out
}
