package search

import (
	"fmt"
	"math"

	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/obs"
	"raxmlcell/internal/phylotree"
)

// Progress is one point on a search's log-likelihood trajectory, reported
// through Options.OnProgress as the hill-climb advances.
type Progress struct {
	Phase string  // "start" (initial smoothing), "round" (after an SPR round), "final"
	Round int     // SPR rounds completed (0 at the start point)
	Moves int     // accepted SPR moves so far
	LogL  float64 // current log-likelihood
	Alpha float64 // current Gamma shape
}

// Options configures the hill-climbing search.
type Options struct {
	Radius       int     // SPR rearrangement radius (RAxML's rearrangement setting)
	MaxRounds    int     // maximum SPR improvement rounds
	SmoothPasses int     // branch smoothing passes between rounds
	Epsilon      float64 // minimum log-likelihood gain to keep iterating
	AlphaOpt     bool    // re-fit the Gamma shape between rounds
	ModelOpt     bool    // fit the GTR exchangeabilities on the final tree

	// OnProgress, when non-nil, receives the per-step log-likelihood
	// trajectory of the search (the series behind live campaign metrics
	// and Figure-3-style scheduler reasoning). It runs on the searching
	// goroutine, so it must be cheap and must not mutate the tree/engine.
	OnProgress func(Progress)

	// Workers > 1 enables task-level parallelism inside this search: the
	// SPR/NNI insertion candidates of each pruned subtree are scored
	// concurrently on a pool of Workers kernel contexts, and traversal
	// descriptors execute wavefront-parallel on the same pool, all workers
	// reading ancestral vectors through the engine's one epoch-tagged store
	// (likelihood.SharedCache) so no worker redoes another's shared-path
	// newview work. The chosen moves, final topology and log-likelihood
	// are identical to the serial search (up to documented FP summation
	// order, see DESIGN.md "Parallelism layers"); <= 1 runs the same path
	// on a single worker. Orthogonal to
	// likelihood.Config.Threads, which splits the per-pattern loops
	// *inside* one kernel call — total concurrency ≈ Workers × Threads.
	Workers int

	// Metrics, when non-nil, receives the live search series: the
	// search.candidates_scored / search.parallel_rounds counters, the
	// search.pool_workers / search.pool_busy / search.pool_busy_peak
	// occupancy gauges (pooled searches only), the search.round_ms latency
	// histogram, and the vector store's cache.shared_hits counter and
	// cache.epoch gauge.
	Metrics *obs.Registry

	// Trace is the wall-clock span context this search records into
	// (smoothing passes, alpha refits, SPR rounds, candidate batches),
	// usually pre-labeled with the job by the mw layer. The zero Ctx
	// disables tracing.
	Trace obs.Ctx
}

// DefaultOptions mirrors the paper's search regime at small scale.
func DefaultOptions() Options {
	return Options{Radius: 5, MaxRounds: 10, SmoothPasses: 4, Epsilon: 0.01, AlphaOpt: true}
}

func (o *Options) fillDefaults() {
	d := DefaultOptions()
	if o.Radius <= 0 {
		o.Radius = d.Radius
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = d.MaxRounds
	}
	if o.SmoothPasses <= 0 {
		o.SmoothPasses = d.SmoothPasses
	}
	if o.Epsilon <= 0 {
		o.Epsilon = d.Epsilon
	}
}

// pruneCandidates enumerates every internal ring record whose removal is a
// legal SPR prune (its Back side is the subtree that moves).
func pruneCandidates(tr *phylotree.Tree) []*phylotree.Node {
	var out []*phylotree.Node
	for _, e := range tr.Edges() {
		if !e.IsTip() {
			out = append(out, e)
		}
		if !e.Back.IsTip() {
			out = append(out, e.Back)
		}
	}
	return out
}

// sprRound performs one pass of lazy SPR over all prune candidates: each
// subtree is pruned, trial-inserted into every edge within the
// rearrangement radius of the detachment point (optimizing only the
// subtree's own branch, RAxML's "lazy" evaluation), and kept at the best
// position if that improves the current likelihood by more than eps.
// It returns the updated log-likelihood and the number of accepted moves.
// Candidate scoring goes through sc — concurrently when the search has a
// worker pool, with the winner reduced deterministically in candidate
// order either way.
func sprRound(eng *likelihood.Engine, tr *phylotree.Tree, sc *searchCtx, radius int, baseline, eps float64) (float64, int, error) {
	current := baseline
	accepted := 0
	// Error wrapping happens after the loop: fmt.Errorf boxes its operands,
	// and the round loop is hot (see the hotpathalloc analyzer), so failures
	// break out with a stage tag and format once on the cold path.
	var stage string
	var stageErr error
	for _, p := range pruneCandidates(tr) {
		if p.Back == nil || p.Next == nil {
			continue // record was detached by a concurrent accepted move
		}
		ps, err := tr.Prune(p)
		if err != nil {
			continue
		}
		zSub := ps.P.Z

		sc.cands = phylotree.RadiusEdgesInto(sc.cands[:0], ps.Q, radius)
		sc.cands = phylotree.RadiusEdgesInto(sc.cands, ps.R, radius)

		// Lazy SPR: score every candidate from cached directed vectors of
		// the (fixed) pruned tree, optimizing only the subtree's branch.
		scores, err := sc.scoreInsertions(eng, sc.cands, ps, zSub)
		if err != nil {
			stage, stageErr = "trial insertion", err
			break
		}
		bestIdx, bestZ, bestLL := bestCandidate(scores, zSub)

		if bestIdx >= 0 && bestLL > current+eps {
			if err := tr.Regraft(ps, sc.cands[bestIdx]); err != nil {
				stage, stageErr = "accepting move", err
				break
			}
			ps.P.SetZ(bestZ)
			eng.Invalidate(ps.P) // direct SetZ bypasses the tree's hooks
			// Locally optimize the three branches around the insertion.
			for _, b := range [...]*phylotree.Node{ps.P, ps.P.Next, ps.P.Next.Next} {
				if _, ll, err := eng.MakeNewz(b); err == nil {
					bestLL = ll
				}
			}
			current = bestLL
			accepted++
		} else {
			if err := tr.Undo(ps); err != nil {
				stage, stageErr = "undo", err
				break
			}
		}
	}
	sc.finishRound()
	if stageErr != nil {
		return 0, 0, fmt.Errorf("search: %s: %w", stage, stageErr)
	}
	return current, accepted, nil
}

// Result is the outcome of one inference.
type Result struct {
	Tree   *phylotree.Tree
	LogL   float64
	Alpha  float64
	Rounds int
	Moves  int // accepted SPR moves
}

// Run executes the full hill-climbing search on the given starting tree
// (mutated in place): smooth branches, fit alpha, then SPR rounds until no
// round gains more than Epsilon, with a final smoothing.
func Run(eng *likelihood.Engine, start *phylotree.Tree, opt Options) (*Result, error) {
	opt.fillDefaults()
	if err := start.Validate(); err != nil {
		return nil, fmt.Errorf("search: starting tree: %w", err)
	}
	// Let the engine observe topology mutations so stored partial vectors
	// are invalidated automatically.
	eng.AttachTree(start)

	// Task-level parallelism: candidate scoring and wavefront traversal
	// execution share one worker pool for the duration of this search.
	sc := newSearchCtx(eng, opt)
	defer sc.close(eng)

	tctx := opt.Trace
	var roundHist *obs.Histogram
	if opt.Metrics != nil {
		roundHist = opt.Metrics.Histogram("search.round_ms", obs.MsBuckets)
	}

	ssp := tctx.Start("smooth", "search")
	ll, err := SmoothBranches(eng, start, opt.SmoothPasses, opt.Epsilon)
	ssp.End()
	if err != nil {
		return nil, err
	}
	alpha := eng.Mod.Alpha
	if opt.AlphaOpt {
		asp := tctx.Start("alpha-opt", "search")
		alpha, ll, err = OptimizeAlpha(eng, start, 0.02, 50, 1e-2)
		asp.End()
		if err != nil {
			return nil, err
		}
	}

	if opt.OnProgress != nil {
		opt.OnProgress(Progress{Phase: "start", LogL: ll, Alpha: alpha})
	}

	res := &Result{Tree: start, Alpha: alpha}
	for round := 0; round < opt.MaxRounds; round++ {
		res.Rounds = round + 1
		// The round's events — including the candidate-batch spans recorded
		// inside scoreInsertions — carry the round label; the round span
		// itself covers SPR + smoothing + alpha refit and feeds the
		// search.round_ms histogram.
		rctx := tctx.WithRound(round + 1)
		sc.traceRound = rctx
		rsp := rctx.Start("round", "search")
		newLL, moves, err := sprRound(eng, start, sc, opt.Radius, ll, opt.Epsilon)
		if err != nil {
			rsp.End()
			return nil, err
		}
		res.Moves += moves
		newLL, err = SmoothBranches(eng, start, opt.SmoothPasses, opt.Epsilon)
		if err != nil {
			rsp.End()
			return nil, err
		}
		if opt.AlphaOpt && moves > 0 {
			alpha, newLL, err = OptimizeAlpha(eng, start, 0.02, 50, 1e-2)
			if err != nil {
				rsp.End()
				return nil, err
			}
			res.Alpha = alpha
		}
		rsp.EndObserve(roundHist)
		if opt.OnProgress != nil {
			opt.OnProgress(Progress{Phase: "round", Round: round + 1, Moves: res.Moves, LogL: newLL, Alpha: alpha})
		}
		if newLL-ll < opt.Epsilon {
			ll = math.Max(ll, newLL)
			break
		}
		ll = newLL
	}
	if opt.ModelOpt {
		fitted, err := OptimizeAll(eng, start, opt.Epsilon)
		if err != nil {
			return nil, err
		}
		if fitted > ll {
			ll = fitted
		}
		res.Alpha = eng.Mod.Alpha
	}
	res.LogL = ll
	if opt.OnProgress != nil {
		opt.OnProgress(Progress{Phase: "final", Round: res.Rounds, Moves: res.Moves, LogL: ll, Alpha: res.Alpha})
	}
	return res, nil
}
