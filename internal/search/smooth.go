// Package search implements RAxML's rapid hill-climbing tree search on top
// of the likelihood kernels: branch-length smoothing sweeps, Gamma shape
// optimization by golden-section search, and radius-bounded lazy SPR
// rearrangements with a best-insertion list.
package search

import (
	"fmt"
	"math"

	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/phylotree"
)

// SmoothBranches runs up to maxPasses Newton sweeps over every branch of
// the tree, stopping early when a full pass improves the log-likelihood by
// less than eps. It returns the final log-likelihood.
//
// No explicit cache management is needed here: MakeNewz invalidates the
// engine's vector store itself whenever it changes a branch length, so
// each Newton step recomputes only the views the previous step dirtied
// instead of the whole tree (all of it under Config.FullRecompute).
func SmoothBranches(eng *likelihood.Engine, tr *phylotree.Tree, maxPasses int, eps float64) (float64, error) {
	if maxPasses <= 0 {
		maxPasses = 1
	}
	last := math.Inf(-1)
	for pass := 0; pass < maxPasses; pass++ {
		var ll float64
		for _, e := range tr.Edges() {
			var err error
			_, ll, err = eng.MakeNewz(e)
			if err != nil {
				return 0, fmt.Errorf("search: smoothing: %w", err)
			}
		}
		if ll-last < eps {
			return ll, nil
		}
		last = ll
	}
	return last, nil
}

// OptimizeAlpha fits the Gamma shape parameter by golden-section search on
// the tree log-likelihood over alpha in [lo, hi], updating the engine's
// model in place. It returns the best alpha and its log-likelihood.
func OptimizeAlpha(eng *likelihood.Engine, tr *phylotree.Tree, lo, hi, tol float64) (float64, float64, error) {
	if eng.Mod.NumCats() <= 1 {
		// No rate heterogeneity to fit.
		ll, err := eng.Evaluate(tr.Tips[0])
		return eng.Mod.Alpha, ll, err
	}
	if lo <= 0 || hi <= lo {
		return 0, 0, fmt.Errorf("search: bad alpha bounds [%g, %g]", lo, hi)
	}
	if tol <= 0 {
		tol = 1e-3
	}
	eval := func(alpha float64) (float64, error) {
		m, err := eng.Mod.WithAlpha(alpha)
		if err != nil {
			return 0, err
		}
		if err := eng.SetModel(m); err != nil {
			return 0, err
		}
		return eng.Evaluate(tr.Tips[0])
	}
	// Golden-section search in log(alpha) space (the likelihood surface is
	// much closer to symmetric there).
	const phi = 0.6180339887498949
	a, b := math.Log(lo), math.Log(hi)
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, err := eval(math.Exp(x1))
	if err != nil {
		return 0, 0, err
	}
	f2, err := eval(math.Exp(x2))
	if err != nil {
		return 0, 0, err
	}
	for b-a > tol {
		if f1 < f2 {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2, err = eval(math.Exp(x2))
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1, err = eval(math.Exp(x1))
		}
		if err != nil {
			return 0, 0, err
		}
	}
	best := math.Exp((a + b) / 2)
	ll, err := eval(best)
	if err != nil {
		return 0, 0, err
	}
	return best, ll, nil
}
