package likelihood

import (
	"fmt"
	"math"
	"time"

	"raxmlcell/internal/phylotree"
)

// newtonMaxIter bounds the Newton-Raphson iteration count per branch.
const newtonMaxIter = 64

// newtonTol is the convergence tolerance on the branch length.
const newtonTol = 1e-9

// MakeNewz optimizes the length of the branch (p, p.Back) with respect to
// the tree likelihood using Newton-Raphson, the paper's makenewz(). As in
// RAxML it first ensures the partial vectors at both branch ends are
// current (calling newview), then iterates on a per-pattern eigenmode sum
// table: the site likelihood along a branch is
//
//	L(t) = (1/C) Σ_c Σ_k A[pat,c,k] · exp(λ_k r_c t)
//
// so first and second derivatives come from the same table. The optimized
// length is written back to the branch and returned together with the
// log-likelihood at the optimum.
func (e *Engine) MakeNewz(p *phylotree.Node) (float64, float64, error) {
	e.BeginBatch()
	return e.ctx0.MakeNewz(p)
}

// MakeNewz is the context-scoped form of Engine.MakeNewz. All Newton
// scratch (sum table, λr products, exponential blocks) is per-context, so
// the solver itself never aliases across contexts; note however that it
// writes the engine's vector store (NewView) and the branch length back
// into the shared tree, so concurrent calls on one engine are only safe
// when the caller guarantees the touched regions are disjoint.
// The concurrency-safe scoring path is Views.InsertionScore, which runs
// the same Newton core against private buffers.
func (c *Ctx) MakeNewz(p *phylotree.Node) (float64, float64, error) {
	e := c.eng
	q := p.Back
	if q == nil {
		return 0, 0, fmt.Errorf("likelihood: MakeNewz on detached branch")
	}
	if p.IsTip() && q.IsTip() {
		return 0, 0, fmt.Errorf("likelihood: tip-tip branch")
	}
	if p.IsTip() {
		p, q = q, p
	}
	// After these two calls both views facing the branch (p, q) are
	// current; the final SetZ below dirties exactly the views whose
	// subtree contains the branch.
	c.NewView(p)
	c.NewView(q)
	c.meter.MakenewzCalls++
	zEntry := p.Z

	pLv, pScale := e.shared.view(p)
	qLv, qScale := e.shared.view(q)
	var qData []byte
	if q.IsTip() {
		qData = e.Pat.Data[q.Index]
	}
	scaleConst := c.buildSumTable(pLv, pScale, qData, qLv, qScale)
	bestT, bestLL := c.newtonSolve(p.Z, scaleConst)
	p.SetZ(bestT)
	//lint:ignore floatcmp deliberate bit-exact check: any change to the stored branch length, however small, must invalidate cached views
	if p.Z != zEntry {
		e.Invalidate(p)
	}
	return bestT, bestLL, nil
}

// buildSumTable fills c.sumTab with the eigenmode sum table A[pat][c][k]
// of the branch between an explicit vector (pLv/pSc) and a q side (tip
// codes or vector/scale), returning the t-independent scaling constant.
// The build dispatches to the engine's backend but stays single-range: it
// runs once per branch while newtonReduce runs once per Newton iteration,
// and a serial build keeps the scaling-constant summation order
// independent of Config.Threads.
func (c *Ctx) buildSumTable(pLv []float64, pSc []int32, qData []byte, qLv []float64, qSc []int32) float64 {
	e := c.eng
	c.sumOp = sumOp{pLv: pLv, pSc: pSc, qData: qData, qLv: qLv, qSc: qSc}
	part := e.backend.sumTableRange(c, &c.sumOp, patRange{0, e.npat}, 0)
	c.meter.Muls += part.muls
	c.meter.Adds += part.adds
	return part.scaleConst
}

// newtonSolve runs the Newton-Raphson branch-length iteration on the sum
// table prepared in c.sumTab, starting from z0, and returns the best
// (length, logL + scaleConst) point seen. Shared by MakeNewz and the
// lazy-SPR scorer (newtonOnBranch).
func (c *Ctx) newtonSolve(z0, scaleConst float64) (bestT, bestLL float64) {
	e := c.eng
	var tObs time.Duration
	timed := e.kobs != nil
	if timed {
		tObs = e.know()
	}
	g := e.Mod.GTR

	// lamr[matrix][k] = λ_k · r_c, one block per distinct rate category.
	lamr := c.lamr
	for cat := 0; cat < e.nmat; cat++ {
		for k := 0; k < ns; k++ {
			lamr[cat*ns+k] = g.Lambda[k] * e.Mod.Cats[cat]
		}
	}
	c.meter.Muls += uint64(e.nmat * ns)

	weights := e.Pat.Weights
	// likelihoodAt evaluates logL, dlogL/dt and d2logL/dt2 at t.
	likelihoodAt := func(t float64) (ll, d1, d2 float64) {
		// e0 = exp(λrt), e1 = λr·exp, e2 = (λr)²·exp; context-owned
		// scratch, since this closure runs once per Newton iteration.
		e0, e1, e2 := c.newzE0, c.newzE1, c.newzE2
		for i, lr := range lamr {
			ex := e.expFn(lr * t)
			e0[i] = ex
			e1[i] = lr * ex
			e2[i] = lr * lr * ex
		}
		c.meter.Exps += uint64(e.nmat * ns)
		c.meter.Muls += uint64(3 * e.nmat * ns)
		ll, d1, d2 = c.newtonReduce(e0, e1, e2, weights)
		return ll + scaleConst, d1, d2
	}

	t := z0
	bestT, bestLL = t, math.Inf(-1)
	for iter := 0; iter < newtonMaxIter; iter++ {
		c.meter.NewtonIters++
		ll, d1, d2 := likelihoodAt(t)
		if ll > bestLL {
			bestLL, bestT = ll, t
		}
		var next float64
		if d2 < 0 {
			next = t - d1/d2
		} else {
			// Not locally concave: move along the gradient geometrically.
			if d1 > 0 {
				next = t * 2
			} else {
				next = t / 2
			}
		}
		if next < phylotree.MinBranchLength {
			next = phylotree.MinBranchLength
		}
		if next > phylotree.MaxBranchLength {
			next = phylotree.MaxBranchLength
		}
		if math.Abs(next-t) < newtonTol*(1+t) {
			t = next
			break
		}
		t = next
	}
	// Evaluate at the final t; keep the best seen point (Newton can
	// overshoot on flat likelihood surfaces).
	ll, _, _ := likelihoodAt(t)
	if ll >= bestLL {
		bestLL, bestT = ll, t
	}
	if timed {
		e.kobs.ObserveKernel(OpMakenewz, e.know()-tObs)
	}
	return bestT, bestLL
}
