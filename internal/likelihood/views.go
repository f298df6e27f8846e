package likelihood

import (
	"fmt"
	"time"

	"raxmlcell/internal/phylotree"
)

// Views is one kernel context's binding to the engine's ancestral-vector
// store for lazy SPR evaluation: after pruning a subtree, every candidate
// insertion branch is scored in O(patterns) time from the stored directed
// vectors of the frozen tree instead of recomputing the whole tree
// (RAxML's lazy SPR). Vectors are engine-wide; kernel scratch, metering and
// the virtual-node buffer stay with the bound context, so concurrent
// scoring uses one Views per worker context (see Pool), never one Views
// from several goroutines.
type Views struct {
	ctx *Ctx
}

// Views returns a view binding on the engine's primary context: vector
// hits and computes are attributed to Engine.Meter directly.
func (e *Engine) Views() *Views { return e.ctx0.Views() }

// Views returns a view binding on this context.
func (c *Ctx) Views() *Views { return &Views{ctx: c} }

// Vector returns the partial likelihood vector and scale counts of the
// subtree behind record r (computed through r's two other ring members)
// from the engine's store, computing any stale part recursively. For tip
// records it returns (nil, nil): callers use the tip codes directly. The
// slices belong to the store and stay valid until the next invalidation.
func (v *Views) Vector(r *phylotree.Node) ([]float64, []int32, error) {
	return v.ctx.eng.shared.vector(v.ctx, r)
}

// combine is the core of newview factored over explicit child buffers:
// child vectors come from the engine's store (or a virtual node), or (nil
// for tips) the pattern data of the child's taxon.
func (c *Ctx) combine(q *phylotree.Node, zq float64, qLv []float64, qSc []int32,
	r *phylotree.Node, zr float64, rLv []float64, rSc []int32,
	dst []float64, dstScale []int32) {

	e := c.eng
	var t0 time.Duration
	timed := e.kobs != nil
	if timed {
		t0 = e.know()
	}
	c.meter.NewviewCalls++
	c.transitionMatrices(zq, c.pLeft)
	c.transitionMatrices(zr, c.pRight)

	qTip, rTip := q.IsTip(), r.IsTip()
	switch {
	case qTip && rTip:
		c.meter.TipTipCalls++
	case qTip || rTip:
		c.meter.TipInnerCalls++
	default:
		c.meter.InnerInnerCalls++
	}
	if qTip {
		c.tipProjection(c.pLeft, c.tipPL)
	}
	if rTip {
		c.tipProjection(c.pRight, c.tipPR)
	}
	var qData, rData []byte
	if qTip {
		qData = e.Pat.Data[q.Index]
	}
	if rTip {
		rData = e.Pat.Data[r.Index]
	}

	ncat := e.ncat
	c.combOp = combineOp{qData: qData, rData: rData, qLv: qLv, rLv: rLv, qSc: qSc, rSc: rSc, dst: dst, dstScale: dstScale}
	op := &c.combOp
	bk := e.backend

	var total combineStats
	if e.parallel() {
		ranges := e.splitPatterns()
		stats := make([]combineStats, len(ranges))
		e.runParallel(ranges, func(pr patRange, slot int) {
			stats[slot] = bk.combineRange(c, op, pr, slot)
		})
		for _, st := range stats {
			total.add(st)
		}
	} else {
		total = bk.combineRange(c, op, patRange{0, e.npat}, 0)
	}
	c.meter.Muls += total.muls
	c.meter.Adds += total.adds
	c.meter.BigLoopIters += total.bigIters
	c.meter.ScaleChecks += total.scaleChecks
	c.meter.ScaleEvents += total.scaleEvents
	bytesPerVec := uint64(e.npat * ncat * ns * 8)
	n := uint64(1)
	if !qTip {
		n++
	}
	if !rTip {
		n++
	}
	c.meter.BytesStreamed += n * bytesPerVec
	if timed {
		e.kobs.ObserveKernel(OpNewview, e.know()-t0)
	}
}

// InsertionScore evaluates the lazy-SPR score of regrafting a pruned
// subtree into the branch (cand, cand.Back): a virtual internal node is
// formed over the two branch halves, its vector combined from the cached
// views, and only the subtree's own branch length is optimized by
// Newton-Raphson (RAxML's "lazy" evaluation). sub is the detached ring
// record holding the subtree behind sub.Back; z0 is the starting branch
// length. The tree itself is not modified; the store only gains vectors
// under its single-flight latches, so concurrent calls are safe when every
// goroutine scores through its own context's Views.
func (v *Views) InsertionScore(cand *phylotree.Node, sub *phylotree.Node, z0 float64) (bestZ, logL float64, err error) {
	if cand.Back == nil {
		return 0, 0, fmt.Errorf("likelihood: candidate edge is detached")
	}
	s := sub.Back
	if s == nil {
		return 0, 0, fmt.Errorf("likelihood: pruned subtree has no root")
	}
	c := v.ctx

	aLv, aSc, err := v.Vector(cand)
	if err != nil {
		return 0, 0, err
	}
	bLv, bSc, err := v.Vector(cand.Back)
	if err != nil {
		return 0, 0, err
	}
	// Virtual node x over the split candidate branch.
	if c.xLv == nil {
		e := c.eng
		c.xLv = make([]float64, e.npat*e.ncat*ns)
		c.xSc = make([]int32, e.npat)
	}
	half := cand.Z / 2
	c.combine(cand, half, aLv, aSc, cand.Back, half, bLv, bSc, c.xLv, c.xSc)

	// Subtree-side vector: viewed through the subtree root record s, whose
	// children live inside the pruned subtree.
	sLv, sSc, err := v.Vector(s)
	if err != nil {
		return 0, 0, err
	}
	return c.newtonOnBranch(c.xLv, c.xSc, s, sLv, sSc, z0)
}

// newtonOnBranch optimizes the branch length between an explicit vector
// (pLv/pSc) and a node side given by (q, qLv, qSc) — q may be a tip (qLv
// nil). It is the sum-table core of MakeNewz reused by the lazy SPR path,
// running entirely on context-owned scratch.
func (c *Ctx) newtonOnBranch(pLv []float64, pSc []int32, q *phylotree.Node, qLv []float64, qSc []int32, z0 float64) (float64, float64, error) {
	e := c.eng
	c.meter.MakenewzCalls++
	var qData []byte
	if q.IsTip() {
		qData = e.Pat.Data[q.Index]
	}
	scaleConst := c.buildSumTable(pLv, pSc, qData, qLv, qSc)
	bestT, bestLL := c.newtonSolve(z0, scaleConst)
	return bestT, bestLL, nil
}
