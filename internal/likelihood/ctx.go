package likelihood

import (
	"fmt"

	"raxmlcell/internal/phylotree"
)

// Ctx is one kernel execution context: all the per-call scratch the hot
// kernels need (transition-matrix panels, tip-projection tables, Newton sum
// tables and exponential blocks, traversal descriptors, the lazy-SPR
// virtual-node vector) plus the meter/underflow sinks the kernels
// accumulate into.
//
// The engine owns a primary context whose sinks are Engine.Meter and the
// engine's underflow counter, so the public Engine API behaves exactly as
// before. Engine.NewCtx mints additional worker contexts for task-level
// parallelism (concurrent SPR candidate scoring, wavefront traversal
// execution); each accumulates into private counters that Pool merges back
// deterministically after every fan-out. Two goroutines may run kernels
// concurrently iff each owns its own Ctx: the engine state they share
// (patterns, model, tip vectors, exp function) is read-only, and the
// ancestral-vector store is written either under its per-slot
// single-flight latch (Views) or by the wavefront executor, which
// guarantees disjoint writes within a dependency level.
type Ctx struct {
	eng *Engine

	// meter/underflow are the accumulation sinks: the engine's own
	// counters for the primary context, the private fields below for pool
	// workers (merged in worker order by Pool.Run, see mergeInto).
	meter     *Meter
	underflow *uint64

	ownMeter     Meter
	ownUnderflow uint64

	// Per-call scratch, reused across invocations.
	pLeft, pRight []float64 // transition matrices [cat*ns*ns + i*ns + j]
	tipPL, tipPR  []float64 // tip projections [cat*16*ns + code*ns + i]

	// Newton-Raphson scratch shared by MakeNewz and the lazy-SPR scorer:
	// the per-pattern eigenmode sum table, λ_k·r_c products, and the
	// exp(λrt) / derivative blocks rebuilt every Newton iteration. Living
	// on the context (not the engine, where PR 2 hoisted them) keeps
	// concurrent Newton solves from aliasing each other's buffers.
	sumTab                 []float64
	lamr                   []float64
	newzE0, newzE1, newzE2 []float64

	trav []*phylotree.Node // traversal-descriptor scratch

	// xLv/xSc hold the virtual node Views.InsertionScore forms over a
	// candidate branch; allocated on first use.
	xLv []float64
	xSc []int32

	// Backend operand blocks, stored on the context so passing their
	// address through the Backend interface never escapes into a per-call
	// heap allocation. One of each suffices: a context runs at most one
	// kernel call at a time, and the Threads fan-out shares the (read-only)
	// operands across its ranges.
	combOp combineOp
	evalOp evalOp
	sumOp  sumOp
	newtOp newtonOp

	// tiles is backend-private scratch (sized by Backend.initCtx), one
	// entry per Threads fan-out slot so concurrent ranges never alias.
	tiles []tileScratch
}

// NewCtx returns a fresh worker context over the engine. Its kernel
// counters accumulate privately until merged into the engine (Pool does
// this after every fan-out); use the Engine methods directly when no
// task-level concurrency is involved.
func (e *Engine) NewCtx() *Ctx {
	c := &Ctx{eng: e}
	c.meter = &c.ownMeter
	c.underflow = &c.ownUnderflow
	c.alloc()
	return c
}

// newPrimaryCtx builds the engine-owned context whose counters are the
// engine's public Meter and underflow total.
func (e *Engine) newPrimaryCtx() *Ctx {
	c := &Ctx{eng: e}
	c.meter = &e.Meter
	c.underflow = &e.underflowSites
	c.alloc()
	return c
}

func (c *Ctx) alloc() {
	e := c.eng
	c.pLeft = make([]float64, e.nmat*ns*ns)
	c.pRight = make([]float64, e.nmat*ns*ns)
	c.tipPL = make([]float64, e.nmat*16*ns)
	c.tipPR = make([]float64, e.nmat*16*ns)
	c.sumTab = make([]float64, e.npat*e.ncat*ns)
	c.lamr = make([]float64, e.nmat*ns)
	c.newzE0 = make([]float64, e.nmat*ns)
	c.newzE1 = make([]float64, e.nmat*ns)
	c.newzE2 = make([]float64, e.nmat*ns)
	e.backend.initCtx(c)
}

// Engine returns the engine this context runs kernels for.
func (c *Ctx) Engine() *Engine { return c.eng }

// mergeInto folds the context's private counters into the engine and
// resets them. Pool.Run calls it in worker order after every fan-out;
// uint64 addition commutes, so the merged totals do not depend on how the
// scheduler interleaved the workers.
func (c *Ctx) mergeInto(e *Engine) {
	e.Meter.Add(&c.ownMeter)
	e.underflowSites += c.ownUnderflow
	c.ownMeter.Reset()
	c.ownUnderflow = 0
}

// transitionMatrices fills dst (layout [cat][i][j]) with P(z·rate_c) for
// every rate category. This is the paper's "first loop" (4-25 iterations,
// 36 FP ops each) and the home of the exp() calls that dominated the naive
// SPE port.
func (c *Ctx) transitionMatrices(z float64, dst []float64) {
	e := c.eng
	g := e.Mod.GTR
	for cat := 0; cat < e.nmat; cat++ {
		tr := z * e.Mod.Cats[cat]
		var expl [ns]float64
		for k := 0; k < ns; k++ {
			expl[k] = e.expFn(g.Lambda[k] * tr)
		}
		c.meter.Exps += ns
		c.meter.Muls += ns // lambda*tr
		base := cat * ns * ns
		for i := 0; i < ns; i++ {
			for j := 0; j < ns; j++ {
				s := 0.0
				for k := 0; k < ns; k++ {
					s += g.V[i][k] * expl[k] * g.VInv[k][j]
				}
				if s < 0 {
					s = 0
				}
				dst[base+i*ns+j] = s
			}
		}
		c.meter.Muls += ns * ns * 2 * ns
		c.meter.Adds += ns * ns * (ns - 1)
		c.meter.SmallLoopIters++
	}
}

// tipProjection fills dst (layout [cat][code][i]) with P·tipvec for all 16
// ambiguity codes: the RAxML tip-case specialization that replaces a full
// per-pattern matrix-vector product by a table lookup.
func (c *Ctx) tipProjection(p []float64, dst []float64) {
	e := c.eng
	for cat := 0; cat < e.nmat; cat++ {
		pc := p[cat*ns*ns:]
		for code := 0; code < 16; code++ {
			tv := &e.tipVec[code]
			for i := 0; i < ns; i++ {
				s := 0.0
				for j := 0; j < ns; j++ {
					s += pc[i*ns+j] * tv[j]
				}
				dst[cat*16*ns+code*ns+i] = s
			}
		}
	}
	c.meter.Muls += uint64(e.nmat * 16 * ns * ns)
	c.meter.Adds += uint64(e.nmat * 16 * ns * (ns - 1))
}

// NewView makes the partial likelihood vector behind the internal ring
// record p current; see Engine.NewView for semantics. On the engine's
// primary context with a pool attached (Engine.UsePool), the traversal
// descriptor executes wavefront-parallel: the descriptor is grouped into
// dependency levels and each level's independent computeView calls fan out
// over the pool's worker contexts.
func (c *Ctx) NewView(p *phylotree.Node) {
	if p.IsTip() {
		return
	}
	c.trav = c.appendTraversal(c.trav[:0], p)
	e := c.eng
	if c == e.ctx0 && e.pool != nil && len(c.trav) >= wavefrontMinNodes {
		e.pool.wavefront(c.trav)
		return
	}
	for _, nd := range c.trav {
		c.computeView(nd)
	}
}

// appendTraversal builds the traversal descriptor rooted at p: the
// postorder (children before parents) list of ring records whose stored
// views are not current.
func (c *Ctx) appendTraversal(steps []*phylotree.Node, p *phylotree.Node) []*phylotree.Node {
	if p.IsTip() {
		return steps
	}
	if c.eng.shared.current(p) {
		c.meter.CacheHits++
		return steps
	}
	steps = c.appendTraversal(steps, p.Next.Back)
	steps = c.appendTraversal(steps, p.Next.Next.Back)
	return append(steps, p)
}

// computeView executes one descriptor entry: combine the two child vectors
// of ring record p into p's store slot and publish it. The wavefront
// executor calls this concurrently from several contexts, which is safe
// because entries of one dependency level write disjoint slots and only
// read slots finished in earlier levels.
func (c *Ctx) computeView(p *phylotree.Node) {
	s := c.eng.shared
	s.compute(c, p, s.entry(p))
}

// evaluate computes the log-likelihood of the tree across the branch
// (p, p.Back), optionally filling perSite with per-pattern logs. It is a
// thin timing shell over evaluateKernel so the kernel body keeps its early
// error returns without threading the observer through each of them.
func (c *Ctx) evaluate(p *phylotree.Node, perSite []float64) (float64, error) {
	e := c.eng
	if e.kobs == nil {
		return c.evaluateKernel(p, perSite)
	}
	t0 := e.know()
	logL, err := c.evaluateKernel(p, perSite)
	e.kobs.ObserveKernel(OpEvaluate, e.know()-t0)
	return logL, err
}

// evaluateKernel is the evaluate body (see evaluate).
func (c *Ctx) evaluateKernel(p *phylotree.Node, perSite []float64) (float64, error) {
	e := c.eng
	q := p.Back
	if q == nil {
		return 0, fmt.Errorf("likelihood: Evaluate on detached branch")
	}
	if p.IsTip() && q.IsTip() {
		return 0, fmt.Errorf("likelihood: tip-tip branch cannot exist in an unrooted tree with >= 3 taxa")
	}
	// Orient so that q is the (possibly) tip side.
	if p.IsTip() {
		p, q = q, p
	}
	c.NewView(p)
	c.NewView(q)
	c.meter.EvaluateCalls++

	c.transitionMatrices(p.Z, c.pLeft)

	pLv, pScale := e.shared.view(p)
	qLv, qScale := e.shared.view(q)
	var qData []byte
	if q.IsTip() {
		qData = e.Pat.Data[q.Index]
		c.tipProjection(c.pLeft, c.tipPR)
	}

	c.evalOp = evalOp{pLv: pLv, pScale: pScale, qData: qData, qLv: qLv, qScale: qScale, perSite: perSite}
	op := &c.evalOp
	bk := e.backend

	logL := 0.0
	var total combineStats
	var underflow uint64
	if e.parallel() {
		ranges := e.splitPatterns()
		parts := make([]evalPart, len(ranges))
		e.runParallel(ranges, func(pr patRange, slot int) {
			parts[slot] = bk.evaluateRange(c, op, pr, slot)
		})
		for i := range parts {
			logL += parts[i].sum
			total.add(parts[i].st)
			underflow += parts[i].underflow
		}
	} else {
		part := bk.evaluateRange(c, op, patRange{0, e.npat}, 0)
		logL, total, underflow = part.sum, part.st, part.underflow
	}
	c.meter.Muls += total.muls
	c.meter.Adds += total.adds
	c.meter.Logs += total.bigIters
	*c.underflow += underflow
	return logL, nil
}
