package likelihood

import (
	"sync"
	"sync/atomic"

	"raxmlcell/internal/phylotree"
)

// wavefrontMinNodes is the smallest traversal-descriptor length worth
// scheduling by dependency level instead of executing serially — short
// descriptors (the common cached case) are path-shaped and have no width
// to exploit.
const wavefrontMinNodes = 4

// wavefrontMinWidth is the smallest dependency-level width worth fanning
// out; narrower levels run on the primary context.
const wavefrontMinWidth = 2

// Pool is a fixed set of worker kernel contexts: the task-level parallelism
// axis of the engine, orthogonal to Config.Threads (which splits the
// per-pattern loops *inside* one kernel call). It corresponds to the
// paper's EDTLP/MGPS schedulers dispatching independent likelihood tasks to
// different SPEs — here, independent SPR insertion candidates (see
// package search) and independent computeView calls of one traversal
// dependency level (see Engine.UsePool).
//
// Determinism: Run partitions tasks into contiguous per-worker blocks that
// depend only on (task count, worker count) — there is no work stealing —
// and merges worker meters into the engine in worker order after every
// fan-out, so per-run Meter totals are reproducible at a fixed seed
// regardless of goroutine scheduling.
type Pool struct {
	eng     *Engine
	ctxs    []*Ctx
	busy    atomic.Int64
	running atomic.Bool

	// peakBusy is the high-water busy-worker count since NewPool — the
	// measured occupancy that AutoWorkersFrom-style fan-out sizing reads
	// back (search.pool_busy_peak).
	peakBusy atomic.Int64

	// workerMeters[w] accumulates worker w's kernel counters across
	// fan-outs, snapshotted in Run before the per-fan-out merge resets the
	// context. Per-worker attribution of shared-cache work (who computed,
	// who hit) depends on goroutine scheduling; only the sum across workers
	// is deterministic.
	workerMeters []Meter

	// OnOccupancy, when non-nil, observes the busy-worker count at every
	// transition — the feed behind the search.pool_busy gauge. It is
	// called concurrently and must be safe for that.
	OnOccupancy func(busy, workers int)
}

// NewPool returns a pool of n worker contexts over the engine (n is
// clamped to >= 1). The pooled resource is the per-worker kernel scratch;
// goroutines themselves are cheap and spawned per fan-out.
func (e *Engine) NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{eng: e, ctxs: make([]*Ctx, n), workerMeters: make([]Meter, n)}
	for i := range p.ctxs {
		p.ctxs[i] = e.NewCtx()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return len(p.ctxs) }

// Ctx returns worker i's kernel context, e.g. to bind a per-worker Views.
func (p *Pool) Ctx(i int) *Ctx { return p.ctxs[i] }

// WorkerMeter returns worker i's accumulated kernel counters across every
// fan-out so far: the per-worker attribution of newview/shared-cache work.
// Which worker performed which share is scheduling-dependent under the
// shared cache's single-flight; the sum over all workers equals the
// pool-attributed part of Engine.Meter and is deterministic.
func (p *Pool) WorkerMeter(i int) Meter { return p.workerMeters[i] }

// PeakBusy returns the high-water concurrently-busy worker count observed
// since the pool was created — the measured occupancy behind
// occupancy-sized fan-out (search.AutoWorkersFrom).
func (p *Pool) PeakBusy() int { return int(p.peakBusy.Load()) }

// UsePool installs (or, with nil, removes) the pool as the engine's
// wavefront executor: NewView on the engine groups its traversal
// descriptor into dependency levels and runs each level's independent
// computeView calls on the pool. The pool must belong to this engine.
func (e *Engine) UsePool(p *Pool) {
	e.pool = p
}

// Run executes fn(worker, task) for every task in [0, n), giving each
// worker a contiguous block of tasks, and blocks until all tasks finish.
// Worker w's context must be the only one fn uses on that goroutine.
// After the fan-out every worker context's private meter is merged into
// the engine in worker order, so Engine.Meter stays single-writer and
// deterministic. Run itself must not be called concurrently or re-entrantly.
func (p *Pool) Run(n int, fn func(worker, task int)) {
	if n <= 0 {
		return
	}
	if p.running.Swap(true) {
		panic("likelihood: concurrent or re-entrant Pool.Run")
	}
	defer p.running.Store(false)
	w := len(p.ctxs)
	if w > n {
		w = n
	}
	if w == 1 {
		// A single block runs on the calling goroutine: a one-worker pool
		// (the serial search) or a one-task fan-out spawns nothing.
		p.setBusy(+1)
		for t := 0; t < n; t++ {
			fn(0, t)
		}
		p.setBusy(-1)
		p.merge()
		return
	}
	var wg sync.WaitGroup
	for wk := 0; wk < w; wk++ {
		lo, hi := n*wk/w, n*(wk+1)/w
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(wk, lo, hi int) {
			defer wg.Done()
			p.setBusy(+1)
			defer p.setBusy(-1)
			for t := lo; t < hi; t++ {
				fn(wk, t)
			}
		}(wk, lo, hi)
	}
	wg.Wait()
	p.merge()
}

// merge folds every worker context's counters into the engine in worker
// order, snapshotting the per-worker attribution before mergeInto resets
// it.
func (p *Pool) merge() {
	for i, c := range p.ctxs {
		p.workerMeters[i].Add(&c.ownMeter)
		c.mergeInto(p.eng)
	}
}

func (p *Pool) setBusy(d int64) {
	b := p.busy.Add(d)
	for {
		peak := p.peakBusy.Load()
		if b <= peak || p.peakBusy.CompareAndSwap(peak, b) {
			break
		}
	}
	if p.OnOccupancy != nil {
		p.OnOccupancy(int(b), len(p.ctxs))
	}
}

// wavefront executes a traversal descriptor by dependency level: level 0
// holds the descriptor entries whose children are all tips or already-valid
// cached views, level k+1 the entries depending on level-k results. Within
// a level every computeView writes a distinct node slot and reads only
// slots finished in earlier levels, so the calls are independent and fan
// out over the pool; the WaitGroup barrier between levels provides the
// happens-before edge for the cross-level reads.
//
// This is the engine's analogue of batching independent partial-likelihood
// operations across tree nodes (the paper's EDTLP dispatch; BEAGLE's
// operation batching): a full 42-taxon recomputation has ~20 leaf-adjacent
// views in level 0 alone, while a cached path descriptor degenerates to
// width-1 levels and runs serially.
func (p *Pool) wavefront(trav []*phylotree.Node) {
	e := p.eng
	if e.levelOf == nil {
		e.levelOf = make([]int32, 2*e.Pat.NumTaxa-2)
		for i := range e.levelOf {
			e.levelOf[i] = -1
		}
	}
	// Pass 1: level of each entry. The descriptor is postorder, so both
	// children are already leveled when their parent is reached; children
	// outside the descriptor (tips, valid cached views) read as -1 and
	// contribute level 0.
	maxLvl := int32(0)
	for _, nd := range trav {
		lvl := int32(0)
		if q := nd.Next.Back; !q.IsTip() {
			if l := e.levelOf[q.Index] + 1; l > lvl {
				lvl = l
			}
		}
		if r := nd.Next.Next.Back; !r.IsTip() {
			if l := e.levelOf[r.Index] + 1; l > lvl {
				lvl = l
			}
		}
		e.levelOf[nd.Index] = lvl
		if lvl > maxLvl {
			maxLvl = lvl
		}
	}
	// Pass 2: group entries by level, reusing the engine's level buffers.
	for int(maxLvl) >= len(e.levels) {
		e.levels = append(e.levels, nil)
	}
	levels := e.levels[:maxLvl+1]
	for i := range levels {
		levels[i] = levels[i][:0]
	}
	for _, nd := range trav {
		l := e.levelOf[nd.Index]
		levels[l] = append(levels[l], nd)
	}
	// Pass 3: execute level by level; reset the marks for the next call.
	for _, level := range levels {
		if len(level) < wavefrontMinWidth || len(p.ctxs) < 2 {
			for _, nd := range level {
				e.ctx0.computeView(nd)
			}
			continue
		}
		p.Run(len(level), func(w, i int) {
			p.ctxs[w].computeView(level[i])
		})
	}
	for _, nd := range trav {
		e.levelOf[nd.Index] = -1
	}
}
