package likelihood

import (
	"fmt"
	"maps"
	"slices"
)

// Backend is the compute contract behind the engine: the per-pattern inner
// loops of the three paper kernels (newview/combine, evaluate, and the two
// halves of makenewz's Newton iteration), factored out of the traversal,
// caching and scheduling machinery so alternative loop structures can be
// swapped in without touching search code.
//
// Everything outside the contract is backend-independent and stays in
// Ctx/Engine: traversal descriptors, the ancestral-vector store and its
// invalidation, wavefront scheduling, transition-matrix and tip-projection table
// construction, the Newton solver driver, numerical scaling policy, and the
// Config.Threads pattern-range fan-out. A backend only answers "given these
// operands, compute patterns [lo, hi)" — which is exactly the seam BEAGLE
// 4.1 draws around its CPU/SSE/GPU implementations, and the Go analogue of
// the paper swapping restructured SPU loops under an unchanged search.
//
// Concurrency: a backend must be stateless (its per-range scratch lives on
// the Ctx, indexed by the fan-out slot), because one backend value serves
// every context of an engine, and Threads > 1 runs several ranges of one
// call concurrently. Each method receives the slot its range was assigned
// so tile scratch never aliases across the fan-out.
//
// Numerics: backends must reproduce the scalar reference within 1e-9
// relative log-likelihood on any workload (the 42sc cross-validation gate
// enforces this for every registered backend); the shipped backends keep
// the per-element accumulation order of the reference loops, so they agree
// bit for bit where the compiler does not re-fuse floating point ops.
type Backend interface {
	// Name reports the registry name ("scalar", "batched", ...).
	Name() string

	// initCtx sizes any backend-private scratch on a fresh kernel context
	// (called once from Ctx.alloc, before any kernel runs).
	initCtx(c *Ctx)

	// combineRange executes the newview inner loop for patterns
	// [pr.lo, pr.hi): child-side projections through the transition
	// matrices prepared in c.pLeft/c.pRight (tip children via the
	// c.tipPL/c.tipPR tables), their elementwise product into op.dst, and
	// the 2^-256 scaling check per pattern.
	combineRange(c *Ctx, op *combineOp, pr patRange, slot int) combineStats

	// evaluateRange executes the evaluate inner loop for patterns
	// [pr.lo, pr.hi): the q-side projection through c.pLeft (tips via
	// c.tipPR), the frequency-weighted dot product against op.pLv, the
	// per-pattern log with scaling counters folded back, and the weighted
	// log-likelihood sum of the range.
	evaluateRange(c *Ctx, op *evalOp, pr patRange, slot int) evalPart

	// sumTableRange builds the Newton eigenmode sum table A[pat,c,k] into
	// c.sumTab for patterns [pr.lo, pr.hi) and returns the t-independent
	// scaling constant contribution of the range.
	sumTableRange(c *Ctx, op *sumOp, pr patRange, slot int) sumPart

	// newtonRange reduces (logL, dlogL/dt, d2logL/dt2) over patterns
	// [pr.lo, pr.hi) from c.sumTab and the per-matrix exponential blocks.
	newtonRange(c *Ctx, op *newtonOp, pr patRange, slot int) newtonPart
}

// combineOp is the operand set of one combine (newview) call. Tip children
// carry their pattern codes in qData/rData (and nil vectors); inner
// children carry their vector and scale slices. The transition matrices and
// tip-projection tables for the call are already prepared on the Ctx.
type combineOp struct {
	qData, rData []byte    // tip pattern codes (nil for inner children)
	qLv, rLv     []float64 // inner-child partial vectors (nil for tips)
	qSc, rSc     []int32   // inner-child scale counters (nil for tips)
	dst          []float64
	dstScale     []int32
}

// evalOp is the operand set of one evaluate call across a branch (p, q):
// the p-side is always an inner vector, the q-side a tip (qData) or inner
// vector (qLv/qScale). perSite, when non-nil, receives the per-pattern
// logs.
type evalOp struct {
	pLv     []float64
	pScale  []int32
	qData   []byte
	qLv     []float64
	qScale  []int32
	perSite []float64
}

// evalPart is one range's contribution to an evaluate reduction.
type evalPart struct {
	sum       float64
	st        combineStats
	underflow uint64
}

// sumOp is the operand set of the Newton sum-table build: the two branch
// endpoint vectors (q-side possibly a tip).
type sumOp struct {
	pLv   []float64
	pSc   []int32
	qData []byte
	qLv   []float64
	qSc   []int32
}

// sumPart is one range's contribution to the sum-table build: the
// t-independent scaling constant plus the operation counts.
type sumPart struct {
	scaleConst float64
	muls, adds uint64
}

// newtonOp carries one Newton iteration's exponential blocks
// (e0 = exp(λrt), e1 = λr·e0, e2 = (λr)²·e0, one ns-block per distinct
// rate matrix) and the pattern weights.
type newtonOp struct {
	e0, e1, e2 []float64
	weights    []int
}

// newtonPart is one range's contribution to the Newton reduction.
type newtonPart struct {
	ll, d1, d2 float64
	underflow  uint64
	logs       uint64
}

// DefaultBackend is the backend used when Config.Backend is empty: the
// cache-blocked batched kernels. "scalar", the reference loops every
// backend is verified against, stays registered for the equivalence gates.
const DefaultBackend = "batched"

// backendRegistry maps names to constructors. Backends register at init
// time; the map is read-only afterwards, so engines may resolve
// concurrently.
var backendRegistry = map[string]func() Backend{}

// RegisterBackend adds a backend constructor under name. It panics on a
// duplicate or empty name — registration is an init-time programming
// action, not a runtime input.
func RegisterBackend(name string, factory func() Backend) {
	if name == "" || factory == nil {
		panic("likelihood: RegisterBackend with empty name or nil factory")
	}
	if _, dup := backendRegistry[name]; dup {
		panic("likelihood: duplicate backend " + name)
	}
	backendRegistry[name] = factory
}

// Backends lists the registered backend names, sorted, for flag help and
// for harnesses that cross-validate every backend.
func Backends() []string {
	return slices.Sorted(maps.Keys(backendRegistry))
}

// newBackend resolves a Config.Backend value ("" selects DefaultBackend).
func newBackend(name string) (Backend, error) {
	if name == "" {
		name = DefaultBackend
	}
	factory, ok := backendRegistry[name]
	if !ok {
		return nil, fmt.Errorf("likelihood: unknown backend %q (registered: %v)", name, Backends())
	}
	return factory(), nil
}

func init() {
	RegisterBackend("scalar", func() Backend { return scalarBackend{} })
	RegisterBackend("batched", func() Backend { return batchedBackend{} })
}
