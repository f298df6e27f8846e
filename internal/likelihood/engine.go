package likelihood

import (
	"fmt"
	"math"
	"time"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/model"
	"raxmlcell/internal/phylotree"
)

const ns = model.NumStates

// Numerical scaling constants (RAxML's twotothe256/minlikelihood scheme):
// when every entry of a pattern's partial vector drops below MinLikelihood,
// the vector is multiplied by 2^256 and a per-pattern scaling counter is
// incremented; evaluate() folds the counters back in log space.
var (
	TwoTo256      = math.Ldexp(1, 256)
	MinLikelihood = math.Ldexp(1, -256)
	logMinLik     = math.Log(MinLikelihood)
)

// Config selects the kernel variants corresponding to the paper's
// optimization steps. All variants compute the same numerical result; they
// differ in instruction mix (metered) and, for SDKExp, in the exp()
// implementation actually used.
type Config struct {
	SDKExp   bool // Section 5.2.2: SDK numerical exp() instead of libm exp()
	IntCond  bool // Section 5.2.3: integer-cast, vectorized scaling conditional
	VectorFP bool // Section 5.2.5: SIMD packing of the two FP loops (metering)

	// FullRecompute reproduces the paper's metering: every Engine entry
	// point (NewView, Evaluate, PerSiteLogL, MakeNewz) recomputes the whole
	// traversal it needs, and every lazy-SPR candidate batch (BeginBatch)
	// rebuilds its directed vectors from scratch — the workload shape
	// RAxML's profile on the Cell was measured on, and the one the Cell
	// simulator replays. Results are bit-identical to the default cached
	// mode; only the number of newview (combine) executions, and thus the
	// metered instruction mix, changes. Leave it off for real analyses.
	FullRecompute bool

	// Threads > 1 parallelizes the per-pattern kernel loops over a
	// goroutine pool — the shared-memory loop-level parallelism of
	// RAxML-OMP that the paper's LLP scheduler maps onto SPEs. Partial
	// vectors are bit-identical to the serial kernels; log-likelihood
	// reductions may differ by floating point summation order. This is the
	// *inner* (loop-level) axis; the *outer* (task-level) axis — wavefront
	// traversal and concurrent candidate scoring — is driven by Pool (see
	// Engine.NewPool and search.Options.Workers).
	Threads int

	// Backend selects the compute backend the kernels' per-pattern inner
	// loops run on: "batched" (pattern-major cache-blocked tiles with fused
	// transition×partial loops — the Go analogue of the paper's SPU
	// vectorization; the default) or "scalar" (the reference loops every
	// other backend is verified against). See RegisterBackend/Backends; every registered
	// backend must agree with scalar to ≤1e-9 logL. Empty means
	// DefaultBackend.
	Backend string

	// Observer, when set together with Now, receives the elapsed wall time
	// of every kernel entry point (newview combine, makenewz Newton solve,
	// evaluate). Now is the monotonic time source the engine reads around
	// each call — injected rather than time.Now so deterministic harnesses
	// stay in control of the clock. Both must be non-nil for timing to
	// engage; otherwise the kernels run exactly as before, with zero
	// overhead.
	Observer KernelObserver
	Now      func() time.Duration
}

// BackendName resolves the configured backend name, mapping the empty
// default to DefaultBackend.
func (cfg Config) BackendName() string {
	if cfg.Backend == "" {
		return DefaultBackend
	}
	return cfg.Backend
}

// Engine computes likelihoods of trees over one compressed alignment and one
// substitution model. It owns one ancestral-vector store (SharedCache)
// holding the directed partial likelihood vectors of the tree it serves,
// and a Meter of kernel operations.
//
// By default the engine keeps vectors across calls and recomputes only the
// stale part of each traversal descriptor — RAxML's x-vector scheme; tree
// edits reach the store through Invalidate and AttachTree. With
// Config.FullRecompute every entry point recomputes its whole traversal,
// exactly like the code the paper profiled.
//
// All per-call kernel scratch lives in a Ctx. The engine owns a primary
// context that backs every Engine method, so single-threaded use is
// unchanged; task-level parallelism mints extra contexts via NewCtx/NewPool.
type Engine struct {
	Pat   *alignment.Patterns
	Mod   *model.Model
	Cfg   Config
	Meter Meter

	npat, ncat int // ncat is the per-site storage width (1 under CAT)
	nmat       int // distinct rate categories = transition matrices
	patCat     []int
	invCats    float64 // per-site averaging weight (1 under CAT)
	tipVec     [16][ns]float64
	expFn      func(float64) float64

	// shared is the ancestral-vector store every context of the engine
	// reads and writes; vectors are laid out [pat*ncat*ns + cat*ns + state]
	// with per-pattern cumulative scaling counts beside them.
	shared *SharedCache

	underflowSites uint64

	// backend runs the kernels' per-pattern inner loops (Config.Backend).
	// One stateless value serves every context of the engine.
	backend Backend

	// kobs/know are Config.Observer/Config.Now, cached here so the kernel
	// entry points test one pointer; both nil unless both were configured.
	kobs KernelObserver
	know func() time.Duration

	// ctx0 is the primary kernel context backing the Engine methods; its
	// meter/underflow sinks are the engine's own counters.
	ctx0 *Ctx

	// Task-level parallelism state: pool, when non-nil (UsePool), executes
	// NewView traversal descriptors wavefront-parallel. levelOf/levels are
	// the wavefront scheduler's reusable scratch.
	pool    *Pool
	levelOf []int32
	levels  [][]*phylotree.Node
}

// NewEngine allocates an engine for trees over pat's taxa with the given
// model and kernel configuration.
func NewEngine(pat *alignment.Patterns, mod *model.Model, cfg Config) (*Engine, error) {
	if pat == nil || mod == nil {
		return nil, fmt.Errorf("likelihood: nil patterns or model")
	}
	if pat.NumTaxa < 3 {
		return nil, fmt.Errorf("likelihood: need >= 3 taxa, got %d", pat.NumTaxa)
	}
	e := &Engine{
		Pat:  pat,
		Mod:  mod,
		Cfg:  cfg,
		npat: pat.NumPatterns(),
		nmat: mod.NumCats(),
	}
	if mod.IsCAT() {
		if len(mod.PatCat) != e.npat {
			return nil, fmt.Errorf("likelihood: CAT assignment covers %d patterns, alignment has %d",
				len(mod.PatCat), e.npat)
		}
		// CAT stores one category per site; the matrix index comes from the
		// per-pattern assignment and sites are not averaged.
		e.ncat = 1
		e.patCat = mod.PatCat
		e.invCats = 1
	} else {
		e.ncat = mod.NumCats()
		e.invCats = 1 / float64(e.ncat)
	}
	e.shared = newSharedCache(e)
	for code := 0; code < 16; code++ {
		for j := 0; j < ns; j++ {
			if code&(1<<j) != 0 {
				e.tipVec[code][j] = 1
			}
		}
	}
	e.expFn = math.Exp
	if cfg.SDKExp {
		e.expFn = FastExp
	}
	bk, err := newBackend(cfg.Backend)
	if err != nil {
		return nil, err
	}
	e.backend = bk
	if cfg.Observer != nil && cfg.Now != nil {
		e.kobs = cfg.Observer
		e.know = cfg.Now
	}
	e.ctx0 = e.newPrimaryCtx()
	return e, nil
}

// Backend reports the name of the compute backend the engine runs on.
func (e *Engine) Backend() string { return e.backend.Name() }

// matIdx maps a pattern and storage-category slot to the transition-matrix
// index: the identity for Gamma, the per-pattern assignment for CAT.
func (e *Engine) matIdx(pat, c int) int {
	if e.patCat != nil {
		return e.patCat[pat]
	}
	return c
}

// SetModel swaps the substitution model (e.g. during Gamma shape or GTR
// rate optimization). The rate-heterogeneity layout (Gamma vs CAT, category
// count) must match the engine's buffers; switching layouts requires a new
// engine.
func (e *Engine) SetModel(mod *model.Model) error {
	if mod == nil {
		return fmt.Errorf("likelihood: nil model")
	}
	if mod.NumCats() != e.nmat {
		return fmt.Errorf("likelihood: category count %d != engine's %d", mod.NumCats(), e.nmat)
	}
	if mod.IsCAT() != (e.patCat != nil) {
		return fmt.Errorf("likelihood: cannot switch between Gamma and CAT layouts in place")
	}
	if mod.IsCAT() {
		e.patCat = mod.PatCat
	}
	e.Mod = mod
	// Every partial vector depends on the transition matrices, so a model
	// swap dirties the whole cache.
	e.InvalidateAll()
	return nil
}

// SetWeights swaps the per-pattern weights (bootstrap replicates share
// pattern data and only differ in weights). The weight vector length must
// match the pattern count. Cached partial vectors stay valid: weights enter
// only the evaluate/makenewz reductions, never the vectors themselves.
func (e *Engine) SetWeights(weights []int) error {
	p, err := e.Pat.WithWeights(weights)
	if err != nil {
		return fmt.Errorf("likelihood: %w", err)
	}
	e.Pat = p
	return nil
}

// UnderflowSites reports how many site-likelihood evaluations had to be
// clamped at the smallest representable magnitude (should stay 0 when
// scaling works).
func (e *Engine) UnderflowSites() uint64 { return e.underflowSites }

// NewView makes the partial likelihood vector behind the internal ring
// record p current — the conditional likelihood of the subtree containing
// p's two other ring members, exactly like the paper's newview() (which
// "calls itself recursively when the two children are not tips"). Tips need
// no computation.
//
// The work is organized as a traversal descriptor: a postorder list of the
// ring records whose views must actually be recomputed. The descent stops
// at records whose stored vector is current, so only the dirty path is
// recomputed; under Config.FullRecompute nothing is current on entry and
// the descriptor covers every internal node behind p (the paper's measured
// behaviour). With a pool attached (UsePool) the descriptor executes
// wavefront-parallel by dependency level.
func (e *Engine) NewView(p *phylotree.Node) {
	e.BeginBatch()
	e.ctx0.NewView(p)
}

// BeginBatch marks the start of an independent unit of kernel work: under
// Config.FullRecompute it drops every stored vector, so the unit recomputes
// what it needs from scratch; otherwise it is a no-op. Every Engine entry
// point calls it, and the search calls it before scoring each pruned
// subtree's insertion candidates, whose lazy-SPR vectors then live exactly
// as long as the paper's per-prune memo.
func (e *Engine) BeginBatch() {
	if e.Cfg.FullRecompute {
		e.shared.InvalidateAll()
	}
}

// Invalidate marks the minimal dirty set after a change to the branch
// (p, p.Back): every stored view whose subtree contains that branch — i.e.
// every view not oriented toward it — is dropped. Views oriented toward the
// branch exclude it by construction and stay valid, which is what makes
// branch smoothing O(changed path) instead of O(taxa). The walk is pure
// pointer chasing (no kernel work). A detached record drops everything.
//
// Callers that change a branch length directly via SetZ (rather than
// through MakeNewz, which invalidates itself) must call this; topology
// operations on a Tree wired up with AttachTree invalidate automatically.
func (e *Engine) Invalidate(p *phylotree.Node) { e.shared.invalidate(p) }

// InvalidateAll drops every stored partial vector; the next evaluation
// recomputes the full tree. Model swaps and cross-tree reuse call this.
func (e *Engine) InvalidateAll() { e.shared.InvalidateAll() }

// AttachTree wires the engine's store to the tree's branch-change hooks,
// so Prune/Regraft/Undo/InsertTip/RemoveTip invalidate the affected views
// automatically, and clears the store (the tree may have been mutated
// before attachment). Direct SetZ calls bypass the hooks — follow them
// with Invalidate.
func (e *Engine) AttachTree(tr *phylotree.Tree) {
	tr.OnBranchChange(e.Invalidate)
	e.InvalidateAll()
}

// needsScaling implements the 8-condition check
// if (ABS(x3->a) < ml && ABS(x3->c) < ml && ABS(x3->g) < ml && ABS(x3->t) < ml)
// generalized over rate categories, in one of two variants:
//
// Scalar (paper's original): float ABS + float compare with early exit —
// branchy and mispredict-prone on the SPE.
//
// IntCond (Section 5.2.3): sign-bit masking via the raw IEEE-754 bits and
// unsigned integer comparison (valid because lexicographic ordering of IEEE
// floats matches integer ordering for non-negative values), combined
// branchlessly and tested once.
func (e *Engine) needsScaling(v []float64) bool {
	e.Meter.ScaleChecks++
	return e.needsScalingPure(v)
}

// needsScalingPure is the check without meter side effects, safe for
// concurrent use by the parallel kernels (callers count checks themselves).
func (e *Engine) needsScalingPure(v []float64) bool {
	if e.Cfg.IntCond {
		limit := math.Float64bits(MinLikelihood)
		const signMask = 1<<63 - 1
		all := uint64(1)
		for _, x := range v {
			bits := math.Float64bits(x) & signMask // ABS via bitwise AND
			var below uint64
			if bits < limit {
				below = 1
			}
			all &= below
		}
		return all == 1
	}
	for _, x := range v {
		if !(math.Abs(x) < MinLikelihood) {
			return false
		}
	}
	return true
}

// Evaluate computes the log-likelihood of the tree across the branch
// (p, p.Back), recomputing the partial vectors it needs. This is the
// paper's evaluate(): a weighted sum over the partial likelihood vector
// entries with the scaling counters folded back in log space.
func (e *Engine) Evaluate(p *phylotree.Node) (float64, error) {
	e.BeginBatch()
	return e.ctx0.evaluate(p, nil)
}

// PerSiteLogL computes the per-pattern log likelihoods (unweighted) across
// the branch (p, p.Back), filling dst (allocated if nil or short). The CAT
// rate-fitting machinery uses these to pick each site's best rate category.
func (e *Engine) PerSiteLogL(p *phylotree.Node, dst []float64) ([]float64, error) {
	if cap(dst) < e.npat {
		dst = make([]float64, e.npat)
	}
	dst = dst[:e.npat]
	e.BeginBatch()
	if _, err := e.ctx0.evaluate(p, dst); err != nil {
		return nil, err
	}
	return dst, nil
}
