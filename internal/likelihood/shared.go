package likelihood

import (
	"fmt"
	"sync"
	"sync/atomic"

	"raxmlcell/internal/phylotree"
)

// SharedCache is the engine's one ancestral-vector store: an epoch-tagged
// table of directed partial likelihood vectors, one slot per directed
// internal ring record, read and written by every kernel path of the
// engine. NewView's traversal descriptors stop at current slots and
// computeView fills the rest; Evaluate and MakeNewz read their branch
// ends from it; Views.InsertionScore (lazy SPR scoring) resolves the
// candidate branch vectors through it from any number of worker contexts.
// It is RAxML's x-vector orientation cache generalized to all three
// orientations per node, and the analogue of the paper staging
// partial-likelihood vectors once on the PPE and serving all SPEs from
// them (and of BEAGLE's shared partials buffer with explicit
// invalidation). A serial search is the one-worker case of the same
// protocol.
//
// Protocol:
//
//   - Each internal node index owns three slots, claimed lazily by the
//     ring records that ask for them; a slot remembers its record, so a
//     record of another tree (or of a discarded ring that reused the
//     index) never matches. Vector buffers are allocated on a slot's
//     first compute and reused by every later owner.
//   - A slot's vector is valid iff its tag equals the store's current
//     epoch. Tree edits bump the epoch — implicitly invalidating
//     everything — and then re-tag into the new epoch exactly the slots
//     the edit provably did not touch: at each ring, the one orientation
//     facing the changed branch (its subtree excludes the branch by
//     construction). Engine.Invalidate and Engine.InvalidateAll land here,
//     so AttachTree hooks, MakeNewz self-invalidation and explicit
//     post-SetZ invalidations all keep the store coherent.
//   - Under Config.FullRecompute the engine additionally bumps the epoch
//     at every Engine entry point and at every candidate batch
//     (BeginBatch), which turns the store back into the paper's per-call
//     full recomputation plus the per-prune lazy-SPR memo.
//   - Readers are lock-free on the hit path: an owner check and one atomic
//     tag load, then the vector slices (safe because a vector is never
//     overwritten while its tag is current, and the tag store is the
//     release point of its final write).
//   - On a Views miss the reader takes the slot's mutex — per-slot
//     single-flight — re-checks the tag, and only then computes and
//     publishes, so concurrent workers missing on the same vector block
//     briefly instead of duplicating kernel work. Child vectors resolve
//     through the store recursively; the lock order follows the directed
//     dependency DAG (strictly away from the requesting edge), so it
//     cannot deadlock. The traversal path (computeView) needs no latch:
//     the wavefront writes disjoint slots per dependency level, and
//     traversals never overlap a scoring fan-out.
//
// Concurrency contract: any number of goroutines may read vectors
// concurrently (each through its own Ctx), but invalidation — like the
// tree edits that trigger it — and Engine entry points must not run
// concurrently with readers. Pool.Run's fan-out barrier provides exactly
// that phasing in the search.
type SharedCache struct {
	eng   *Engine
	epoch atomic.Uint64

	// slots holds three entries per internal node index:
	// slots[3*(idx-ntaxa)+k]. claimMu serializes first-use claims, which
	// happen once per record per tree.
	slots   []sharedEntry
	ntaxa   int
	claimMu sync.Mutex

	// Counters, exported for tests and obs. Both are deterministic for a
	// fixed edit/score sequence: single-flight makes the computed set a
	// pure function of the valid set and the requests.
	hits     atomic.Uint64
	computes atomic.Uint64
}

// sharedEntry is one directed vector slot. rec is the ring record the slot
// currently belongs to; epoch is the validity tag (vector valid iff tag ==
// the store's current epoch; 0 = never computed for rec, which is why the
// epoch counter starts at 1). mu is the single-flight latch of the Views
// path: the holder is the one worker computing the slot.
type sharedEntry struct {
	rec   atomic.Pointer[phylotree.Node]
	epoch atomic.Uint64
	mu    sync.Mutex
	lv    []float64
	sc    []int32
}

func newSharedCache(e *Engine) *SharedCache {
	n := e.Pat.NumTaxa
	s := &SharedCache{eng: e, ntaxa: n, slots: make([]sharedEntry, 3*(n-2))}
	s.epoch.Store(1)
	return s
}

// Shared returns the engine's ancestral-vector store (its epoch and hit
// counters feed the cache.* metrics).
func (e *Engine) Shared() *SharedCache { return e.shared }

// Epoch returns the current epoch (starts at 1, bumped by every
// invalidation).
func (s *SharedCache) Epoch() uint64 { return s.epoch.Load() }

// Hits returns how many Views vector requests were served from a
// current-epoch slot (including requests that waited out another worker's
// compute). Always 0 under Config.FullRecompute.
func (s *SharedCache) Hits() uint64 { return s.hits.Load() }

// Computes returns how many vectors were computed and published, by the
// traversal and the Views path together.
func (s *SharedCache) Computes() uint64 { return s.computes.Load() }

// InvalidateAll drops every cached vector by bumping the epoch without
// re-tagging anything. Model swaps and detached-record invalidations land
// here.
func (s *SharedCache) InvalidateAll() { s.epoch.Add(1) }

// invalidate records a change to the branch (p, p.Back): the epoch is
// bumped, then every directed view whose subtree provably excludes that
// branch — the one orientation per ring facing it — is re-tagged into the
// new epoch and stays servable.
func (s *SharedCache) invalidate(p *phylotree.Node) {
	q := p.Back
	if q == nil {
		s.InvalidateAll()
		return
	}
	old := s.epoch.Add(1) - 1
	s.retagToward(p, old)
	s.retagToward(q, old)
}

// retagToward walks the component behind record a (away from the changed
// branch), carrying into the new epoch the one orientation per ring that
// faces the branch: record a at this ring, the corresponding Back records
// deeper down. Vectors in other orientations contain the changed branch in
// their subtree and stay stale under the bumped epoch.
func (s *SharedCache) retagToward(a *phylotree.Node, old uint64) {
	if a.IsTip() {
		return
	}
	if en := s.find(a); en != nil && en.epoch.Load() == old {
		en.epoch.Store(old + 1)
	}
	if b := a.Next.Back; b != nil {
		s.retagToward(b, old)
	}
	if b := a.Next.Next.Back; b != nil {
		s.retagToward(b, old)
	}
}

// ring returns the three slots of r's node index.
func (s *SharedCache) ring(r *phylotree.Node) []sharedEntry {
	i := 3 * (r.Index - s.ntaxa)
	return s.slots[i : i+3 : i+3]
}

// find returns r's slot, or nil when r has not claimed one.
func (s *SharedCache) find(r *phylotree.Node) *sharedEntry {
	ring := s.ring(r)
	for i := range ring {
		if ring[i].rec.Load() == r {
			return &ring[i]
		}
	}
	return nil
}

// entry returns r's slot, claiming one on first use: a slot that is unused
// or belongs to a record outside r's ring (another tree's, or a discarded
// ring's). r's two ring siblings hold at most two of the three slots, so a
// claimable one always exists.
func (s *SharedCache) entry(r *phylotree.Node) *sharedEntry {
	if en := s.find(r); en != nil {
		return en
	}
	s.claimMu.Lock()
	defer s.claimMu.Unlock()
	ring := s.ring(r)
	var free *sharedEntry
	for i := range ring {
		o := ring[i].rec.Load()
		if o == r {
			return &ring[i] // claimed by a concurrent reader meanwhile
		}
		if free == nil && o != r.Next && o != r.Next.Next {
			free = &ring[i]
		}
	}
	free.epoch.Store(0)
	free.rec.Store(r)
	return free
}

// current reports whether r's slot holds a vector of the current epoch.
func (s *SharedCache) current(r *phylotree.Node) bool {
	en := s.find(r)
	return en != nil && en.epoch.Load() == s.epoch.Load()
}

// view returns r's stored vector and scale counts, (nil, nil) for tips.
// Callers guarantee the slot is current.
func (s *SharedCache) view(r *phylotree.Node) ([]float64, []int32) {
	if r.IsTip() {
		return nil, nil
	}
	en := s.find(r)
	return en.lv, en.sc
}

// compute combines r's two child vectors into its slot with c's kernels
// and publishes the slot at the current epoch. The children must be
// current.
func (s *SharedCache) compute(c *Ctx, r *phylotree.Node, en *sharedEntry) {
	q := r.Next.Back
	w := r.Next.Next.Back
	qLv, qSc := s.view(q)
	wLv, wSc := s.view(w)
	if en.lv == nil {
		e := s.eng
		en.lv = make([]float64, e.npat*e.ncat*ns)
		en.sc = make([]int32, e.npat)
	}
	c.combine(q, r.Next.Z, qLv, qSc, w, r.Next.Next.Z, wLv, wSc, en.lv, en.sc)
	s.computes.Add(1)
	// Publish: the tag store is the release fence for the vector writes.
	en.epoch.Store(s.epoch.Load())
}

// hit meters one Views request served from a current slot. Under
// FullRecompute the store plays the paper's per-prune lazy-SPR memo, whose
// reuse the paper's metering does not count as cache hits.
func (s *SharedCache) hit(c *Ctx) {
	if !s.eng.Cfg.FullRecompute {
		s.hits.Add(1)
		c.meter.SharedHits++
	}
}

// vector returns the directed partial likelihood vector and scale counts
// behind record r at the current epoch, computing and publishing it (and,
// recursively, any stale children) under per-slot single-flight on a miss.
// Kernel work and meter attribution go to the calling worker's context c.
// Tip records return (nil, nil): callers use the tip codes directly.
func (s *SharedCache) vector(c *Ctx, r *phylotree.Node) ([]float64, []int32, error) {
	if r.IsTip() {
		return nil, nil, nil
	}
	cur := s.epoch.Load()
	en := s.entry(r)
	if en.epoch.Load() == cur {
		// Lock-free hit: the tag store in compute is the release point of
		// the vector's final write, so a current tag implies a complete
		// vector.
		s.hit(c)
		return en.lv, en.sc, nil
	}
	en.mu.Lock()
	defer en.mu.Unlock()
	if en.epoch.Load() == cur {
		// Another worker computed the slot while we waited on the latch.
		s.hit(c)
		return en.lv, en.sc, nil
	}
	q := r.Next.Back
	w := r.Next.Next.Back
	if q == nil || w == nil {
		return nil, nil, fmt.Errorf("likelihood: view of detached record")
	}
	// Children resolve through the store first — the recursion follows the
	// directed dependency DAG away from r, so nested latches cannot cycle.
	if _, _, err := s.vector(c, q); err != nil {
		return nil, nil, err
	}
	if _, _, err := s.vector(c, w); err != nil {
		return nil, nil, err
	}
	s.compute(c, r, en)
	return en.lv, en.sc, nil
}
