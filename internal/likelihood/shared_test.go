package likelihood

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/phylotree"
)

// sharedFixture builds a default engine with tree-edit hooks wired, plus
// its vector store and the tree it serves.
func sharedFixture(t *testing.T, seed int64, nTaxa, nSites int) (*Engine, *SharedCache, *phylotree.Tree) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pat := randomPatterns(t, rng, nTaxa, nSites)
	m := randomModel(t, rng, 4)
	tr := randomTreeFor(t, rng, pat)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachTree(tr)
	return eng, eng.Shared(), tr
}

// stored returns the vector and scale counts eng's store holds for record
// r, which the caller has just made current.
func stored(eng *Engine, r *phylotree.Node) ([]float64, []int32) {
	return eng.shared.view(r)
}

// coldEngine returns a full-recompute engine over eng's patterns, model
// and backend: the cold reference every cached path is compared against.
// It needs no tree hooks — each batch starts from an empty store.
func coldEngine(t *testing.T, eng *Engine) *Engine {
	t.Helper()
	cold, err := NewEngine(eng.Pat, eng.Mod, Config{Backend: eng.Cfg.Backend, FullRecompute: true})
	if err != nil {
		t.Fatal(err)
	}
	return cold
}

// coldVector recomputes the directed vector behind r from scratch on a
// cold engine. The slices are only valid until the cold engine's next
// batch.
func coldVector(t *testing.T, cold *Engine, r *phylotree.Node) ([]float64, []int32) {
	t.Helper()
	cold.BeginBatch()
	lv, sc, err := cold.Views().Vector(r)
	if err != nil {
		t.Fatal(err)
	}
	return lv, sc
}

// internalRecords collects every directed internal ring record of the tree:
// the full domain of Views.Vector / SharedCache.vector.
func internalRecords(tr *phylotree.Tree) []*phylotree.Node {
	var out []*phylotree.Node
	for _, e := range tr.Edges() {
		for _, r := range [...]*phylotree.Node{e, e.Back} {
			if !r.IsTip() {
				ring := r.Ring()
				out = append(out, ring[:]...)
			}
		}
	}
	// Ring() may repeat records reachable from both edge ends; dedup.
	seen := make(map[*phylotree.Node]bool, len(out))
	uniq := out[:0]
	for _, r := range out {
		if !seen[r] {
			seen[r] = true
			uniq = append(uniq, r)
		}
	}
	return uniq
}

// assertVectorsEqual requires exact (bitwise) equality of two directed
// vectors and their scale counts.
func assertVectorsEqual(t *testing.T, stage string, gotLv, wantLv []float64, gotSc, wantSc []int32) {
	t.Helper()
	if len(gotLv) != len(wantLv) || len(gotSc) != len(wantSc) {
		t.Fatalf("%s: length mismatch lv %d vs %d, sc %d vs %d",
			stage, len(gotLv), len(wantLv), len(gotSc), len(wantSc))
	}
	for i := range gotLv {
		if gotLv[i] != wantLv[i] {
			t.Fatalf("%s: lv[%d] = %.17g, want %.17g (bit-identical)", stage, i, gotLv[i], wantLv[i])
		}
	}
	for i := range gotSc {
		if gotSc[i] != wantSc[i] {
			t.Fatalf("%s: scale[%d] = %d, want %d", stage, i, gotSc[i], wantSc[i])
		}
	}
}

// TestSharedViewsMatchColdRecompute pins the equivalence that makes the
// store a pure caching change: for every directed internal record, the
// vector Views serves is bit-identical to the one a full-recompute engine
// computes from scratch.
func TestSharedViewsMatchColdRecompute(t *testing.T) {
	eng, shared, tr := sharedFixture(t, 801, 12, 80)
	sv := eng.Views()
	cold := coldEngine(t, eng)
	recs := internalRecords(tr)
	if len(recs) == 0 {
		t.Fatal("no internal records")
	}
	for i, r := range recs {
		gotLv, gotSc, err := sv.Vector(r)
		if err != nil {
			t.Fatal(err)
		}
		wantLv, wantSc := coldVector(t, cold, r)
		assertVectorsEqual(t, fmt.Sprintf("record %d", i), gotLv, wantLv, gotSc, wantSc)
	}
	if shared.Computes() == 0 || shared.Computes() > uint64(len(recs)) {
		t.Errorf("shared store computed %d vectors for %d records", shared.Computes(), len(recs))
	}
	// Re-reading everything must be pure hits: no edits, no epoch change.
	computes := shared.Computes()
	for _, r := range recs {
		if _, _, err := sv.Vector(r); err != nil {
			t.Fatal(err)
		}
	}
	if shared.Computes() != computes {
		t.Errorf("re-read recomputed: %d -> %d computes", computes, shared.Computes())
	}
	if eng.Meter.SharedHits == 0 {
		t.Error("no SharedHits metered on the primary context")
	}
}

// TestSharedCacheEpochRetag pins the selective invalidation: after a branch
// change, the one orientation per ring facing the changed branch survives
// into the new epoch (pure hit), every other orientation recomputes, and
// the recomputed vectors are bit-identical to a cold recompute.
func TestSharedCacheEpochRetag(t *testing.T) {
	eng, shared, tr := sharedFixture(t, 802, 10, 60)
	sv := eng.Views()
	recs := internalRecords(tr)
	for _, r := range recs {
		if _, _, err := sv.Vector(r); err != nil {
			t.Fatal(err)
		}
	}
	warm := shared.Computes()
	epoch0 := shared.Epoch()

	// Find an internal-internal edge so both facing records are internal.
	var e *phylotree.Node
	for _, c := range tr.Edges() {
		if !c.IsTip() && !c.Back.IsTip() {
			e = c
			break
		}
	}
	if e == nil {
		t.Fatal("no internal-internal edge")
	}
	e.SetZ(e.Z * 1.31)
	eng.Invalidate(e)
	if shared.Epoch() != epoch0+1 {
		t.Fatalf("epoch %d after one invalidation, want %d", shared.Epoch(), epoch0+1)
	}

	// The records facing the changed branch exclude it from their subtree:
	// both must be served without any recompute.
	for _, r := range [...]*phylotree.Node{e, e.Back} {
		before := shared.Computes()
		if _, _, err := sv.Vector(r); err != nil {
			t.Fatal(err)
		}
		if shared.Computes() != before {
			t.Errorf("facing record recomputed after retag (%d -> %d)", before, shared.Computes())
		}
	}
	// The other orientations at e's ring include the changed branch and must
	// recompute — and match a cold recompute bit for bit.
	cold := coldEngine(t, eng)
	for _, r := range [...]*phylotree.Node{e.Next, e.Next.Next, e.Back.Next, e.Back.Next.Next} {
		before := shared.Computes()
		gotLv, gotSc, err := sv.Vector(r)
		if err != nil {
			t.Fatal(err)
		}
		if shared.Computes() == before {
			t.Error("stale orientation served without recompute")
		}
		wantLv, wantSc := coldVector(t, cold, r)
		assertVectorsEqual(t, "post-invalidate", gotLv, wantLv, gotSc, wantSc)
	}

	// InvalidateAll drops everything: the next read of anything recomputes.
	eng.InvalidateAll()
	before := shared.Computes()
	if _, _, err := sv.Vector(recs[0]); err != nil {
		t.Fatal(err)
	}
	if shared.Computes() == before {
		t.Error("read after InvalidateAll did not recompute")
	}
	_ = warm
}

// TestPoolSharedCacheSingleFlight is the redundancy theorem under real
// concurrency: four workers hammering every directed vector through one
// shared store must compute each exactly once — computes equals the
// distinct-record count no matter how the scheduler interleaves, the rest
// of the requests are hits, and per-worker meter attribution sums to the
// engine total. Runs under -race in CI.
func TestPoolSharedCacheSingleFlight(t *testing.T) {
	eng, shared, tr := sharedFixture(t, 803, 14, 80)
	pool := eng.NewPool(4)
	views := make([]*Views, pool.Workers())
	for w := range views {
		views[w] = pool.Ctx(w).Views()
	}
	recs := internalRecords(tr)
	const lapsPerWorker = 4
	n := lapsPerWorker * pool.Workers() * len(recs)
	errs := make([]error, pool.Workers())
	pool.Run(n, func(w, i int) {
		if _, _, err := views[w].Vector(recs[i%len(recs)]); err != nil {
			errs[w] = err
		}
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got, want := shared.Computes(), uint64(len(recs)); got != want {
		t.Errorf("computes = %d, want exactly %d (one per distinct record)", got, want)
	}
	// Every top-level request beyond the computes was a hit; child-edge
	// requests during computes only add to that.
	if minHits := uint64(n) - shared.Computes(); shared.Hits() < minHits {
		t.Errorf("hits = %d, want >= %d", shared.Hits(), minHits)
	}

	// Per-worker attribution: the workers' private meters were merged into
	// the engine and snapshotted per worker; the snapshot must tile the
	// engine totals exactly.
	var sum Meter
	for w := 0; w < pool.Workers(); w++ {
		wm := pool.WorkerMeter(w)
		sum.Add(&wm)
	}
	if sum.NewviewCalls != eng.Meter.NewviewCalls {
		t.Errorf("per-worker NewviewCalls sum %d != engine total %d", sum.NewviewCalls, eng.Meter.NewviewCalls)
	}
	if sum.SharedHits != eng.Meter.SharedHits {
		t.Errorf("per-worker SharedHits sum %d != engine total %d", sum.SharedHits, eng.Meter.SharedHits)
	}
	if eng.Meter.NewviewCalls != shared.Computes() {
		t.Errorf("engine NewviewCalls %d != shared computes %d", eng.Meter.NewviewCalls, shared.Computes())
	}
	if eng.Meter.SharedHits != shared.Hits() {
		t.Errorf("engine SharedHits %d != shared hits %d", eng.Meter.SharedHits, shared.Hits())
	}
	if pool.PeakBusy() < 1 || pool.PeakBusy() > pool.Workers() {
		t.Errorf("PeakBusy = %d, want in [1, %d]", pool.PeakBusy(), pool.Workers())
	}
}

// TestPoolSharedCacheAcrossInvalidations alternates fan-outs with branch
// edits: each Pool.Run barrier must fully publish the previous epoch's
// vectors before the edit bumps the epoch, and every post-edit read must be
// bit-identical to a cold recompute. Runs under -race in CI.
func TestPoolSharedCacheAcrossInvalidations(t *testing.T) {
	eng, _, tr := sharedFixture(t, 804, 12, 60)
	cold := coldEngine(t, eng)
	pool := eng.NewPool(4)
	views := make([]*Views, pool.Workers())
	for w := range views {
		views[w] = pool.Ctx(w).Views()
	}
	rng := rand.New(rand.NewSource(805))
	for round := 0; round < 8; round++ {
		recs := internalRecords(tr)
		errs := make([]error, pool.Workers())
		pool.Run(2*len(recs), func(w, i int) {
			if _, _, err := views[w].Vector(recs[i%len(recs)]); err != nil {
				errs[w] = err
			}
		})
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		// Edit between fan-outs (the search's phasing): bump a branch, then
		// audit a sample of shared vectors against cold recomputes.
		edges := tr.Edges()
		e := edges[rng.Intn(len(edges))]
		e.SetZ(e.Z*0.8 + 0.01)
		eng.Invalidate(e)
		sv := eng.Views()
		for k := 0; k < 5; k++ {
			r := recs[rng.Intn(len(recs))]
			gotLv, gotSc, err := sv.Vector(r)
			if err != nil {
				t.Fatal(err)
			}
			wantLv, wantSc := coldVector(t, cold, r)
			assertVectorsEqual(t, "round audit", gotLv, wantLv, gotSc, wantSc)
		}
	}
}

// FuzzEpochCacheEquivalence drives random interleavings of branch edits,
// topology moves, full invalidations and reads over a random small tree,
// asserting after every operation that a sample of stored vectors is
// bit-identical to a cold full recompute at the current epoch.
func FuzzEpochCacheEquivalence(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 0, 1, 2, 3})
	f.Add(int64(7), []byte{1, 1, 1, 2, 0, 3, 2, 2, 1, 0})
	f.Add(int64(42), []byte{2, 0, 2, 0, 2, 1, 3})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		nTaxa := 6 + int(rng.Int63()%7)
		pat := randomPatterns(t, rng, nTaxa, 24)
		m := randomModel(t, rng, 4)
		tr := randomTreeFor(t, rng, pat)
		eng, err := NewEngine(pat, m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		eng.AttachTree(tr)
		sv := eng.Views()
		cold := coldEngine(t, eng)

		audit := func(stage string) {
			recs := internalRecords(tr)
			for k := 0; k < 4 && k < len(recs); k++ {
				r := recs[rng.Intn(len(recs))]
				gotLv, gotSc, err := sv.Vector(r)
				if err != nil {
					t.Fatal(err)
				}
				wantLv, wantSc := coldVector(t, cold, r)
				assertVectorsEqual(t, stage, gotLv, wantLv, gotSc, wantSc)
			}
		}

		audit("initial")
		for _, op := range ops {
			switch op % 4 {
			case 0: // direct branch change + explicit invalidation
				edges := tr.Edges()
				e := edges[rng.Intn(len(edges))]
				e.SetZ(0.01 + rng.Float64()*0.5)
				eng.Invalidate(e)
			case 1: // SPR move (or undo) through the tree's own hooks
				var cands []*phylotree.Node
				for _, e := range tr.Edges() {
					if !e.IsTip() {
						cands = append(cands, e)
					}
					if !e.Back.IsTip() {
						cands = append(cands, e.Back)
					}
				}
				if len(cands) == 0 {
					continue
				}
				ps, err := tr.Prune(cands[rng.Intn(len(cands))])
				if err != nil {
					continue
				}
				targets := phylotree.RadiusEdges(ps.Q, 3)
				targets = append(targets, phylotree.RadiusEdges(ps.R, 3)...)
				if len(targets) == 0 || rng.Intn(3) == 0 {
					if err := tr.Undo(ps); err != nil {
						t.Fatal(err)
					}
				} else if err := tr.Regraft(ps, targets[rng.Intn(len(targets))]); err != nil {
					t.Fatal(err)
				}
			case 2: // Newton branch optimization (self-invalidating)
				edges := tr.Edges()
				if _, _, err := eng.MakeNewz(edges[rng.Intn(len(edges))]); err != nil {
					t.Fatal(err)
				}
			case 3: // drop everything
				eng.InvalidateAll()
			}
			audit("after op")
		}
	})
}

// TestStoreSlotsFollowRecords pins the slot-claiming rule: a slot belongs
// to the ring record that claimed it, so one engine serving two trees that
// share node indices (a clone), or a tree whose freed index is reused by a
// new ring (RemoveTip/InsertTip), never reads another record's vector.
// Every likelihood must equal a cold full recompute.
func TestStoreSlotsFollowRecords(t *testing.T) {
	eng, _, trA := sharedFixture(t, 806, 10, 60)
	cold := coldEngine(t, eng)
	check := func(stage string, tr *phylotree.Tree) {
		t.Helper()
		// Views first: a record claiming a slot must not inherit the
		// previous owner's current tag.
		for _, r := range internalRecords(tr) {
			gotLv, gotSc, err := eng.Views().Vector(r)
			if err != nil {
				t.Fatal(err)
			}
			wantLv, wantSc := coldVector(t, cold, r)
			assertVectorsEqual(t, stage, gotLv, wantLv, gotSc, wantSc)
		}
		for _, e := range tr.Edges() {
			want, err := cold.Evaluate(e)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Evaluate(e)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: logL %.17g != cold %.17g", stage, got, want)
			}
		}
	}
	check("tree A", trA)

	// A clone reuses every node index with new records; edit it without
	// telling the engine, then alternate between the two trees.
	trB := trA.Clone()
	e := trB.InternalEdges()[0]
	e.SetZ(e.Z*1.7 + 0.01)
	check("clone B", trB)
	check("tree A again", trA)
	check("clone B again", trB)

	// RemoveTip frees an internal index; InsertTip hands it to a new ring.
	if err := trA.RemoveTip(3); err != nil {
		t.Fatal(err)
	}
	if err := trA.InsertTip(3, trA.Tips[7]); err != nil {
		t.Fatal(err)
	}
	check("reinserted tip", trA)
}
