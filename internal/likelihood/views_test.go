package likelihood

import (
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/phylotree"
)

func TestViewsVectorMatchesNewView(t *testing.T) {
	// The directed vector Views serves at the record opposite tip 0 must
	// match what NewView computes for the same orientation on a cold
	// full-recompute engine.
	rng := rand.New(rand.NewSource(201))
	pat := randomPatterns(t, rng, 10, 60)
	m := randomModel(t, rng, 4)
	tr := randomTreeFor(t, rng, pat)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cold := coldEngine(t, eng)

	p := tr.Tips[0].Back
	cold.NewView(p)
	direct, directSc := stored(cold, p)

	views := eng.Views()
	cached, sc, err := views.Vector(p)
	if err != nil {
		t.Fatal(err)
	}
	if sc == nil {
		t.Fatal("nil scale vector for internal record")
	}
	assertVectorsEqual(t, "views vs newview", cached, direct, sc, directSc)
	// Tip records yield nil.
	lv, _, err := views.Vector(tr.Tips[3])
	if err != nil || lv != nil {
		t.Errorf("tip record: %v, %v", lv, err)
	}
}

func TestViewsMemoization(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	pat := randomPatterns(t, rng, 12, 40)
	m := randomModel(t, rng, 2)
	tr := randomTreeFor(t, rng, pat)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	views := eng.Views()
	if _, _, err := views.Vector(tr.Tips[0].Back); err != nil {
		t.Fatal(err)
	}
	calls := eng.Meter.NewviewCalls
	// Re-requesting the same and overlapping vectors must not recompute.
	if _, _, err := views.Vector(tr.Tips[0].Back); err != nil {
		t.Fatal(err)
	}
	if eng.Meter.NewviewCalls != calls {
		t.Error("memoized vector recomputed")
	}
	// Computing every directed vector costs at most 3*(n-2) newviews total.
	for _, r := range internalRecords(tr) {
		if _, _, err := views.Vector(r); err != nil {
			t.Fatal(err)
		}
	}
	if max := uint64(3 * (12 - 2)); eng.Meter.NewviewCalls > max {
		t.Errorf("views computation used %d newviews, bound %d", eng.Meter.NewviewCalls, max)
	}
	// A binding on another context reads the same store: no recompute.
	calls = eng.Meter.NewviewCalls
	worker := eng.NewCtx()
	if _, _, err := worker.Views().Vector(tr.Tips[1].Back); err != nil {
		t.Fatal(err)
	}
	if eng.Meter.NewviewCalls != calls || worker.ownMeter.NewviewCalls != 0 {
		t.Error("second binding recomputed a stored vector")
	}
}

// insertionScoreExhaustive reproduces the pre-lazy trial: physically
// regraft, run full MakeNewz on the subtree branch, read the likelihood,
// and undo — invalidating after each direct SetZ, as the search does. It is
// the ground truth the lazy path must match.
func insertionScoreExhaustive(t *testing.T, eng *Engine, tr *phylotree.Tree, ps *phylotree.PrunedSubtree, cand *phylotree.Node, z0 float64) (float64, float64) {
	t.Helper()
	if err := tr.Regraft(ps, cand); err != nil {
		t.Fatal(err)
	}
	ps.P.SetZ(z0)
	eng.Invalidate(ps.P)
	z, ll, err := eng.MakeNewz(ps.P)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Prune(ps.P); err != nil {
		t.Fatal(err)
	}
	ps.P.SetZ(z0)
	eng.Invalidate(ps.P)
	return z, ll
}

func TestInsertionScoreMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	pat := randomPatterns(t, rng, 12, 80)
	m := randomModel(t, rng, 4)
	tr := randomTreeFor(t, rng, pat)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachTree(tr)

	p := tr.Tips[4].Back
	ps, err := tr.Prune(p)
	if err != nil {
		t.Fatal(err)
	}
	z0 := ps.P.Z

	cands := phylotree.RadiusEdges(ps.Q, 4)
	cands = append(cands, phylotree.RadiusEdges(ps.R, 4)...)
	if len(cands) < 3 {
		t.Fatalf("only %d candidates", len(cands))
	}
	views := eng.Views()
	for i, cand := range cands {
		zLazy, llLazy, err := views.InsertionScore(cand, ps.P, z0)
		if err != nil {
			t.Fatal(err)
		}
		zEx, llEx := insertionScoreExhaustive(t, eng, tr, ps, cand, z0)
		if math.Abs(llLazy-llEx) > 1e-6*math.Abs(llEx) {
			t.Errorf("candidate %d: lazy logL %.8f != exhaustive %.8f", i, llLazy, llEx)
		}
		if math.Abs(zLazy-zEx) > 1e-4*(1+zEx) {
			t.Errorf("candidate %d: lazy z %.8f != exhaustive %.8f", i, zLazy, zEx)
		}
	}
	if err := tr.Undo(ps); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertionScoreErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	pat := randomPatterns(t, rng, 6, 30)
	m := randomModel(t, rng, 2)
	tr := randomTreeFor(t, rng, pat)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	views := eng.Views()
	detached := &phylotree.Node{Index: 99}
	if _, _, err := views.InsertionScore(detached, tr.Tips[0].Back, 0.1); err == nil {
		t.Error("detached candidate accepted")
	}
	if _, _, err := views.InsertionScore(tr.Tips[1], detached, 0.1); err == nil {
		t.Error("detached subtree accepted")
	}
}
