package search

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/parsimony"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/seqsim"
)

// load42SC reads the committed 42_SC fixture (42 taxa x 1167 nt, 249
// patterns — the paper's benchmark dimensions).
func load42SC(t testing.TB) *alignment.Patterns {
	t.Helper()
	f, err := os.Open("../core/testdata/42sc.phy")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := alignment.ReadPhylip(f)
	if err != nil {
		t.Fatal(err)
	}
	return alignment.Compress(a)
}

// TestIncrementalCrossValidation42SC drives a default (cached) engine and a
// full-recompute engine through the same 50-step sequence of random
// SPR prune/regraft moves, undos, hand-edited branch lengths and smoothing
// passes on the 42_SC fixture, checking after every step that the two
// engines report the same log-likelihood (within 1e-9 relative) on
// identical topologies. This is the end-to-end guarantee that the
// store's epoch invalidation never serves a stale partial vector.
func TestIncrementalCrossValidation42SC(t *testing.T) {
	if testing.Short() {
		t.Skip("50-step cross validation on 42 taxa")
	}
	pat := load42SC(t)
	m := seqsim.DefaultModel()

	rng := rand.New(rand.NewSource(4242))
	trA, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(4242)))
	if err != nil {
		t.Fatal(err)
	}
	trB := trA.Clone()

	engA, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	engA.AttachTree(trA)
	engB, err := likelihood.NewEngine(pat, m, likelihood.Config{FullRecompute: true})
	if err != nil {
		t.Fatal(err)
	}

	check := func(step int, stage string) {
		t.Helper()
		llA, err := SmoothBranches(engA, trA, 1, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		llB, err := SmoothBranches(engB, trB, 1, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(llA-llB) > 1e-9*math.Max(1, math.Abs(llB)) {
			t.Fatalf("step %d (%s): cached logL %.12f != full %.12f", step, stage, llA, llB)
		}
		rf, err := phylotree.RobinsonFoulds(trA, trB)
		if err != nil {
			t.Fatal(err)
		}
		if rf != 0 {
			t.Fatalf("step %d (%s): topologies diverged, RF=%d", step, stage, rf)
		}
	}
	check(-1, "start")

	for step := 0; step < 50; step++ {
		switch step % 5 {
		case 4:
			// Hand-edit a branch length on both trees; the cached engine
			// needs an explicit Invalidate for direct SetZ.
			edgesA, edgesB := trA.Edges(), trB.Edges()
			i := rng.Intn(len(edgesA))
			z := 0.01 + 0.3*rng.Float64()
			edgesA[i].SetZ(z)
			edgesB[i].SetZ(z)
			engA.Invalidate(edgesA[i])
			check(step, "setz")
		default:
			candsA, candsB := pruneCandidates(trA), pruneCandidates(trB)
			if len(candsA) != len(candsB) {
				t.Fatalf("step %d: candidate count mismatch %d vs %d", step, len(candsA), len(candsB))
			}
			i := rng.Intn(len(candsA))
			psA, errA := trA.Prune(candsA[i])
			psB, errB := trB.Prune(candsB[i])
			if (errA == nil) != (errB == nil) {
				t.Fatalf("step %d: prune error mismatch: %v vs %v", step, errA, errB)
			}
			if errA != nil {
				continue
			}
			targetsA := phylotree.RadiusEdges(psA.Q, 6)
			targetsA = append(targetsA, phylotree.RadiusEdges(psA.R, 6)...)
			targetsB := phylotree.RadiusEdges(psB.Q, 6)
			targetsB = append(targetsB, phylotree.RadiusEdges(psB.R, 6)...)
			if len(targetsA) != len(targetsB) {
				t.Fatalf("step %d: target count mismatch %d vs %d", step, len(targetsA), len(targetsB))
			}
			if step%3 == 0 || len(targetsA) == 0 {
				if err := trA.Undo(psA); err != nil {
					t.Fatal(err)
				}
				if err := trB.Undo(psB); err != nil {
					t.Fatal(err)
				}
				check(step, "undo")
				continue
			}
			j := rng.Intn(len(targetsA))
			if err := trA.Regraft(psA, targetsA[j]); err != nil {
				t.Fatal(err)
			}
			if err := trB.Regraft(psB, targetsB[j]); err != nil {
				t.Fatal(err)
			}
			check(step, "regraft")
		}
	}

	if engA.Meter.CacheHits == 0 {
		t.Error("cross validation exercised no cache hits")
	}
	if engA.Meter.NewviewCalls >= engB.Meter.NewviewCalls {
		t.Errorf("cached engine performed %d combines, full engine %d",
			engA.Meter.NewviewCalls, engB.Meter.NewviewCalls)
	}
	t.Logf("combines: cached %d vs full %d (%.1fx reduction), %d cache hits",
		engA.Meter.NewviewCalls, engB.Meter.NewviewCalls,
		float64(engB.Meter.NewviewCalls)/float64(engA.Meter.NewviewCalls),
		engA.Meter.CacheHits)
}

// TestIncrementalSmoothingCombineReduction quantifies the tentpole win: a
// converged smoothing workload on the 42_SC tree must execute at least 5x
// fewer newview combines with the cached default than with full
// recomputation, while producing the same likelihood.
func TestIncrementalSmoothingCombineReduction(t *testing.T) {
	pat := load42SC(t)
	m := seqsim.DefaultModel()
	trA, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	trB := trA.Clone()

	engA, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	engB, err := likelihood.NewEngine(pat, m, likelihood.Config{FullRecompute: true})
	if err != nil {
		t.Fatal(err)
	}
	llA, err := SmoothBranches(engA, trA, 4, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	llB, err := SmoothBranches(engB, trB, 4, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(llA-llB) > 1e-9*math.Abs(llB) {
		t.Fatalf("smoothed logL differ: cached %.12f vs full %.12f", llA, llB)
	}
	if engA.Meter.CacheHits == 0 {
		t.Error("no cache hits during smoothing")
	}
	a, b := engA.Meter.NewviewCalls, engB.Meter.NewviewCalls
	if a*5 > b {
		t.Errorf("smoothing combine reduction only %.2fx (cached %d vs full %d), want >= 5x",
			float64(b)/float64(a), a, b)
	}
	t.Logf("smoothing combines: cached %d vs full %d (%.1fx reduction)", a, b, float64(b)/float64(a))
}
