package likelihood

import (
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/model"
	"raxmlcell/internal/phylotree"
)

func TestBackendRegistry(t *testing.T) {
	names := Backends()
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	if !found["scalar"] || !found["batched"] {
		t.Fatalf("registry missing shipped backends: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Backends() not sorted: %v", names)
		}
	}

	if got := (Config{}).BackendName(); got != DefaultBackend {
		t.Errorf("empty Config resolves to %q, want %q", got, DefaultBackend)
	}
	if got := (Config{Backend: "batched"}).BackendName(); got != "batched" {
		t.Errorf("BackendName() = %q, want batched", got)
	}

	rng := rand.New(rand.NewSource(601))
	pat := randomPatterns(t, rng, 6, 40)
	m := randomModel(t, rng, 4)
	if _, err := NewEngine(pat, m, Config{Backend: "no-such-backend"}); err == nil {
		t.Error("NewEngine accepted an unknown backend")
	}
	eng, err := NewEngine(pat, m, Config{Backend: "batched"})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Backend() != "batched" {
		t.Errorf("Engine.Backend() = %q, want batched", eng.Backend())
	}
}

// TestBackendsMatchScalarGamma drives every registered backend through
// newview, evaluate, per-site logs and Newton branch optimization on a
// random Gamma-rate workload, asserting exact (bit-for-bit) agreement with
// the scalar reference: the batched tiles are restructured loops over the
// same summation orders, not approximations.
func TestBackendsMatchScalarGamma(t *testing.T) {
	for _, name := range Backends() {
		if name == "scalar" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(602))
			pat := randomPatterns(t, rng, 12, 300)
			m := randomModel(t, rng, 4)
			tr := randomTreeFor(t, rng, pat)

			ref, err := NewEngine(pat, m, Config{Backend: "scalar"})
			if err != nil {
				t.Fatal(err)
			}
			alt, err := NewEngine(pat, m, Config{Backend: name})
			if err != nil {
				t.Fatal(err)
			}

			// Partial vectors and scale counters bit-identical.
			p := tr.Tips[0].Back
			ref.NewView(p)
			alt.NewView(p)
			refLv, refSc := stored(ref, p)
			altLv, altSc := stored(alt, p)
			assertVectorsEqual(t, "partial vector", altLv, refLv, altSc, refSc)

			// Log-likelihood bit-identical.
			llR, err := ref.Evaluate(tr.Tips[0])
			if err != nil {
				t.Fatal(err)
			}
			llA, err := alt.Evaluate(tr.Tips[0])
			if err != nil {
				t.Fatal(err)
			}
			if llR != llA {
				t.Fatalf("logL diverges: scalar %.17g vs %s %.17g", llR, name, llA)
			}

			// Per-site logs bit-identical.
			psR, err := ref.PerSiteLogL(tr.Tips[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			psA, err := alt.PerSiteLogL(tr.Tips[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range psR {
				if psR[i] != psA[i] {
					t.Fatalf("per-site log diverges at pattern %d: %g vs %g", i, psR[i], psA[i])
				}
			}

			// The deterministic meter counters agree so far: backends
			// restructure the loops but perform the same arithmetic. (The
			// MakeNewz stage below calls the reference engine twice per
			// edge, so the meters are only comparable at this point.)
			if ref.Meter.Flops() != alt.Meter.Flops() ||
				ref.Meter.ScaleChecks != alt.Meter.ScaleChecks ||
				ref.Meter.ScaleEvents != alt.Meter.ScaleEvents {
				t.Errorf("meters diverge:\n scalar  %s\n %s %s", ref.Meter.String(), name, alt.Meter.String())
			}

			// Newton branch optimization: identical iteration trajectory, so
			// identical optimum, for tip and inner branches.
			for _, edgeIdx := range []int{0, 4, 9} {
				eR := tr.Edges()[edgeIdx]
				zR, mlR, err := ref.MakeNewz(eR)
				if err != nil {
					t.Fatal(err)
				}
				zA, mlA, err := alt.MakeNewz(eR)
				// The reference call already moved the branch to its optimum,
				// so the second solve starts there; rerun the reference from
				// the same state for a fair bit comparison.
				if err != nil {
					t.Fatal(err)
				}
				zR2, mlR2, err := ref.MakeNewz(eR)
				if err != nil {
					t.Fatal(err)
				}
				if zA != zR2 && math.Abs(zA-zR)/(1+zR) > 1e-12 {
					t.Fatalf("edge %d: MakeNewz z diverges: scalar %.17g/%.17g vs %s %.17g", edgeIdx, zR, zR2, name, zA)
				}
				if mlA != mlR2 && math.Abs(mlA-mlR)/math.Abs(mlR) > 1e-12 {
					t.Fatalf("edge %d: MakeNewz logL diverges: scalar %.17g/%.17g vs %s %.17g", edgeIdx, mlR, mlR2, name, mlA)
				}
			}

		})
	}
}

// TestBackendsMatchScalarCAT checks the CAT layout (per-pattern rate
// categories) through every backend; the batched backend delegates CAT to
// the scalar loops, so agreement must be exact.
func TestBackendsMatchScalarCAT(t *testing.T) {
	for _, name := range Backends() {
		if name == "scalar" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(603))
			pat := randomPatterns(t, rng, 9, 220)
			gtr := randomModel(t, rng, 1).GTR
			tr := randomTreeFor(t, rng, pat)
			np := pat.NumPatterns()
			assign := make([]int, np)
			for i := range assign {
				assign[i] = i % 4
			}
			cat, err := model.NewCATModel(gtr, []float64{0.2, 0.7, 1.3, 2.8}, assign, pat.Weights)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewEngine(pat, cat, Config{Backend: "scalar"})
			if err != nil {
				t.Fatal(err)
			}
			alt, err := NewEngine(pat, cat, Config{Backend: name})
			if err != nil {
				t.Fatal(err)
			}
			llR, err := ref.Evaluate(tr.Tips[0])
			if err != nil {
				t.Fatal(err)
			}
			llA, err := alt.Evaluate(tr.Tips[0])
			if err != nil {
				t.Fatal(err)
			}
			if llR != llA {
				t.Fatalf("CAT logL diverges: scalar %.17g vs %s %.17g", llR, name, llA)
			}
			zR, mlR, err := ref.MakeNewz(tr.Edges()[2])
			if err != nil {
				t.Fatal(err)
			}
			zA, mlA, err := alt.MakeNewz(tr.Edges()[2])
			if err != nil {
				t.Fatal(err)
			}
			// Second call starts from the reference optimum on both engines,
			// so trajectories coincide.
			if math.Abs(zA-zR) > 1e-12*(1+zR) || math.Abs(mlA-mlR) > 1e-9*math.Abs(mlR) {
				t.Fatalf("CAT MakeNewz diverges: (%.17g, %.17g) vs (%.17g, %.17g)", zR, mlR, zA, mlA)
			}
		})
	}
}

// TestBackendThreadsBitIdentical checks that the batched tiles compose
// with the loop-level Threads fan-out: per-slot tile scratch must keep
// concurrent pattern ranges independent, and partial vectors must stay
// bit-identical to the serial scalar reference. Run under -race this also
// proves the slot isolation.
func TestBackendThreadsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(604))
	pat := randomPatterns(t, rng, 12, 400)
	m := randomModel(t, rng, 4)
	tr := randomTreeFor(t, rng, pat)

	ref, err := NewEngine(pat, m, Config{Backend: "scalar"})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewEngine(pat, m, Config{Backend: "batched", Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !par.parallel() {
		t.Fatal("workload does not trigger the threaded path")
	}
	p := tr.Tips[0].Back
	ref.NewView(p)
	par.NewView(p)
	refLv, refSc := stored(ref, p)
	parLv, parSc := stored(par, p)
	assertVectorsEqual(t, "threaded batched vector", parLv, refLv, parSc, refSc)
	llR, err := ref.Evaluate(tr.Tips[0])
	if err != nil {
		t.Fatal(err)
	}
	llP, err := par.Evaluate(tr.Tips[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(llR-llP) > 1e-9*math.Abs(llR) {
		t.Errorf("threaded batched logL %.12f != scalar %.12f", llP, llR)
	}
}

// TestBackendUnderPool exercises the batched backend beneath the
// task-level pool: wavefront NewView execution and concurrent
// InsertionScore-style Views on worker contexts, against scalar scores
// recomputed cold under FullRecompute. Run under -race this is the
// pool race gate for the batched backend.
func TestBackendUnderPool(t *testing.T) {
	rng := rand.New(rand.NewSource(605))
	pat := randomPatterns(t, rng, 16, 250)
	m := randomModel(t, rng, 4)
	tr := randomTreeFor(t, rng, pat)

	ref, err := NewEngine(pat, m, Config{Backend: "scalar", FullRecompute: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(pat, m, Config{Backend: "batched"})
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachTree(tr)
	pool := eng.NewPool(4)
	eng.UsePool(pool)
	defer eng.UsePool(nil)

	// Wavefront traversal through the batched kernels.
	p := tr.Tips[0].Back
	ref.NewView(p)
	eng.NewView(p)
	refLv, refSc := stored(ref, p)
	engLv, engSc := stored(eng, p)
	assertVectorsEqual(t, "wavefront batched vector", engLv, refLv, engSc, refSc)

	// Concurrent per-worker Views scoring (the SPR fan-out shape).
	var sub *phylotree.Node
	for _, e := range tr.Edges() {
		if !e.IsTip() {
			sub = e
			break
		}
	}
	if sub == nil {
		t.Fatal("no internal record to prune")
	}
	ps, err := tr.Prune(sub)
	if err != nil {
		t.Skipf("prune failed on random tree: %v", err)
	}
	cands := tr.Edges()
	if len(cands) > 8 {
		cands = cands[:8]
	}
	type res struct{ z, ll float64 }
	refViews := ref.Views()
	ref.BeginBatch()
	want := make([]res, len(cands))
	for i, cand := range cands {
		if cand.Back == nil {
			continue
		}
		z, ll, err := refViews.InsertionScore(cand, ps.P, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res{z, ll}
	}

	got := make([]res, len(cands))
	views := make([]*Views, pool.Workers())
	for w := range views {
		views[w] = pool.Ctx(w).Views()
	}
	pool.Run(len(cands), func(w, i int) {
		cand := cands[i]
		if cand.Back == nil {
			return
		}
		z, ll, err := views[w].InsertionScore(cand, ps.P, 0.1)
		if err != nil {
			return
		}
		got[i] = res{z, ll}
	})
	for i := range want {
		if math.Abs(want[i].ll-got[i].ll) > 1e-9*(1+math.Abs(want[i].ll)) ||
			math.Abs(want[i].z-got[i].z) > 1e-9*(1+want[i].z) {
			t.Errorf("candidate %d: batched pool score (%.12g, %.12g) != scalar (%.12g, %.12g)",
				i, got[i].z, got[i].ll, want[i].z, want[i].ll)
		}
	}
	if err := tr.Undo(ps); err != nil {
		t.Fatal(err)
	}
}

// FuzzBackendEquivalence drives random alignments, models and rate
// layouts (Gamma and CAT, varying taxa/sites/categories) through every
// registered backend and asserts agreement with the scalar reference:
// bit-identical partial vectors and ≤1e-9 relative log-likelihoods.
func FuzzBackendEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(6), uint16(80), uint8(4), false)
	f.Add(int64(2), uint8(4), uint16(33), uint8(1), false)
	f.Add(int64(3), uint8(9), uint16(130), uint8(3), true)
	f.Add(int64(4), uint8(12), uint16(64), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, taxa uint8, sites uint16, cats uint8, useCAT bool) {
		nt := 4 + int(taxa)%13 // 4..16 taxa
		nsites := 16 + int(sites)%400
		nc := 1 + int(cats)%4 // 1..4 categories
		rng := rand.New(rand.NewSource(seed))
		pat := randomPatterns(t, rng, nt, nsites)
		var m *model.Model
		if useCAT {
			gtr := randomModel(t, rng, 1).GTR
			np := pat.NumPatterns()
			assign := make([]int, np)
			for i := range assign {
				assign[i] = rng.Intn(nc)
			}
			rates := make([]float64, nc)
			for i := range rates {
				rates[i] = 0.1 + 3*rng.Float64()
			}
			var err error
			m, err = model.NewCATModel(gtr, rates, assign, pat.Weights)
			if err != nil {
				t.Skip(err)
			}
		} else {
			m = randomModel(t, rng, nc)
		}
		tr := randomTreeFor(t, rng, pat)

		ref, err := NewEngine(pat, m, Config{Backend: "scalar"})
		if err != nil {
			t.Skip(err)
		}
		llR, err := ref.Evaluate(tr.Tips[0])
		if err != nil {
			t.Skip(err)
		}
		rec := tr.Tips[0].Back
		refLv, _ := stored(ref, rec)
		for _, name := range Backends() {
			if name == "scalar" {
				continue
			}
			alt, err := NewEngine(pat, m, Config{Backend: name})
			if err != nil {
				t.Fatal(err)
			}
			llA, err := alt.Evaluate(tr.Tips[0])
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(llA-llR) > 1e-9*math.Max(1, math.Abs(llR)) {
				t.Fatalf("%s logL %.15g != scalar %.15g (taxa=%d sites=%d cats=%d cat=%v)",
					name, llA, llR, nt, nsites, nc, useCAT)
			}
			altLv, _ := stored(alt, rec)
			for i := range refLv {
				if refLv[i] != altLv[i] {
					t.Fatalf("%s partial vector diverges at %d (taxa=%d sites=%d cats=%d cat=%v)",
						name, i, nt, nsites, nc, useCAT)
				}
			}
		}
	})
}
