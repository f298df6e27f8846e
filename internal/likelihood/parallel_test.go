package likelihood

import (
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/model"
)

func TestParallelKernelsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	pat := randomPatterns(t, rng, 14, 600) // enough patterns to trigger fan-out
	m := randomModel(t, rng, 4)
	tr := randomTreeFor(t, rng, pat)

	serial, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewEngine(pat, m, Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !par.parallel() {
		t.Fatal("test data does not trigger the parallel path")
	}

	// Partial vectors must be bit-identical: NewView writes are disjoint.
	serial.NewView(tr.Tips[0].Back)
	par.NewView(tr.Tips[0].Back)
	sLv, sSc := stored(serial, tr.Tips[0].Back)
	pLv, pSc := stored(par, tr.Tips[0].Back)
	assertVectorsEqual(t, "threaded partial vector", pLv, sLv, pSc, sSc)

	// Log likelihood agrees to summation-order tolerance.
	llS, err := serial.Evaluate(tr.Tips[0])
	if err != nil {
		t.Fatal(err)
	}
	llP, err := par.Evaluate(tr.Tips[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(llS-llP) > 1e-9*math.Abs(llS) {
		t.Errorf("parallel logL %.12f != serial %.12f", llP, llS)
	}

	// Branch optimization agrees.
	e := tr.Edges()[4]
	zS, mlS, err := serial.MakeNewz(e)
	if err != nil {
		t.Fatal(err)
	}
	e.SetZ(0.1) // reset
	zP, mlP, err := par.MakeNewz(e)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(zS-zP) > 1e-6*(1+zS) || math.Abs(mlS-mlP) > 1e-8*math.Abs(mlS) {
		t.Errorf("parallel MakeNewz (%.8f, %.6f) != serial (%.8f, %.6f)", zP, mlP, zS, mlS)
	}

	// Meters agree on the deterministic counters.
	if serial.Meter.NewviewCalls != par.Meter.NewviewCalls ||
		serial.Meter.BigLoopIters != par.Meter.BigLoopIters ||
		serial.Meter.ScaleChecks != par.Meter.ScaleChecks ||
		serial.Meter.Flops() != par.Meter.Flops() {
		t.Errorf("meters diverge:\n serial %s\n parallel %s", serial.Meter.String(), par.Meter.String())
	}
}

func TestParallelCATMatchesSerial(t *testing.T) {
	// The CAT layout and the goroutine fan-out must compose.
	rng := rand.New(rand.NewSource(504))
	pat := randomPatterns(t, rng, 10, 500)
	gtr := randomModel(t, rng, 1).GTR
	tr := randomTreeFor(t, rng, pat)
	np := pat.NumPatterns()
	assign := make([]int, np)
	for i := range assign {
		assign[i] = i % 3
	}
	cat, err := model.NewCATModel(gtr, []float64{0.3, 1, 2.5}, assign, pat.Weights)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewEngine(pat, cat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewEngine(pat, cat, Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !par.parallel() {
		t.Skip("not enough patterns to fan out")
	}
	llS, err := serial.Evaluate(tr.Tips[0])
	if err != nil {
		t.Fatal(err)
	}
	llP, err := par.Evaluate(tr.Tips[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(llS-llP) > 1e-9*math.Abs(llS) {
		t.Errorf("CAT parallel %.12f != serial %.12f", llP, llS)
	}
}

func TestParallelSmallInputStaysSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	pat := randomPatterns(t, rng, 6, 20) // below the fan-out threshold
	m := randomModel(t, rng, 2)
	eng, err := NewEngine(pat, m, Config{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if eng.parallel() {
		t.Error("tiny input fanned out")
	}
	tr := randomTreeFor(t, rng, pat)
	if _, err := eng.Evaluate(tr.Tips[0]); err != nil {
		t.Fatal(err)
	}
}

func TestSplitPatternsCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	pat := randomPatterns(t, rng, 10, 500)
	m := randomModel(t, rng, 2)
	for _, threads := range []int{2, 3, 7, 16} {
		eng, err := NewEngine(pat, m, Config{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		ranges := eng.splitPatterns()
		covered := 0
		last := 0
		for _, r := range ranges {
			if r.lo != last || r.hi <= r.lo {
				t.Fatalf("threads=%d: bad range %+v (last=%d)", threads, r, last)
			}
			covered += r.hi - r.lo
			last = r.hi
		}
		if covered != eng.npat || last != eng.npat {
			t.Errorf("threads=%d: ranges cover %d of %d", threads, covered, eng.npat)
		}
	}
}
