package search

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/obs"
	"raxmlcell/internal/parsimony"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/seqsim"
)

// TestBestCandidateTieBreak pins the deterministic winner selection: the
// highest log-likelihood wins, and an exact tie goes to the lowest
// candidate index — the strictly-greater scan in index order that makes the
// pooled reduction byte-identical to the serial loop's choice.
func TestBestCandidateTieBreak(t *testing.T) {
	scores := []candScore{
		{z: 0.1, ll: -50, ok: true},
		{z: 0.2, ll: -40, ok: true}, // first of the tied best
		{z: 0.3, ll: -40, ok: true}, // tied, higher index: must lose
		{z: 0.4, ll: -45, ok: true},
		{z: 0.5, ll: -30, ok: false}, // unscored (detached edge): ignored
	}
	idx, z, ll := bestCandidate(scores, 0.9)
	if idx != 1 || math.Abs(z-0.2) > 0 || math.Abs(ll-(-40)) > 0 {
		t.Errorf("got (idx=%d z=%g ll=%g), want (1, 0.2, -40)", idx, z, ll)
	}

	// Nothing scored: index -1, fallback z0.
	idx, z, _ = bestCandidate([]candScore{{ok: false}, {ok: false}}, 0.9)
	if idx != -1 || math.Abs(z-0.9) > 0 {
		t.Errorf("empty reduction: got (idx=%d z=%g), want (-1, 0.9)", idx, z)
	}
	idx, _, _ = bestCandidate(nil, 0.9)
	if idx != -1 {
		t.Errorf("nil reduction: got idx=%d, want -1", idx)
	}
}

// TestBestNNICandidateChain pins the NNI acceptance replay: the serial loop
// is an order-dependent chain (a candidate must beat the *incumbent* by
// more than eps, and the incumbent updates as the scan walks), not an
// argmax. A later candidate that beats the start but not the updated
// incumbent must lose.
func TestBestNNICandidateChain(t *testing.T) {
	const current, eps = -100.0, 1.0
	scores := []candScore{
		{z: 0.1, ll: -98, ok: true},   // beats -100+1: incumbent -> -98
		{z: 0.2, ll: -97.5, ok: true}, // beats -100+1 but NOT -98+1: rejected
		{z: 0.3, ll: -96, ok: true},   // beats -98+1: incumbent -> -96
		{z: 0.4, ll: -95.5, ok: true}, // beats -96 but not -96+1: rejected
	}
	idx, z, ll := bestNNICandidate(scores, 0.9, current, eps)
	if idx != 2 || math.Abs(z-0.3) > 0 || math.Abs(ll-(-96)) > 0 {
		t.Errorf("got (idx=%d z=%g ll=%g), want (2, 0.3, -96)", idx, z, ll)
	}

	// No candidate clears the gate: keep the current likelihood.
	idx, _, ll = bestNNICandidate([]candScore{{ll: -99.5, ok: true}}, 0.9, current, eps)
	if idx != -1 || math.Abs(ll-current) > 0 {
		t.Errorf("gated reduction: got (idx=%d ll=%g), want (-1, %g)", idx, ll, current)
	}
}

// runSPR42SC runs the full SPR search on the 42_SC fixture with the given
// worker count, starting from the same parsimony tree every time;
// Radius/rounds/epsilon are pinned.
func runSPR42SC(t *testing.T, workers int, reg *obs.Registry) (*Result, likelihood.Meter) {
	t.Helper()
	pat := load42SC(t)
	m := seqsim.DefaultModel()
	start, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(777)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Radius: 3, MaxRounds: 2, SmoothPasses: 2, Epsilon: 0.05, Workers: workers, Metrics: reg}
	res, err := Run(eng, start, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, eng.Meter
}

// TestParallelSPRCrossValidation42SC is the ISSUE's acceptance test: the
// worker-pool SPR search on the 42_SC fixture must reach the identical
// final topology and the same log-likelihood (1e-9 relative) as the serial
// search, with the same move and round counts — parallelism is a pure
// scheduling change, never a search-path change — and, with the shared
// vector store on (the default), the pooled run must not redo shared-path
// kernel work: its newview-call total stays within 1.15x of serial.
// Both runs publish metrics: they must score the same number of insertion
// candidates, and the only cache.* series either may publish are the shared
// vector store's (no topology-memo series).
func TestParallelSPRCrossValidation42SC(t *testing.T) {
	if testing.Short() {
		t.Skip("full SPR search on 42 taxa, twice")
	}
	regSerial, regPooled := obs.NewRegistry(), obs.NewRegistry()
	serial, mtSerial := runSPR42SC(t, 1, regSerial)
	pooled, mtPooled := runSPR42SC(t, 4, regPooled)

	if math.Abs(serial.LogL-pooled.LogL) > 1e-9*math.Max(1, math.Abs(serial.LogL)) {
		t.Errorf("pooled logL %.12f != serial %.12f", pooled.LogL, serial.LogL)
	}
	if serial.Moves != pooled.Moves || serial.Rounds != pooled.Rounds {
		t.Errorf("search path diverged: serial %d moves/%d rounds, pooled %d moves/%d rounds",
			serial.Moves, serial.Rounds, pooled.Moves, pooled.Rounds)
	}
	rf, err := phylotree.RobinsonFoulds(serial.Tree, pooled.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if rf != 0 {
		t.Errorf("topologies diverged: RF=%d", rf)
	}
	// The redundancy gate, in-process: the ROADMAP's scaling target is
	// meaningless if each worker redoes the serial work, so the pooled
	// newview total is held to 1.15x serial (serial and pooled read the
	// same epoch-tagged store, so the totals typically coincide).
	ratio := float64(mtPooled.NewviewCalls) / float64(mtSerial.NewviewCalls)
	if ratio > 1.15 {
		t.Errorf("pooled newview calls %d vs serial %d: ratio %.3f > 1.15",
			mtPooled.NewviewCalls, mtSerial.NewviewCalls, ratio)
	}
	if mtPooled.SharedHits == 0 {
		t.Error("pooled run recorded no shared-store hits")
	}

	snapSerial, snapPooled := regSerial.Snapshot(), regPooled.Snapshot()
	candSerial, okS := snapSerial.CounterValue("search.candidates_scored")
	candPooled, okP := snapPooled.CounterValue("search.candidates_scored")
	if !okS || !okP || candSerial == 0 {
		t.Fatalf("search.candidates_scored missing or zero: serial %d (%v), pooled %d (%v)",
			candSerial, okS, candPooled, okP)
	}
	if candSerial != candPooled {
		t.Errorf("search.candidates_scored: serial %d, pooled %d", candSerial, candPooled)
	}
	for run, snap := range map[string]obs.Snapshot{"serial": snapSerial, "pooled": snapPooled} {
		var names []string
		for _, c := range snap.Counters {
			names = append(names, c.Name)
		}
		for _, g := range snap.Gauges {
			names = append(names, g.Name)
		}
		for _, h := range snap.Histograms {
			names = append(names, h.Name)
		}
		for _, name := range names {
			if strings.HasPrefix(name, "cache.") && name != "cache.shared_hits" && name != "cache.epoch" {
				t.Errorf("%s run published unexpected cache series %s", run, name)
			}
		}
	}
}

// TestParallelSearchMeterDeterminism repeats the pooled 42_SC search and
// requires bit-identical results and Meter totals across runs: static
// partitioning plus worker-order merges make the kernel-op accounting a
// pure function of the input, not of goroutine scheduling.
func TestParallelSearchMeterDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full SPR search on 42 taxa, twice")
	}
	resA, mtA := runSPR42SC(t, 3, nil)
	resB, mtB := runSPR42SC(t, 3, nil)
	if math.Abs(resA.LogL-resB.LogL) > 0 {
		t.Errorf("repeat run logL %.15f != %.15f", resB.LogL, resA.LogL)
	}
	if mtA != mtB {
		t.Errorf("repeat run meter differs:\n first %+v\n again %+v", mtA, mtB)
	}
}

// TestParallelNNICrossValidation checks the NNI acceptance chain survives
// pooling: serial NNISearch and the pooled NNISearchOpts must accept the
// same interchanges and land on the same likelihood.
func TestParallelNNICrossValidation(t *testing.T) {
	pat, _, m := simulated(t, 91, 12, 300)
	run := func(workers int) (float64, int, *phylotree.Tree) {
		start, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(92)))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ll, moves, err := NNISearchOpts(eng, start, Options{MaxRounds: 4, Epsilon: 0.01, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return ll, moves, start
	}
	llS, movesS, trS := run(1)
	llP, movesP, trP := run(4)
	if math.Abs(llS-llP) > 1e-9*math.Max(1, math.Abs(llS)) {
		t.Errorf("pooled NNI logL %.12f != serial %.12f", llP, llS)
	}
	if movesS != movesP {
		t.Errorf("pooled NNI accepted %d moves, serial %d", movesP, movesS)
	}
	rf, err := phylotree.RobinsonFoulds(trS, trP)
	if err != nil {
		t.Fatal(err)
	}
	if rf != 0 {
		t.Errorf("NNI topologies diverged: RF=%d", rf)
	}
}

// TestParallelSharedCacheStressSPRCycles hammers the shared epoch store
// with the search's real access pattern — repeated Prune / concurrent
// pooled scoring / Regraft-or-Undo cycles on 4 workers — and checks every
// pooled score against a cold full-recompute serial score, bitwise. Runs
// under -race in CI, where it doubles as the reader/single-flight race
// probe.
func TestParallelSharedCacheStressSPRCycles(t *testing.T) {
	pat, _, m := simulated(t, 97, 16, 300)
	tr, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(98)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachTree(tr)
	cold, err := likelihood.NewEngine(pat, m, likelihood.Config{FullRecompute: true})
	if err != nil {
		t.Fatal(err)
	}
	sc := newSearchCtx(eng, Options{Workers: 4})
	defer sc.close(eng)

	rng := rand.New(rand.NewSource(99))
	cycles, compared := 0, 0
	for cycle := 0; cycle < 30; cycle++ {
		cands := pruneCandidates(tr)
		p := cands[rng.Intn(len(cands))]
		if p.Back == nil || p.Next == nil {
			continue
		}
		ps, err := tr.Prune(p)
		if err != nil {
			continue
		}
		zSub := ps.P.Z
		sc.cands = phylotree.RadiusEdgesInto(sc.cands[:0], ps.Q, 3)
		sc.cands = phylotree.RadiusEdgesInto(sc.cands, ps.R, 3)

		scores, err := sc.scoreInsertions(eng, sc.cands, ps, zSub)
		if err != nil {
			t.Fatal(err)
		}
		// Serial reference recomputed cold on a full-recompute engine: the
		// pooled, store-served scores must match it bit for bit.
		cold.BeginBatch()
		ref := cold.Views()
		for i, cand := range sc.cands {
			if cand.Back == nil {
				continue
			}
			z, ll, err := ref.InsertionScore(cand, ps.P, zSub)
			if err != nil {
				t.Fatal(err)
			}
			if !scores[i].ok || scores[i].z != z || scores[i].ll != ll {
				t.Fatalf("cycle %d cand %d: pooled (ok=%v z=%.17g ll=%.17g) != serial (%.17g, %.17g)",
					cycle, i, scores[i].ok, scores[i].z, scores[i].ll, z, ll)
			}
			compared++
		}

		if len(sc.cands) > 0 && rng.Intn(2) == 0 {
			bestIdx, bestZ, _ := bestCandidate(scores, zSub)
			if bestIdx >= 0 {
				if err := tr.Regraft(ps, sc.cands[bestIdx]); err != nil {
					t.Fatal(err)
				}
				ps.P.SetZ(bestZ)
				eng.Invalidate(ps.P)
				for _, b := range [...]*phylotree.Node{ps.P, ps.P.Next, ps.P.Next.Next} {
					if _, _, err := eng.MakeNewz(b); err != nil {
						t.Fatal(err)
					}
				}
				cycles++
				continue
			}
		}
		if err := tr.Undo(ps); err != nil {
			t.Fatal(err)
		}
		cycles++
	}
	if cycles < 10 || compared == 0 {
		t.Fatalf("stress exercised only %d cycles / %d comparisons", cycles, compared)
	}
	if sc.shared.Hits() == 0 {
		t.Error("stress produced no shared-store hits")
	}
}

// TestAutoWorkersFromHonorsMeasuredOccupancy pins the occupancy-sizing
// contract: no registry or no recorded peak falls back to AutoWorkers, a
// positive peak below the CPU count caps the fan-out, and a peak at or
// above it (or a nonsensical zero) changes nothing.
func TestAutoWorkersFromHonorsMeasuredOccupancy(t *testing.T) {
	if got := AutoWorkersFrom(nil); got != AutoWorkers() {
		t.Errorf("nil registry: got %d, want AutoWorkers()=%d", got, AutoWorkers())
	}
	reg := obs.NewRegistry()
	if got := AutoWorkersFrom(reg); got != AutoWorkers() {
		t.Errorf("no recorded peak: got %d, want %d", got, AutoWorkers())
	}
	reg.Gauge("search.pool_busy_peak").Set(0)
	if got := AutoWorkersFrom(reg); got != AutoWorkers() {
		t.Errorf("zero peak: got %d, want %d", got, AutoWorkers())
	}
	reg.Gauge("search.pool_busy_peak").Set(1)
	if got := AutoWorkersFrom(reg); got != 1 {
		t.Errorf("peak 1: got %d, want 1", got)
	}
	reg.Gauge("search.pool_busy_peak").Set(float64(AutoWorkers() + 5))
	if got := AutoWorkersFrom(reg); got != AutoWorkers() {
		t.Errorf("peak above CPU count: got %d, want %d", got, AutoWorkers())
	}
}

// TestSearchMetricsPublished verifies the observability wiring: a pooled
// search publishes scored-candidate and parallel-round counters plus the
// pool-occupancy gauges into the registry that -debug-addr serves.
func TestSearchMetricsPublished(t *testing.T) {
	pat, _, m := simulated(t, 93, 14, 240)
	start, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(94)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := Run(eng, start, Options{
		Radius: 3, MaxRounds: 2, SmoothPasses: 2, Epsilon: 0.05,
		Workers: 2, Metrics: reg,
	}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if n, ok := snap.CounterValue("search.candidates_scored"); !ok || n == 0 {
		t.Errorf("search.candidates_scored = %d (present %v), want > 0", n, ok)
	}
	if n, ok := snap.CounterValue("search.parallel_rounds"); !ok || n == 0 {
		t.Errorf("search.parallel_rounds = %d (present %v), want > 0", n, ok)
	}
	if v, ok := snap.GaugeValue("search.pool_workers"); !ok || math.Abs(v-2) > 0 {
		t.Errorf("search.pool_workers = %g (present %v), want 2", v, ok)
	}
	if _, ok := snap.GaugeValue("search.pool_busy"); !ok {
		t.Error("search.pool_busy gauge not published")
	}
	if v, ok := snap.GaugeValue("search.pool_busy_peak"); !ok || v < 1 || v > 2 {
		t.Errorf("search.pool_busy_peak = %g (present %v), want in [1, 2]", v, ok)
	}
	if n, ok := snap.CounterValue("cache.shared_hits"); !ok || n == 0 {
		t.Errorf("cache.shared_hits = %d (present %v), want > 0", n, ok)
	}
	if v, ok := snap.GaugeValue("cache.epoch"); !ok || v < 1 {
		t.Errorf("cache.epoch = %g (present %v), want >= 1", v, ok)
	}
	// The measured peak must round-trip into the next fan-out sizing.
	if got := AutoWorkersFrom(reg); got < 1 || got > AutoWorkers() {
		t.Errorf("AutoWorkersFrom after pooled run = %d, want in [1, %d]", got, AutoWorkers())
	}
}

// TestSerialSearchCountsCandidates checks the candidate counter also works
// on a serial search (Workers <= 1), that no pool gauges appear, and that
// the serial search — the one-worker case of the pooled path — reuses the
// engine's vector store and publishes its cache series.
func TestSerialSearchCountsCandidates(t *testing.T) {
	pat, _, m := simulated(t, 95, 10, 200)
	start, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(96)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := Run(eng, start, Options{
		Radius: 2, MaxRounds: 1, SmoothPasses: 2, Epsilon: 0.05, Metrics: reg,
	}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if n, ok := snap.CounterValue("search.candidates_scored"); !ok || n == 0 {
		t.Errorf("search.candidates_scored = %d (present %v), want > 0", n, ok)
	}
	if n, _ := snap.CounterValue("search.parallel_rounds"); n != 0 {
		t.Errorf("serial run reported %d parallel rounds", n)
	}
	if _, ok := snap.GaugeValue("search.pool_workers"); ok {
		t.Error("serial run published search.pool_workers")
	}
	hits, ok := snap.CounterValue("cache.shared_hits")
	if !ok || hits == 0 {
		t.Errorf("cache.shared_hits = %d (present %v), want > 0", hits, ok)
	}
	if hits != eng.Meter.SharedHits {
		t.Errorf("cache.shared_hits = %d, engine metered %d", hits, eng.Meter.SharedHits)
	}
	if v, ok := snap.GaugeValue("cache.epoch"); !ok || v <= 1 {
		t.Errorf("cache.epoch = %g (present %v), want > 1", v, ok)
	}
}
