package main

import (
	"fmt"
	"io"
	"math"

	"raxmlcell/internal/core"
	"raxmlcell/internal/mw"
	"raxmlcell/internal/nstate"
)

// oracleTol is the relative log-likelihood disagreement the independent
// re-score may show. The two evaluators share no kernel code and sum in
// different orders, and the best tree crosses a Newick round trip; on the
// workloads here they agree to about 1e-10.
const oracleTol = 1e-7

// gate accumulates the correctness checks of one benchmark run. attempted
// counts jobs; failed counts quarantined jobs plus every failed check, so
// failed/attempted is the run's fail_frac.
type gate struct {
	attempted, failed int
	bestBits          uint64 // best_logl of the first analysis checked
	seen              bool
	log               io.Writer
}

func (g *gate) fail(format string, args ...any) {
	g.failed++
	fmt.Fprintf(g.log, "check failed: "+format+"\n", args...)
}

// analysis checks one core.Analysis: every surviving job passes
// mw.ValidateResult and support values lie in [0, 1].
func (g *gate) analysis(a *core.Analysis, jobs int) {
	g.attempted += jobs
	g.failed += len(a.Quarantined)
	for i := range a.Results {
		r := &a.Results[i]
		if r.Err != nil {
			continue // quarantined, already counted
		}
		if err := mw.ValidateResult(r); err != nil {
			g.fail("%v", err)
		}
	}
	for _, v := range a.Support {
		if !(v >= 0 && v <= 1) {
			g.fail("support value %v outside [0, 1]", v)
			break
		}
	}
}

// repeatable checks that best_logl is bit-identical to that of every other
// analysis of the primary input in this run, traced or not.
func (g *gate) repeatable(a *core.Analysis) {
	bits := math.Float64bits(a.BestLogL)
	if !g.seen {
		g.bestBits, g.seen = bits, true
	} else if bits != g.bestBits {
		g.fail("best_logl %v differs from the run's first analysis (%v)", a.BestLogL, math.Float64frombits(g.bestBits))
	}
}

// oracle re-scores the best tree with internal/nstate — a plain
// Felsenstein recursion that shares no kernel code with
// internal/likelihood — under the fitted alpha and the GTR rates and base
// frequencies core.ModelFor builds, and checks the reported best_logl.
func (g *gate) oracle(in input, a *core.Analysis, cats int) {
	ll, err := rescore(in, a, cats)
	if err != nil {
		g.fail("oracle: %v", err)
		return
	}
	if rel := math.Abs(ll-a.BestLogL) / math.Abs(ll); !(rel <= oracleTol) {
		g.fail("oracle logL %.10f vs reported %.10f (relative error %.3g)", ll, a.BestLogL, rel)
	}
}

func rescore(in input, a *core.Analysis, cats int) (float64, error) {
	mod, err := core.ModelFor(in.Pat, a.Alpha, cats)
	if err != nil {
		return 0, err
	}
	// model.GTR keeps its six exchangeabilities in AC, AG, AT, CG, CT, GT
	// order.
	pairs := [6][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	exch := make([][]float64, 4)
	for i := range exch {
		exch[i] = make([]float64, 4)
	}
	for k, p := range pairs {
		exch[p[0]][p[1]] = mod.GTR.Rates[k]
		exch[p[1]][p[0]] = mod.GTR.Rates[k]
	}
	ref, err := nstate.NewReversible(exch, mod.GTR.Freqs[:], a.Alpha, len(mod.Cats))
	if err != nil {
		return 0, err
	}
	rows := make([]string, len(in.Aln.Seqs))
	for i, s := range in.Aln.Seqs {
		rows[i] = s.String()
	}
	ev, err := nstate.NewEvaluator(nstate.DNA(), ref, in.Aln.Names(), rows)
	if err != nil {
		return 0, err
	}
	return ev.LogL(a.Best)
}
