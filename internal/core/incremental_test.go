package core

import (
	"math"
	"os"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/search"
)

// TestInferOnceIncrementalMatches is the default-vs-reference gate: the
// same seeded inference on the 42_SC fixture under DefaultConfig (batched
// backend, vectors kept in the engine's store across calls) and under the
// reference kernel configuration (scalar backend, full recomputation) must
// produce the byte-identical Newick tree, the bit-identical
// log-likelihood and the same rounds and moves, with strictly fewer
// newview calls on the default path.
func TestInferOnceIncrementalMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("four full 42-taxon inferences")
	}
	f, err := os.Open("testdata/42sc.phy")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := alignment.ReadPhylip(f)
	if err != nil {
		t.Fatal(err)
	}
	pat := alignment.Compress(a)

	for _, seed := range []int64{7, 42} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Search = search.Options{Radius: 3, MaxRounds: 2, SmoothPasses: 2, Epsilon: 0.05, AlphaOpt: true}
		def, defMeter, err := InferOnce(pat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Kernel = likelihood.Config{Backend: "scalar", FullRecompute: true}
		ref, refMeter, err := InferOnce(pat, cfg)
		if err != nil {
			t.Fatal(err)
		}

		if math.Float64bits(def.LogL) != math.Float64bits(ref.LogL) {
			t.Errorf("seed %d: default logL %.17g != reference %.17g", seed, def.LogL, ref.LogL)
		}
		if dn, rn := def.Tree.Newick(), ref.Tree.Newick(); dn != rn {
			t.Errorf("seed %d: default tree differs from reference:\n default   %s\n reference %s", seed, dn, rn)
		}
		if def.Rounds != ref.Rounds || def.Moves != ref.Moves {
			t.Errorf("seed %d: default %d rounds/%d moves, reference %d rounds/%d moves",
				seed, def.Rounds, def.Moves, ref.Rounds, ref.Moves)
		}
		if defMeter.NewviewCalls >= refMeter.NewviewCalls {
			t.Errorf("seed %d: default performed %d newview calls, reference %d",
				seed, defMeter.NewviewCalls, refMeter.NewviewCalls)
		}
		t.Logf("seed %d: newview calls default %d vs reference %d (%.2fx), %d cache hits, %d shared hits",
			seed, defMeter.NewviewCalls, refMeter.NewviewCalls,
			float64(refMeter.NewviewCalls)/float64(defMeter.NewviewCalls),
			defMeter.CacheHits, defMeter.SharedHits)
	}
}
