package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/core"
	"raxmlcell/internal/seqsim"
)

// workload is one named input plus the analysis shape it is run with. The
// analysis configuration always starts from core.DefaultConfig and sets only
// the shape fields below (and, when asked for, a checkpoint path), so a
// change to the program's defaults is measured the way a user running raxml
// would see it.
//
// A simulated input is drawn once, from GenSeed; --seed then permutes its
// site order. Every seed therefore runs the same analysis up to
// floating-point summation order, and runs on different seeds are
// comparable: a fresh draw per seed changes how many SPR rounds the search
// takes, which moves wall time by a quarter (see README.md). The fixed input
// is analysed as it is.
type workload struct {
	Name    string
	File    string         // fixed PHYLIP input, relative to the checkout root
	Sim     *seqsim.Params // generator shape of a simulated input
	GenSeed int64          // generator seed of the simulated input

	Inferences    int
	Bootstraps    int
	Workers       int // mw supervision workers (independent searches at once)
	SearchWorkers int // pool workers inside each search
	Checkpoint    bool
}

// workloads lists every workload the benchmark runs; BENCHMARK.json names
// the same set. README.md records why each was chosen and which layer
// metrics each should move.
var workloads = []workload{
	{
		Name:       "sc42-campaign",
		File:       "internal/core/testdata/42sc.phy",
		Inferences: 2, Bootstraps: 4, Workers: 2, SearchWorkers: 1, Checkpoint: true,
	},
	{
		Name:       "wide-search",
		Sim:        &seqsim.Params{Taxa: 32, Sites: 2000, MeanBranch: 0.05, Alpha: 0.8, InvariantFraction: 0.2},
		GenSeed:    11,
		Inferences: 1, Workers: 1, SearchWorkers: 2,
	},
	{
		Name:       "tall-search",
		Sim:        &seqsim.Params{Taxa: 72, Sites: 100, MeanBranch: 0.1, InvariantFraction: 0.1},
		GenSeed:    11,
		Inferences: 1, Workers: 1, SearchWorkers: 1,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// config derives the analysis configuration of one run. checkpoint is the
// file the campaign checkpoints into; it is ignored unless the workload
// checkpoints.
func (w workload) config(checkpoint string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Inferences = w.Inferences
	cfg.Bootstraps = w.Bootstraps
	cfg.Workers = w.Workers
	cfg.Search.Workers = w.SearchWorkers
	if w.Checkpoint {
		cfg.Checkpoint = checkpoint
	}
	return cfg
}

// writeInput puts the workload's input alignment into dir as a PHYLIP file
// and returns its path: the fixed file is copied, a simulated one is drawn
// from genSeed and its sites are permuted by seed. Either way set-up then
// reads it back like a user's input file.
func (w workload) writeInput(root, dir string, genSeed, seed int64) (string, error) {
	var raw []byte
	if w.Sim != nil {
		a, _, err := seqsim.Generate(*w.Sim, seqsim.DefaultModel(), rand.New(rand.NewSource(genSeed)))
		if err != nil {
			return "", fmt.Errorf("generate %s: %w", w.Name, err)
		}
		permuteSites(a, rand.New(rand.NewSource(seed)))
		var buf bytes.Buffer
		if err := alignment.WritePhylip(&buf, a); err != nil {
			return "", err
		}
		raw = buf.Bytes()
	} else {
		var err error
		if raw, err = os.ReadFile(filepath.Join(root, w.File)); err != nil {
			return "", err
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%d.phy", w.Name, genSeed, seed))
	return path, os.WriteFile(path, raw, 0o644)
}

// permuteSites reorders the alignment's columns, the same permutation for
// every taxon.
func permuteSites(a *alignment.Alignment, rng *rand.Rand) {
	perm := rng.Perm(a.NumSites())
	for _, s := range a.Seqs {
		codes := make([]byte, len(s.Codes))
		for i, j := range perm {
			codes[i] = s.Codes[j]
		}
		s.Codes = codes
	}
}

// input is a workload's alignment after set-up.
type input struct {
	Aln *alignment.Alignment
	Pat *alignment.Patterns
}

// setup is the timed set-up step: read the input file, parse it, compress
// it into patterns and build the analysis model, exactly what precedes
// core.Analyze in a real run.
func setup(path string, cfg core.Config) (input, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return input{}, err
	}
	a, err := alignment.ReadPhylip(bytes.NewReader(raw))
	if err != nil {
		return input{}, fmt.Errorf("parse %s: %w", path, err)
	}
	pat := alignment.Compress(a)
	if _, err := core.ModelFor(pat, cfg.Alpha, cfg.Cats); err != nil {
		return input{}, err
	}
	return input{Aln: a, Pat: pat}, nil
}

// printWorkload records the input by the shape the kernels see: the
// pattern count sets every vector's length (cats Gamma categories x 4 states
// x 8-byte floats per pattern, as likelihood.Engine lays it out), and the
// tree working set — one vector per inner node — against the per-core L2
// says whether a traversal streams from cache or from memory.
func printWorkload(out io.Writer, w workload, seed int64, in input, cats, l2KB int) {
	vecKB := float64(in.Pat.NumPatterns()*cats*4*8) / 1024
	wsKB := vecKB * float64(in.Pat.NumTaxa-2)
	fmt.Fprintf(out, "workload %s seed=%d", w.Name, seed)
	if w.Sim != nil {
		fmt.Fprintf(out, " gen_seed=%d", w.GenSeed)
	}
	fmt.Fprintf(out, " taxa=%d sites=%d patterns=%d vector_kb=%.1f working_set_kb=%.0f l2_kb=%d working_set_per_l2=%.2f",
		in.Pat.NumTaxa, in.Pat.NumSites, in.Pat.NumPatterns(), vecKB, wsKB, l2KB, ratio(wsKB, float64(l2KB)))
	fmt.Fprintf(out, " inferences=%d bootstraps=%d workers=%d search_workers=%d checkpoint=%t\n",
		w.Inferences, w.Bootstraps, w.Workers, w.SearchWorkers, w.Checkpoint)
}
