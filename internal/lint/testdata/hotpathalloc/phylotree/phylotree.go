// Golden input for the hotpathalloc scope in internal/phylotree: this file
// pretends to live in raxmlcell/internal/phylotree. Functions whose names
// contain hash are the canonical topology-hash path — they walk every edge
// of every fingerprinted tree, once per replicate under dedup, so
// per-edge allocations multiply by edges x trees. Scratch belongs on the
// hasher struct, sized once.
package phylotree

import "fmt"

type topoHash [2]uint64

type hasher struct {
	keys []topoHash
	acc  []topoHash
}

func (h *hasher) treeHashEdges(edges int) topoHash {
	var sum topoHash
	for e := 0; e < edges; e++ {
		term := make([]uint64, 2)     // want `make allocates inside a per-pattern loop`
		parts := []uint64{1, 2}       // want `slice/map literal allocates inside a per-pattern loop`
		_ = fmt.Sprintf("edge %d", e) // want `fmt.Sprintf inside a per-pattern loop`
		sum[0] += term[0] + parts[0]
		sum[1] += h.keys[e%len(h.keys)][1]
	}
	return sum
}

func (h *hasher) dedupHashes(n int) int {
	dups := 0
	seen := func(i int) bool {
		set := make(map[topoHash]bool, 1) // want `make allocates inside a per-iteration closure`
		return set[h.acc[i%len(h.acc)]]
	}
	for i := 0; i < n; i++ {
		if seen(i) {
			dups++
		}
	}
	return dups
}

func (h *hasher) edgeHashPrealloc(at int) topoHash {
	// The sanctioned idiom: the key tables were sized at construction, the
	// per-edge term is pure arithmetic on them — nothing to report.
	base := h.acc[at%len(h.acc)]
	base[0] += h.keys[at%len(h.keys)][0]
	base[1] += h.keys[at%len(h.keys)][1]
	return base
}

// buildTaxaIndex is outside the hot set (no hot fragment): the same
// allocation patterns are allowed.
func buildTaxaIndex(n int) map[int]topoHash {
	out := make(map[int]topoHash, n)
	for i := 0; i < n; i++ {
		out[i] = topoHash{uint64(i), uint64(i)}
	}
	return out
}

// memoProbeScores carries the retired memo/probe fragments: they no longer
// mark a function hot, so its allocations are not reported.
func (h *hasher) memoProbeScores(n int) []topoHash {
	var out []topoHash
	for i := 0; i < n; i++ {
		out = append(out, h.acc[i%len(h.acc)])
	}
	return out
}
