package lint

import (
	"go/ast"
)

// InvalidatePair enforces the vector-store coherence rule.
//
// likelihood.Engine keeps directed partial likelihood vectors across calls
// in its epoch-tagged store (the default; only Config.FullRecompute
// recomputes everything per call). Topology edits made through
// phylotree.Tree fire branch-change hooks (AttachTree), and MakeNewz
// invalidates its own branch — but a *direct* branch-length write via
// Node.SetZ bypasses both. Any search-layer code (internal/search,
// internal/core) that calls SetZ must therefore follow it, in the same
// function, with an Engine.Invalidate(node) or Engine.InvalidateAll() call,
// or stored vectors silently go stale and every default analysis returns
// wrong likelihoods.
//
// The check is positional: a SetZ call is flagged unless an
// Invalidate/InvalidateAll method call appears later in the same enclosing
// function declaration. Paths where no engine can be attached (e.g. tree
// construction before an engine exists) should carry a //lint:ignore
// invalidatepair directive with the justification.
var InvalidatePair = &Analyzer{
	Name: "invalidatepair",
	Doc:  "require Engine.Invalidate after direct SetZ branch writes in the search layer",
	Match: func(pkgPath string) bool {
		return pathHasAny(pkgPath, "internal/search", "internal/core")
	},
	Run: runInvalidatePair,
}

func runInvalidatePair(pass *Pass) {
	for _, f := range pass.NonTestFiles() {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil {
				checkInvalidatePairs(pass, fn)
			}
		}
	}
}

func checkInvalidatePairs(pass *Pass, fn *ast.FuncDecl) {
	type setzCall struct {
		call *ast.CallExpr
	}
	var setzs []setzCall
	var invalidatePositions []int // token.Pos offsets of Invalidate/InvalidateAll calls

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isMethodCall(pass.Info, call, "SetZ"):
			setzs = append(setzs, setzCall{call})
		case isMethodCall(pass.Info, call, "Invalidate", "InvalidateAll"):
			invalidatePositions = append(invalidatePositions, int(call.Pos()))
		}
		return true
	})

	for _, s := range setzs {
		paired := false
		for _, p := range invalidatePositions {
			if p > int(s.call.Pos()) {
				paired = true
				break
			}
		}
		if !paired {
			pass.Reportf(s.call.Pos(),
				"direct SetZ bypasses the tree's branch-change hooks and is not followed by Engine.Invalidate/InvalidateAll in %s; the engine's vector store would serve stale vectors", fn.Name.Name)
		}
	}
}
