// Command raxmlvet is the project's static-analysis suite (see
// internal/lint): seven analyzers that enforce simulator determinism
// (simdeterminism, plus its interprocedural extension nondettaint),
// vector-store coherence (invalidatepair), kernel allocation
// discipline (hotpathalloc), tolerance-based float comparison (floatcmp),
// kernel-context ownership under task parallelism (ctxownership) and
// backend kernel purity (backendpurity). Every run also audits
// //lint:ignore directives and reports the ones that no longer suppress
// anything (unusedsuppression).
//
// It runs in two modes:
//
//	raxmlvet [-json] [packages]     standalone; defaults to ./...
//	go vet -vettool=$(which raxmlvet) ./...
//
// In the second form the go command drives raxmlvet through the vet tool
// protocol: a -V=full version query for build caching, then one invocation
// per package with a JSON config file argument; cross-package analysis
// facts travel through the .vetx files of the same protocol. Exit status
// is non-zero when any finding is reported.
//
// -json prints the findings as one stable, sorted JSON array
// ({analyzer, file, line, col, message}) instead of text — the feed CI
// turns into GitHub annotations.
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strings"

	"raxmlcell/internal/lint"
)

func main() {
	args := os.Args[1:]

	// Vet tool protocol, part 1: version/buildID query used by the go
	// command as a cache key. The content hash of the binary itself keys
	// the cache, so rebuilding raxmlvet with changed analyzers correctly
	// invalidates prior vet results.
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			fmt.Printf("raxmlvet version devel buildID=%s\n", selfHash())
			return
		}
		if a == "-V" || a == "--V" {
			fmt.Println("raxmlvet version devel")
			return
		}
	}

	// Vet tool protocol, part 2: flag discovery. We expose no analyzer
	// flags, so the go command passes none through.
	for _, a := range args {
		if a == "-flags" || a == "--flags" {
			fmt.Println("[]")
			return
		}
	}

	// Vet tool protocol, part 3: one *.cfg argument per package.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0]))
	}

	// Standalone mode. The go command never forwards flags (we advertise
	// none in the -flags reply), so -json is purely a standalone switch.
	jsonOut := false
	patterns := args[:0:0]
	for _, a := range args {
		if a == "-json" || a == "--json" {
			jsonOut = true
			continue
		}
		patterns = append(patterns, a)
	}
	clean, err := lint.Main(os.Stdout, "", jsonOut, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "raxmlvet:", err)
		os.Exit(1)
	}
	if !clean {
		os.Exit(2)
	}
}

// selfHash returns a short content hash of the running binary.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}
