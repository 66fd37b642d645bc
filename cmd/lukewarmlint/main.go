// Command lukewarmlint is the multichecker for lukewarm's static-enforcement
// suite (internal/analysis): the determinism/configuration analyzers plus the
// perf-invariant suite (internal/analysis/perf) that holds annotated hot
// paths, and the callees of noalloc roots, to their declared
// compiler-verified invariants.
//
// Usage:
//
//	lukewarmlint [-list] [packages]
//
// Packages default to ./... and accept any `go list` pattern; run it from
// the module root (type information is resolved from source through the
// module's own `go list`, and the perf gate's diagnostic rebuild runs from
// the current directory). Exit status: 0 clean, 1 findings, 2 usage or load
// failure. CI runs `make lint` (gofmt, `go vet` and this command) as a hard
// gate.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"lukewarm/internal/analysis"
	"lukewarm/internal/analysis/perf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind main, returning the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lukewarmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: lukewarmlint [-list] [packages]\n\nAnalyzers:\n")
		listAnalyzers(stderr)
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *list {
		listAnalyzers(stdout)
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "lukewarmlint:", err)
		return 2
	}
	diags, err := analysis.Run(pkgs, analyzers())
	if err != nil {
		fmt.Fprintln(stderr, "lukewarmlint:", err)
		return 2
	}
	gate, err := perf.CompileCheck(".", pkgs)
	if err != nil {
		fmt.Fprintln(stderr, "lukewarmlint:", err)
		return 2
	}
	diags = append(diags, gate...)
	cwd, _ := os.Getwd()
	for _, d := range diags {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil {
				d.Pos.Filename = rel
			}
		}
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "lukewarmlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

func analyzers() []*analysis.Analyzer {
	return append(analysis.All(), perf.Analyzers()...)
}

// listAnalyzers prints one line per analyzer, then the compiler gate.
func listAnalyzers(w io.Writer) {
	for _, a := range analyzers() {
		fmt.Fprintf(w, "%-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(w, "%-12s %s\n", "perfgate", perf.GateDoc)
}
