// catnap-lint is the multichecker for catnap's custom static analyses:
// the determinism and API-doc rules documented in DESIGN.md "Static
// analysis". It is dependency-free — the driver under internal/analysis
// mirrors the golang.org/x/tools/go/analysis shape on the standard
// toolchain alone — and runs from make lint (part of make check).
//
// Usage:
//
//	catnap-lint [-list] [-C dir] [packages]
//
// With no packages, ./... is analyzed. Exit status 1 means findings (or
// malformed/stale //lint:ignore directives); suppress a finding with
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line above.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/catnap-noc/catnap/internal/analysis"
	"github.com/catnap-noc/catnap/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("catnap-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	dir := fs.String("C", ".", "module directory to analyze from")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := suite.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "catnap-lint: %v\n", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(stderr, "catnap-lint: no packages matched %v\n", patterns)
		return 2
	}

	diags, runErr := analysis.Run(pkgs, analyzers)
	fset := pkgs[0].Fset // Load type-checks every package on one FileSet
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if runErr != nil {
		fmt.Fprintf(stderr, "catnap-lint: %v\n", runErr)
	}
	if len(diags) > 0 || runErr != nil {
		return 1
	}
	return 0
}
