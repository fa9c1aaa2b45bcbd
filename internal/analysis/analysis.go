// Package analysis is a minimal, dependency-free reimplementation of the
// core of golang.org/x/tools/go/analysis: just enough driver, loader and
// test harness to run catnap's custom static checks (see the analyzer
// subpackages and cmd/catnap-lint) from the standard toolchain alone.
//
// The repository builds hermetically — no module downloads — so the real
// x/tools framework cannot be vendored; the API here mirrors its shape
// (Analyzer, Pass, Diagnostic, analysistest-style golden tests) so the
// analyzers port to the upstream framework mechanically if the dependency
// ever becomes available. Type information comes from the gc export data
// that `go list -export` materialises in the build cache, read through
// go/importer's lookup hook; syntax comes from go/parser. Only non-test
// files are analyzed: the rules checked here (determinism, API docs)
// bind the simulator proper, not its tests.
//
// Suppression: a finding on line N is silenced by a comment
//
//	//lint:ignore <analyzer> <reason>
//
// placed at the end of line N or alone on line N-1. The reason is
// mandatory; catnap-lint reports malformed ignore directives instead of
// honouring them.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check. It mirrors the x/tools type of the
// same name: Run inspects a single package via the Pass and reports
// findings through pass.Report / pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph help text shown by catnap-lint -list.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one package: syntax, type
// information, and the Report sink. A Pass is valid only for the duration
// of the Analyzer.Run call it is passed to.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. The driver installs it.
	Report func(Diagnostic)
}

// Reportf reports a finding at pos with a Sprintf-formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a message. Analyzer is filled
// in by the driver.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics (after //lint:ignore filtering) sorted by position. The
// error aggregates malformed ignore directives and directives that
// suppressed nothing (a stale ignore is a lie about the code and must be
// deleted); diagnostics are returned even when it is non-nil.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	ignores, errs := collectAllIgnores(pkgs)
	var all []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report: func(d Diagnostic) {
					d.Analyzer = a.Name
					if !ignores.suppresses(pkg.Fset, d) {
						all = append(all, d)
					}
				},
			}
			if err := a.Run(pass); err != nil {
				errs = append(errs, fmt.Sprintf("%s: %s: %v", pkg.Path, a.Name, err))
			}
		}
	}
	errs = append(errs, ignores.unused(ran)...)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Pos != all[j].Pos {
			return all[i].Pos < all[j].Pos
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	if len(errs) > 0 {
		return all, fmt.Errorf("%s", strings.Join(errs, "\n"))
	}
	return all, nil
}

// PackageInScope reports whether a package path falls under one of the
// given path suffixes (e.g. "internal/noc"). Suffix matching lets the
// same gate cover both the real module paths and the short testdata paths
// the analysistest harness loads.
func PackageInScope(pkgPath string, suffixes ...string) bool {
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}
