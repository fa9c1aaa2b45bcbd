// Package missingdoc requires a doc comment on every exported symbol of
// the root catnap package — the library's public API surface, where the
// experiment registry and ExperimentOpts story is told entirely through
// doc comments (EXPERIMENTS.md and README link straight into them). New
// exported symbols land documented or not at all.
//
// The cmd/* main packages are held to the same bar: a main package has
// no importers, so an exported identifier there is a deliberate signal
// ("this helper is the command's real surface; main is just flag
// plumbing") and the signal needs a doc comment saying what the helper
// promises.
//
// A const/var/type group's doc comment covers every spec in the group
// that lacks its own. Methods of exported types are checked too;
// unexported receivers exempt their methods. Symbols grandfathered
// before the check existed go in the allowlist below with a reason —
// the list is append-only and shrinks as docs are written; prefer
// writing the doc comment.
package missingdoc

import (
	"go/ast"
	"strings"

	"github.com/catnap-noc/catnap/internal/analysis"
)

// Analyzer is the missingdoc pass.
var Analyzer = &analysis.Analyzer{
	Name: "missingdoc",
	Doc:  "require doc comments on exported symbols of the root catnap package and the cmd/* main packages",
	Run:  run,
}

// allowlist names exported symbols permitted to lack a doc comment, with
// the reason they were grandfathered. Currently empty: the whole public
// surface is documented, and this list existing is what keeps it that
// way (additions need a code-reviewed reason string).
var allowlist = map[string]string{}

func run(pass *analysis.Pass) error {
	if !analysis.PackageInScope(pass.Pkg.Path(), "catnap") && !isCmdPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkFunc(pass, d)
			case *ast.GenDecl:
				checkGen(pass, d)
			}
		}
	}
	return nil
}

// checkFunc flags undocumented exported functions and methods of
// exported receivers.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() || fd.Doc != nil {
		return
	}
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		recv := receiverTypeName(fd.Recv.List[0].Type)
		if recv == "" || !ast.IsExported(recv) {
			return
		}
		name = recv + "." + name
	}
	if _, ok := allowlist[name]; ok {
		return
	}
	pass.Reportf(fd.Name.Pos(), "exported %s lacks a doc comment", name)
}

// checkGen flags undocumented exported names in const/var/type decls. A
// group doc on the GenDecl covers specs without their own doc.
func checkGen(pass *analysis.Pass, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		switch sp := spec.(type) {
		case *ast.TypeSpec:
			if sp.Name.IsExported() && sp.Doc == nil && gd.Doc == nil {
				if _, ok := allowlist[sp.Name.Name]; !ok {
					pass.Reportf(sp.Name.Pos(), "exported type %s lacks a doc comment", sp.Name.Name)
				}
			}
		case *ast.ValueSpec:
			if sp.Doc != nil || gd.Doc != nil {
				continue
			}
			for _, n := range sp.Names {
				if !n.IsExported() {
					continue
				}
				if _, ok := allowlist[n.Name]; ok {
					continue
				}
				pass.Reportf(n.Pos(), "exported %s lacks a doc comment", n.Name)
			}
		}
	}
}

// isCmdPackage reports whether path names one of the repository's cmd/
// main packages (module-qualified or the short testdata form).
func isCmdPackage(path string) bool {
	return strings.HasPrefix(path, "cmd/") || strings.Contains(path, "/cmd/")
}

// receiverTypeName extracts the receiver's type name from *T, T, or
// generic forms; "" when unrecognisable.
func receiverTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
