package analysis

import (
	"go/ast"
	"strings"
)

// Annotation grammar: a function opts into (or out of) a contract with a
// machine-readable line in its doc comment,
//
//	//catnap:<name> [free-form note]
//
// e.g. //catnap:hotpath, //catnap:quiescent-only, //catnap:reset-covered.
// The note is ignored by the analyzers but encouraged for humans.
// Annotations compose: one function may carry several, one per line.
const annotationPrefix = "//catnap:"

// HasAnnotation reports whether fd's doc comment carries
// //catnap:<name>.
func HasAnnotation(fd *ast.FuncDecl, name string) bool {
	if fd == nil || fd.Doc == nil {
		return false
	}
	want := annotationPrefix + name
	for _, c := range fd.Doc.List {
		t := c.Text
		if t == want || strings.HasPrefix(t, want+" ") {
			return true
		}
	}
	return false
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
