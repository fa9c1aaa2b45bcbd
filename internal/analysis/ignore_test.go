package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// mustParse builds a syntax-only Package from src; ignore collection and
// suppression never touch type information.
func mustParse(t *testing.T, name, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return &Package{Path: "p", Fset: fset, Files: []*ast.File{f}}
}

// lineStart returns the token.Pos of the first column of line in the
// package's single file.
func lineStart(t *testing.T, pkg *Package, line int) token.Pos {
	t.Helper()
	tf := pkg.Fset.File(pkg.Files[0].Pos())
	if tf == nil {
		t.Fatal("no token.File for parsed file")
	}
	return tf.LineStart(line)
}

func TestIgnorePlacement(t *testing.T) {
	src := `package p

func a() {
	eol() //lint:ignore alloc eol-form directive
	//lint:ignore alloc line-above-form directive
	above()

	//lint:ignore alloc two lines above the diagnostic: out of range
	_ = 0
	far()
}
`
	pkg := mustParse(t, "a.go", src)
	set, errs := collectAllIgnores([]*Package{pkg})
	if len(errs) != 0 {
		t.Fatalf("unexpected collect errors: %v", errs)
	}
	diagAt := func(line int) Diagnostic {
		return Diagnostic{Pos: lineStart(t, pkg, line), Analyzer: "alloc"}
	}
	if !set.suppresses(pkg.Fset, diagAt(4)) {
		t.Errorf("EOL directive on line 4 must suppress a line-4 diagnostic")
	}
	if !set.suppresses(pkg.Fset, diagAt(6)) {
		t.Errorf("line-above directive on line 5 must suppress a line-6 diagnostic")
	}
	if set.suppresses(pkg.Fset, diagAt(10)) {
		t.Errorf("directive two lines above must not suppress a line-10 diagnostic")
	}
}

func TestIgnoreMultipleAnalyzers(t *testing.T) {
	src := `package p

func a() {
	//lint:ignore alloc,order shared cold path
	both()
}
`
	pkg := mustParse(t, "a.go", src)
	set, errs := collectAllIgnores([]*Package{pkg})
	if len(errs) != 0 {
		t.Fatalf("unexpected collect errors: %v", errs)
	}
	for _, name := range []string{"alloc", "order"} {
		if !set.suppresses(pkg.Fset, Diagnostic{Pos: lineStart(t, pkg, 5), Analyzer: name}) {
			t.Errorf("comma-list directive must cover analyzer %q", name)
		}
	}
	if set.suppresses(pkg.Fset, Diagnostic{Pos: lineStart(t, pkg, 5), Analyzer: "other"}) {
		t.Errorf("directive must not cover an analyzer it does not name")
	}
}

func TestIgnoreMalformed(t *testing.T) {
	src := `package p

//lint:ignore alloc
func a() {}
`
	pkg := mustParse(t, "a.go", src)
	_, errs := collectAllIgnores([]*Package{pkg})
	if len(errs) != 1 || !strings.Contains(errs[0], "malformed ignore directive") {
		t.Fatalf("want one malformed-directive error, got %v", errs)
	}
}

// TestIgnoreUnused covers the stale-ignore sweep: a directive naming an
// analyzer is condemned when that analyzer ran and suppressed nothing,
// and left alone when only other analyzers ran.
func TestIgnoreUnused(t *testing.T) {
	src := `package p

func a() {
	//lint:ignore order nothing here ever fires
	quiet()
}
`
	pkg := mustParse(t, "a.go", src)
	set, errs := collectAllIgnores([]*Package{pkg})
	if len(errs) != 0 {
		t.Fatalf("unexpected collect errors: %v", errs)
	}
	if errs := set.unused(map[string]bool{"alloc": true}); len(errs) != 0 {
		t.Errorf("directive naming only un-ran analyzers must survive a partial run, got %v", errs)
	}
	got := set.unused(map[string]bool{"order": true})
	if len(got) != 1 || !strings.Contains(got[0], "unused //lint:ignore") {
		t.Fatalf("want one unused-directive error under order, got %v", got)
	}
}
