// Package analysis holds the repository's two source rules. They run as
// ordinary tests, so `go test ./...` enforces them:
//
//   - determinism keeps the simulator packages whose cycle loop must
//     replay bit for bit from a seed (internal/noc, internal/congestion,
//     internal/sim) free of anything else that could steer a run:
//     wall-clock reads, the process-global math/rand stream, go
//     statements, and map ranges whose body has an effect on state
//     outside the loop (Go map iteration order is random, so the effect
//     would be order-dependent).
//   - docs requires a doc comment on every exported symbol of the root
//     catnap package, the library's public API, and of every cmd/* main
//     package, where an exported helper is a deliberate signal of the
//     command's real surface.
//
// TestRepoLintClean applies both rules to the repository and expects no
// findings. TestRulesGolden applies each, in its own subtest, to the
// golden packages under testdata/src, whose `// want` comments list
// every finding expected there. Only non-test files are checked: the rules bind the simulator
// and its API, not their tests.
package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// determinismPkgs are the repository directories the determinism rule
// covers.
var determinismPkgs = []string{"internal/noc", "internal/congestion", "internal/sim"}

// finding is one rule violation.
type finding struct {
	pos  token.Pos
	rule string
	msg  string
}

// linter parses packages onto one FileSet, type-checks them through one
// source importer, so the standard library is type-checked once, and
// collects what the rules find.
type linter struct {
	fset     *token.FileSet
	imp      types.Importer
	files    []*ast.File
	findings []finding
}

func newLinter() *linter {
	fset := token.NewFileSet()
	return &linter{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

func (l *linter) report(pos token.Pos, rule, format string, args ...any) {
	l.findings = append(l.findings, finding{pos, rule, fmt.Sprintf(format, args...)})
}

// parse parses the non-test .go files of dir, which must hold some.
func (l *linter) parse(t *testing.T, dir string) []*ast.File {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("%s: no Go files", dir)
	}
	l.files = append(l.files, files...)
	return files
}

// lint applies the determinism rule to the packages in the directories
// det and the docs rule to those in docs. Directories are absolute, so
// the source importer resolves each package's imports from its own
// directory.
func (l *linter) lint(t *testing.T, det, docs []string) {
	t.Helper()
	for _, dir := range det {
		files := l.parse(t, dir)
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: l.imp}
		if _, err := conf.Check(dir, l.fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", dir, err)
		}
		l.determinism(files, info)
	}
	for _, dir := range docs {
		l.docs(l.parse(t, dir))
	}
}

// TestRepoLintClean applies both rules to the repository and expects no
// findings.
func TestRepoLintClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var det []string
	for _, p := range determinismPkgs {
		det = append(det, filepath.Join(root, filepath.FromSlash(p)))
	}
	docs := []string{root}
	cmds, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range cmds {
		if e.IsDir() {
			docs = append(docs, filepath.Join(root, "cmd", e.Name()))
		}
	}
	l := newLinter()
	l.lint(t, det, docs)
	for _, f := range l.findings {
		t.Errorf("%s: %s: %s", l.fset.Position(f.pos), f.rule, f.msg)
	}
}

// wantRE matches a golden expectation, a comment ending the line a
// finding is expected on: // want `regexp`.
var wantRE = regexp.MustCompile("^// want `(.*)`$")

// TestRulesGolden applies each rule to its golden packages, in a
// subtest named after the rule.
func TestRulesGolden(t *testing.T) {
	src, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("determinism", func(t *testing.T) {
		checkGolden(t, []string{filepath.Join(src, "internal", "noc")}, nil)
	})
	t.Run("docs", func(t *testing.T) {
		checkGolden(t, nil, []string{filepath.Join(src, "catnap"), filepath.Join(src, "cmd", "croak")})
	})
}

// checkGolden applies the determinism rule to the packages in det and
// the docs rule to those in docs, and requires exactly one finding,
// matching the pattern, on each `// want` line and no finding anywhere
// else.
func checkGolden(t *testing.T, det, docs []string) {
	t.Helper()
	l := newLinter()
	l.lint(t, det, docs)

	// want maps file:line to the pattern expected there.
	want := map[string]*regexp.Regexp{}
	for _, f := range l.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := wantRE.FindStringSubmatch(c.Text); m != nil {
					want[lineOf(l.fset, c.Pos())] = regexp.MustCompile(m[1])
				}
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("no // want comments in the golden packages")
	}
	for _, f := range l.findings {
		at := lineOf(l.fset, f.pos)
		if re := want[at]; re != nil && re.MatchString(f.msg) {
			delete(want, at) // a second finding on the line is unexpected
			continue
		}
		t.Errorf("%s: unexpected %s finding: %s", at, f.rule, f.msg)
	}
	for at, re := range want {
		t.Errorf("%s: no finding matching %q", at, re)
	}
}

func lineOf(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// The determinism rule.

// bannedTime are package time's wall-clock entry points.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// randConstructors are the math/rand entry points that build an
// explicitly seeded generator rather than touching the process-global
// stream; they are how sanctioned randomness is constructed.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// determinism reports the constructs that would make a package's cycle
// results depend on more than its seed.
func (l *linter) determinism(files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					l.checkCall(info, n)
				case *ast.GoStmt:
					l.report(n.Pos(), "determinism",
						"go statement in a deterministic package: stepping is sequential; run whole simulations in parallel through the sweep engine instead")
				case *ast.RangeStmt:
					l.checkMapRange(info, n)
				}
				return true
			})
		}
	}
}

// checkCall reports wall-clock and global-rand calls.
func (l *linter) checkCall(info *types.Info, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	// Package-qualified calls only: a method call (a Selections entry)
	// is seeded *rand.Rand usage, which is allowed.
	if info.Selections[sel] != nil {
		return
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTime[fn.Name()] {
			l.report(call.Pos(), "determinism",
				"time.%s reads the wall clock: cycle time is the only clock deterministic code may observe", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			l.report(call.Pos(), "determinism",
				"global %s.%s bypasses the seeded sim.RNG: derive randomness from the experiment seed", fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkMapRange reports range-over-map bodies that touch state declared
// outside the loop.
func (l *linter) checkMapRange(info *types.Info, rng *ast.RangeStmt) {
	t := info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				if declaredOutside(info, rng, lhs) {
					l.report(n.Pos(), "determinism",
						"assignment to state outside a range over a map: iteration order is nondeterministic")
					return true
				}
			}
		case *ast.IncDecStmt:
			if declaredOutside(info, rng, n.X) {
				l.report(n.Pos(), "determinism",
					"mutation of state outside a range over a map: iteration order is nondeterministic")
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
				if isTracerLike(s.Recv()) {
					l.report(n.Pos(), "determinism",
						"tracer/policy callback inside a range over a map: event order would be nondeterministic")
				} else if hasPointerReceiver(s.Obj()) && declaredOutside(info, rng, sel.X) {
					l.report(n.Pos(), "determinism",
						"pointer-receiver call on state outside a range over a map: effect order is nondeterministic")
				}
			}
		}
		return true
	})
}

// declaredOutside reports whether expr's root identifier resolves to an
// object declared outside the range statement, or cannot be resolved at
// all, which counts as outside.
func declaredOutside(info *types.Info, rng *ast.RangeStmt, expr ast.Expr) bool {
	id := rootIdent(expr)
	if id == nil {
		return true
	}
	if id.Name == "_" {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return true
	}
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// rootIdent peels selectors, indexing, derefs and parens down to the base
// identifier, or nil when the base is not an identifier.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// isTracerLike reports whether t is (a pointer to) an interface whose
// name ends in Tracer or Policy, the simulator's callback surfaces.
func isTracerLike(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if _, ok := n.Underlying().(*types.Interface); !ok {
		return false
	}
	name := n.Obj().Name()
	return strings.HasSuffix(name, "Tracer") || strings.HasSuffix(name, "Policy")
}

// hasPointerReceiver reports whether obj is a method with a pointer
// receiver.
func hasPointerReceiver(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	_, isPtr := recv.Type().(*types.Pointer)
	return isPtr
}

// The docs rule.

// docs reports exported functions, methods of exported receivers, and
// exported type/const/var specs that lack a doc comment. A const/var/type
// group's doc comment covers every spec in the group.
func (l *linter) docs(files []*ast.File) {
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || d.Doc != nil {
					continue
				}
				name := d.Name.Name
				if d.Recv != nil && len(d.Recv.List) > 0 {
					recv := receiverTypeName(d.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						continue
					}
					name = recv + "." + name
				}
				l.report(d.Name.Pos(), "docs", "exported %s lacks a doc comment", name)
			case *ast.GenDecl:
				if d.Doc != nil {
					continue
				}
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && sp.Doc == nil {
							l.report(sp.Name.Pos(), "docs", "exported type %s lacks a doc comment", sp.Name.Name)
						}
					case *ast.ValueSpec:
						if sp.Doc != nil {
							continue
						}
						for _, n := range sp.Names {
							if n.IsExported() {
								l.report(n.Pos(), "docs", "exported %s lacks a doc comment", n.Name)
							}
						}
					}
				}
			}
		}
	}
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
