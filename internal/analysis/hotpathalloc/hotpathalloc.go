// Package hotpathalloc statically backs the 0 B/cycle steady-state bench
// guard: functions annotated //catnap:hotpath (Step, the VA/SA/ST
// passes, NI enqueue/inject, the power phase — see DESIGN.md "Hot
// path") are scanned for constructs that allocate, or that commonly
// defeat escape analysis:
//
//   - fmt.* calls (interface boxing plus formatting state);
//   - string concatenation (non-constant `+` on strings);
//   - make/new and slice/map composite literals, including &T{};
//   - growth-pattern append: anything but the self-append idiom
//     `x = append(x, ...)`, whose backing array amortises to zero in a
//     warmed-up simulator;
//   - closure literals (captures escape to the heap when the closure
//     does);
//   - interface boxing at call sites: a concrete non-pointer value
//     passed to an interface-typed parameter allocates.
//
// Arguments of panic(...) are exempt: a panicking cycle is off the
// steady-state path by definition, so the conventional
// panic(fmt.Sprintf(...)) diagnostics do not need suppression comments.
//
// The check is per-function and syntactic over typed ASTs: it cannot
// prove a function allocation-free (escape analysis can move things
// either way), but every construct it flags is a latent allocation on the
// per-cycle path, and the bench guards confirm the dynamic truth. Known
// cold paths inside hot functions (one-time ring growth, the freelist-
// miss new(Packet)) carry //lint:ignore
// with the justification.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/catnap-noc/catnap/internal/analysis"
)

// Analyzer is the hotpathalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "flag allocation-causing constructs inside //catnap:hotpath functions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !analysis.HasAnnotation(fd, "hotpath") {
				continue
			}
			check(pass, fd.Body)
		}
	}
	return nil
}

// check walks one hot function's body, carrying the innermost enclosing
// assignment so append calls can be matched against the self-append
// idiom, and skipping panic(...) arguments entirely.
func check(pass *analysis.Pass, body *ast.BlockStmt) {
	var walk func(n ast.Node, assign *ast.AssignStmt)
	walk = func(n ast.Node, assign *ast.AssignStmt) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				walk(e, nil)
			}
			for _, e := range n.Rhs {
				walk(e, n)
			}
			return
		case *ast.CallExpr:
			if checkCall(pass, n, assign) {
				return // panic(...): arguments are cold, skip them
			}
			walk(n.Fun, nil)
			for _, a := range n.Args {
				walk(a, nil)
			}
			return
		case *ast.FuncLit:
			pass.Reportf(n.Pos(),
				"closure literal in a hot-path function: captured variables escape to the heap when the closure does")
			return // the closure body is not the hot path's own frame
		case *ast.CompositeLit:
			checkComposite(pass, n)
			// keep walking: element expressions may contain calls
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(),
						"&T{} in a hot-path function allocates when it escapes")
					return
				}
			}
		case *ast.BinaryExpr:
			checkConcat(pass, n)
		}
		// Generic traversal into children, resetting the assignment
		// context (it only applies to the assignment's direct RHS).
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			walk(c, nil)
			return false
		})
	}
	for _, stmt := range body.List {
		walk(stmt, nil)
	}
}

// checkCall flags fmt.* calls, allocation builtins, growth-pattern
// appends, and interface-boxing argument passing. It reports true when
// the call is panic(...), whose arguments the caller must skip.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, assign *ast.AssignStmt) (isPanic bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "panic":
				return true
			case "make":
				pass.Reportf(call.Pos(),
					"make in a hot-path function allocates: hoist the buffer to setup and reuse it")
			case "new":
				pass.Reportf(call.Pos(),
					"new in a hot-path function allocates: hoist the object to setup or pool it")
			case "append":
				if !selfAppendOK(assign, call) {
					pass.Reportf(call.Pos(),
						"append outside the amortised `x = append(x, ...)` idiom: the result escapes its backing array's reuse")
				}
			}
			return false
		}
	case *ast.SelectorExpr:
		if pass.TypesInfo.Selections[fun] == nil { // package-qualified call
			if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				pass.Reportf(call.Pos(),
					"fmt.%s in a hot-path function allocates (interface boxing and formatting state)", fn.Name())
				return false // boxing per-arg would only duplicate the finding
			}
		}
	}
	checkBoxing(pass, call)
	return false
}

// checkBoxing flags concrete non-pointer arguments passed to interface-
// typed parameters: the value is boxed onto the heap at the call site.
func checkBoxing(pass *analysis.Pass, call *ast.CallExpr) {
	sigTV, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := sigTV.Type.Underlying().(*types.Signature)
	if !ok {
		return // conversion or builtin
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue // interface-to-interface: no new allocation
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Basic:
			if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() != types.UntypedNil {
				pass.Reportf(arg.Pos(),
					"value of type %s boxed into interface parameter: allocates at the call site", at)
			}
		default:
			pass.Reportf(arg.Pos(),
				"value of type %s boxed into interface parameter: allocates at the call site", at)
		}
	}
}

// checkComposite flags slice and map composite literals (struct literals
// are stack values and stay unflagged).
func checkComposite(pass *analysis.Pass, lit *ast.CompositeLit) {
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		pass.Reportf(lit.Pos(), "slice literal in a hot-path function allocates its backing array")
	case *types.Map:
		pass.Reportf(lit.Pos(), "map literal in a hot-path function allocates")
	}
}

// checkConcat flags non-constant string concatenation.
func checkConcat(pass *analysis.Pass, bin *ast.BinaryExpr) {
	if bin.Op != token.ADD {
		return
	}
	tv, ok := pass.TypesInfo.Types[bin]
	if !ok || tv.Value != nil { // constant-folded: free
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		pass.Reportf(bin.Pos(), "string concatenation in a hot-path function allocates the result")
	}
}

// selfAppendOK reports whether call (a builtin append) appears as the
// sole RHS of a plain assignment whose first LHS textually equals
// append's first argument — the amortised `x = append(x, ...)` idiom.
func selfAppendOK(assign *ast.AssignStmt, call *ast.CallExpr) bool {
	if assign == nil || len(assign.Rhs) != 1 || assign.Rhs[0] != call ||
		len(assign.Lhs) == 0 || len(call.Args) == 0 || assign.Tok != token.ASSIGN {
		return false
	}
	return types.ExprString(assign.Lhs[0]) == types.ExprString(call.Args[0])
}
