package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop flags call statements that silently discard an error result —
// a bare `f()` expression statement (or `defer f()` / `go f()`) where f
// returns an error nobody looks at. A dropped error in the experiment
// pipeline means a half-written profile or SVG that is then read in good
// faith. Assigning the error to
// the blank identifier (`_ = f()`) is allowed: it is a visible, greppable
// statement of intent, unlike a bare call that merely looks complete.
//
// Print-family calls on fmt (whose errors are write errors on stdout) and
// the never-failing writers strings.Builder and bytes.Buffer are exempt.
// Tests are outside this analyzer entirely (the engine never parses
// _test.go files).
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "discarding an error return hides failures; handle it or assign it to _",
	Run:  runErrDrop,
}

func runErrDrop(p *Package) []Finding {
	var out []Finding
	check := func(call *ast.CallExpr) {
		if !returnsError(p, call) || errDropExempt(p, call) {
			return
		}
		out = append(out, p.finding(call, "errdrop",
			"error result of %s is discarded; handle it or assign it to _", calleeName(p, call)))
	}
	p.inspect(func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
				check(call)
			}
		case *ast.DeferStmt:
			check(st.Call)
		case *ast.GoStmt:
			check(st.Call)
		}
		return true
	})
	return out
}

// returnsError reports whether any result of the call has type error.
func returnsError(p *Package, call *ast.CallExpr) bool {
	t := p.Info.TypeOf(call)
	switch t := t.(type) {
	case nil:
		return false
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

// errDropExempt allowlists callees whose error result is conventionally
// ignored: fmt's print family, and writers that document they never fail.
func errDropExempt(p *Package, call *ast.CallExpr) bool {
	fn := p.calleeFunc(call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		if pt, ok := rt.(*types.Pointer); ok {
			rt = pt.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			obj := named.Obj()
			full := pkgPathOf(obj) + "." + obj.Name()
			return full == "strings.Builder" || full == "bytes.Buffer"
		}
		return false
	}
	return pkgPathOf(fn) == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint"))
}

// calleeName renders the callee for the diagnostic message.
func calleeName(p *Package, call *ast.CallExpr) string {
	if fn := p.calleeFunc(call); fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return "(" + types.TypeString(sig.Recv().Type(), nil) + ")." + fn.Name()
		}
		if path := pkgPathOf(fn); path != "" && path != p.Types.Path() {
			return fn.Pkg().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	return "call"
}
