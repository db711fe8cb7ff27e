// Package lint is a project-native static-analysis engine that enforces the
// simulator's determinism and concurrency invariants at compile time rather
// than after the fact through golden tests. It is built entirely on the
// standard library (go/parser + go/ast + go/types over the export data of
// `go list -export`), matching the module's zero-dependency stance. Load
// takes go-tool package patterns: they resolve against a directory (zlint
// passes its working directory), apply build constraints, skip testdata
// and stop at a nested module.
//
// The engine ships five analyzers grounded in real invariants of this
// codebase (see the Analyzers variable). Three of them apply only to the
// "deterministic zone" — the packages whose outputs must be bit-identical
// across runs and -parallel settings — and atomicmix and errdrop apply
// module-wide. Findings are emitted as "file:line: analyzer: message" and
// any unsuppressed finding makes cmd/zlint exit nonzero.
//
// A finding can be suppressed with a same-line or preceding-line comment of
// the form
//
//	//zlint:ignore <analyzer> <reason>
//
// The reason is mandatory: a suppression without one is itself a finding,
// as is a suppression that matches nothing (so stale annotations cannot
// linger after the code they excused is gone).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Package is one loaded, parsed, and type-checked package ready for
// analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File // non-test files only
	Types *types.Package
	Info  *types.Info

	// InZone marks the package as part of the deterministic zone: the
	// packages whose behavior must be bit-identical across runs, hosts, and
	// -parallel settings. Zone-only analyzers (maprange, walltime,
	// globalmut) skip packages where this is false.
	InZone bool
}

// An Analyzer inspects one package in isolation and reports findings.
type Analyzer struct {
	Name string
	Doc  string
	// ZoneOnly restricts the analyzer to deterministic-zone packages.
	ZoneOnly bool
	Run      func(p *Package) []Finding
}

// Analyzers is the full suite, in reporting order.
var Analyzers = []*Analyzer{
	MapRange,
	WallTime,
	GlobalMut,
	AtomicMix,
	ErrDrop,
}

// AnalyzerNames returns the set of valid analyzer names (used to validate
// suppression comments).
func AnalyzerNames() map[string]bool {
	names := make(map[string]bool, len(Analyzers))
	for _, a := range Analyzers {
		names[a.Name] = true
	}
	return names
}

// Run executes every applicable analyzer on every package, applies
// //zlint:ignore suppressions, and returns the surviving findings plus any
// suppression problems (missing reason, unknown analyzer, unused
// suppression), sorted by file, line, column, analyzer, and message.
// Suppressions are matched across the whole run (by filename).
func Run(pkgs []*Package) []Finding {
	sups := &suppressionSet{}
	var raw []Finding
	for _, p := range pkgs {
		sups.sups = append(sups.sups, collectSuppressions(p).sups...)
		for _, a := range Analyzers {
			if a.ZoneOnly && !p.InZone {
				continue
			}
			raw = append(raw, a.Run(p)...)
		}
	}
	var out []Finding
	for _, f := range raw {
		if sups.suppress(f) {
			continue
		}
		out = append(out, f)
	}
	out = append(out, sups.problems()...)
	SortFindings(out)
	return out
}

// SortFindings orders findings by file, line, column, analyzer, and
// message. The column keeps two same-line findings in a stable order that
// does not depend on analyzer traversal order or the Go version's map
// iteration (the engine reports positions, and positions are the key).
func SortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// inspect walks every non-test file in the package, calling fn for each
// node; fn returning false prunes the subtree.
func (p *Package) inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// position resolves a node's position.
func (p *Package) position(n ast.Node) token.Position {
	return p.Fset.Position(n.Pos())
}

// finding constructs a Finding at the node's position.
func (p *Package) finding(n ast.Node, analyzer, format string, args ...any) Finding {
	return Finding{Pos: p.position(n), Analyzer: analyzer, Message: fmt.Sprintf(format, args...)}
}

// objectOf resolves an identifier (plain or the Sel of a selector) to its
// types.Object, or nil.
func (p *Package) objectOf(id *ast.Ident) types.Object {
	if id == nil {
		return nil
	}
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// calleeFunc resolves a call expression to the *types.Func it invokes (through
// selectors and parenthesization), or nil for builtins, conversions, and
// indirect calls through function values.
func (p *Package) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.objectOf(id).(*types.Func)
	return fn
}

// pkgPathOf returns the import path of the package an object belongs to
// ("" for builtins and universe-scope objects).
func pkgPathOf(o types.Object) string {
	if o == nil || o.Pkg() == nil {
		return ""
	}
	return o.Pkg().Path()
}
