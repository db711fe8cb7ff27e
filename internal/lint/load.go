package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// zoneDirs names the deterministic zone: every package under
// internal/<dir> (including subpackages, e.g. internal/check/litmus) must
// behave bit-identically across runs, hosts, and -parallel settings,
// because the paper's overhead decomposition is only trustworthy if the
// golden outputs are byte-stable. Host-side packages (runner, prof,
// metrics, workload, ...) are deliberately absent: they may read wall-clock
// time and tolerate scheduling nondeterminism, as long as they never feed
// it back into simulated state.
var zoneDirs = []string{
	"sim", "proto", "machine", "cache", "directory", "mesh",
	"wbuffer", "shm", "psync", "check", "trace", "stats",
}

// inZoneDir reports whether relDir (slash-separated, relative to the module
// root) lies inside the deterministic zone.
func inZoneDir(relDir string) bool {
	for _, z := range zoneDirs {
		prefix := "internal/" + z
		if relDir == prefix || strings.HasPrefix(relDir, prefix+"/") {
			return true
		}
	}
	return false
}

// A Loader parses and type-checks packages, sharing one FileSet and one
// source importer (so each dependency is type-checked at most once across
// the whole run).
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer
}

// NewLoader builds a Loader backed by the standard library's source
// importer — packages are type-checked from source, so the engine needs no
// compiled export data and no dependencies outside the stdlib.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{Fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// LoadDir parses and type-checks the single package in dir (non-test files
// only). inZone marks it as deterministic-zone for the zone-only analyzers.
func (l *Loader) LoadDir(dir string, inZone bool) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: no buildable non-test Go files", dir)
	}
	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		}
		if f.Name.Name != pkgName {
			// Mixed package clauses (e.g. an external test package leaking a
			// non-_test.go file); analyze only the dominant package.
			continue
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(dir, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", dir, err)
	}
	return &Package{
		Dir:    dir,
		Name:   pkgName,
		Fset:   l.Fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
		InZone: inZone,
	}, nil
}

// Load expands the patterns relative to root (the module root) and loads
// every matched package. Patterns follow the go tool's shape: a directory
// path loads that one package, and a trailing "/..." loads the directory
// and everything beneath it. Hidden directories, testdata, and vendor trees
// are skipped.
func (l *Loader) Load(root string, patterns []string) ([]*Package, error) {
	dirs, err := ExpandPatterns(root, patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		p, err := l.LoadDir(dir, inZoneDir(filepath.ToSlash(rel)))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// ExpandPatterns resolves go-tool-style package patterns to the sorted list
// of directories that contain at least one buildable non-test Go file.
func ExpandPatterns(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		switch {
		case pat == "..." || pat == "./...":
			pat, recursive = ".", true
		case strings.HasSuffix(pat, "/..."):
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(root, base)
		}
		if !recursive {
			if !hasGoFiles(base) {
				return nil, fmt.Errorf("%s: no buildable non-test Go files", pat)
			}
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor" || name == "node_modules") {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// FindModuleRoot walks upward from dir looking for go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
