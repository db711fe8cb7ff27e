package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
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

// Load parses and type-checks the non-test files of the packages that
// patterns match, resolved against dir as the package doc says; a pattern
// that matches no package is an error. Each module the patterns fall in
// gets one `go list -export -deps` call: the packages it matches are
// type-checked from source against the export data it names.
func Load(dir string, patterns []string) ([]*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	var roots []string
	byRoot := map[string][]pattern{}
	for _, arg := range patterns {
		p, base := pattern{arg: arg, query: arg}, dir
		if build.IsLocalImport(arg) || filepath.IsAbs(arg) {
			// A directory pattern goes to the module that holds its directory.
			if !filepath.IsAbs(arg) {
				p.query = filepath.Join(dir, arg)
			}
			base, _, _ = strings.Cut(p.query, "...")
		}
		root, err := FindModuleRoot(base)
		if err != nil {
			return nil, err
		}
		if filepath.IsAbs(p.query) {
			// Relative to root, where go list runs, so go's messages show no absolute path.
			rel, _ := filepath.Rel(root, p.query) // cannot fail: root holds p.query
			if p.query = "./" + filepath.ToSlash(rel); rel == "." {
				p.query = "."
			}
		}
		if byRoot[root] == nil {
			roots = append(roots, root)
		}
		byRoot[root] = append(byRoot[root], p)
	}
	fset := token.NewFileSet()
	var pkgs []*Package
	for _, root := range roots {
		mod, err := loadModule(fset, root, byRoot[root])
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, mod...)
	}
	return pkgs, nil
}

// A pattern is a package pattern as the caller wrote it and as go list reads it.
type pattern struct{ arg, query string }

// listPackage is the part of a `go list -json` record that Load reads.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string // compiled export data
	DepOnly    bool   // listed only as a dependency of a match
	Match      []string
	Module     *struct{ Dir string }
	Error      *struct{ Err string }
}

// loadModule lists patterns in the module rooted at root, with the export
// data of everything they import, and checks each package they match.
func loadModule(fset *token.FileSet, root string, patterns []pattern) ([]*Package, error) {
	args := []string{"list", "-e", "-export", "-deps", "-json"}
	for _, p := range patterns {
		args = append(args, p.query)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	exports := map[string]string{}
	matched := map[string]bool{}
	var listed []*listPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		lp := new(listPackage)
		if err := dec.Decode(lp); err != nil {
			return nil, fmt.Errorf("go list: %w", err)
		}
		exports[lp.ImportPath] = lp.Export
		if lp.DepOnly {
			continue
		}
		if lp.Error != nil {
			name := lp.ImportPath // a pattern's own query, if go list could not resolve it
			for _, p := range patterns {
				if p.query == name {
					name = p.arg
				}
			}
			return nil, fmt.Errorf("%s: %s", name, lp.Error.Err)
		}
		for _, m := range lp.Match {
			matched[m] = true
		}
		listed = append(listed, lp)
	}
	for _, p := range patterns {
		if !matched[p.query] {
			return nil, fmt.Errorf("%s: matched no packages", p.arg)
		}
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})}
	pkgs := make([]*Package, 0, len(listed))
	for _, lp := range listed {
		files := make([]*ast.File, 0, len(lp.GoFiles))
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
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
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", lp.ImportPath, err)
		}
		inZone := false
		if lp.Module != nil {
			rel, err := filepath.Rel(lp.Module.Dir, lp.Dir)
			inZone = err == nil && inZoneDir(filepath.ToSlash(rel))
		}
		pkgs = append(pkgs, &Package{Fset: fset, Files: files, Types: tpkg, Info: info, InZone: inZone})
	}
	return pkgs, nil
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
