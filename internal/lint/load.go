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

// Load parses and type-checks every package of the module rooted at modDir
// (the directory containing go.mod), excluding _test.go files and the
// testdata, vendor, and hidden directories. File positions are reported
// relative to modDir. The module's own packages are type-checked from
// source; the standard library is read from the gc export data the go
// command builds and caches, so the go command must be on PATH (as it is
// under go run, go test and CI).
func Load(modDir string) ([]*Package, error) {
	ld, err := newLoader(modDir)
	if err != nil {
		return nil, err
	}
	return ld.loadAll()
}

// newLoader prepares a loader for the module rooted at modDir.
func newLoader(modDir string) (*loader, error) {
	modPath, err := modulePath(modDir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		modDir:  modDir,
		modPath: modPath,
		pkgs:    make(map[string]*Package),
		std:     importer.ForCompiler(fset, "gc", nil),
	}, nil
}

// loadAll loads every package directory of the module, sorted by Rel.
func (ld *loader) loadAll() ([]*Package, error) {
	dirs, err := packageDirs(ld.modDir)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, rel := range dirs {
		p, err := ld.load(rel)
		if err != nil {
			return nil, err
		}
		if p != nil {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rel < out[j].Rel })
	return out, nil
}

// modulePath reads the module path from go.mod.
func modulePath(modDir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(modDir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: reading go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", modDir)
}

// packageDirs lists every directory under modDir (as module-relative paths,
// "" for the root) that contains at least one non-test .go file.
func packageDirs(modDir string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(modDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != modDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if isSourceFile(e.Name()) {
				rel, err := filepath.Rel(modDir, path)
				if err != nil {
					return err
				}
				if rel == "." {
					rel = ""
				}
				dirs = append(dirs, filepath.ToSlash(rel))
				break
			}
		}
		return nil
	})
	return dirs, err
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// loader type-checks module packages on demand, resolving module-internal
// imports recursively and everything else through the standard library's
// export data.
type loader struct {
	fset    *token.FileSet
	modDir  string
	modPath string
	pkgs    map[string]*Package // keyed by Rel; nil while in progress
	std     types.Importer
	stack   []string
}

var _ types.ImporterFrom = (*loader)(nil)

// Import implements types.Importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	return ld.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are
// type-checked from source in-process, all others delegate to the
// standard library's export data.
func (ld *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if rel, ok := ld.relOf(path); ok {
		p, err := ld.load(rel)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", path)
		}
		return p.Types, nil
	}
	if from, ok := ld.std.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return ld.std.Import(path)
}

// relOf maps a module-internal import path to its module-relative directory.
func (ld *loader) relOf(path string) (string, bool) {
	if path == ld.modPath {
		return "", true
	}
	if rest, ok := strings.CutPrefix(path, ld.modPath+"/"); ok {
		return rest, true
	}
	return "", false
}

// load parses and type-checks the package in the module-relative directory
// rel, memoizing the result.
func (ld *loader) load(rel string) (*Package, error) {
	if p, ok := ld.pkgs[rel]; ok {
		if p == nil && ld.inProgress(rel) {
			return nil, fmt.Errorf("lint: import cycle through %q", rel)
		}
		return p, nil
	}
	ld.pkgs[rel] = nil
	ld.stack = append(ld.stack, rel)
	defer func() { ld.stack = ld.stack[:len(ld.stack)-1] }()

	dir := filepath.Join(ld.modDir, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if !isSourceFile(e.Name()) {
			continue
		}
		name := e.Name()
		if rel != "" {
			name = rel + "/" + name
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(ld.fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	p, err := ld.check(rel, files)
	if err != nil {
		return nil, err
	}
	ld.pkgs[rel] = p
	return p, nil
}

// check type-checks files as the package in the module-relative directory
// rel, without memoizing it.
func (ld *loader) check(rel string, files []*ast.File) (*Package, error) {
	path := ld.modPath
	if rel != "" {
		path = ld.modPath + "/" + rel
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Rel: rel, Fset: ld.fset, Files: files, Types: tpkg, Info: info}, nil
}

func (ld *loader) inProgress(rel string) bool {
	for _, r := range ld.stack {
		if r == rel {
			return true
		}
	}
	return false
}

// FindModuleRoot walks up from dir looking for go.mod.
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
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
