package deepvet

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one fully type-checked, non-test package of the repository
// (or a fixture directory pretending to be one).
type Package struct {
	// Rel is the package directory's slash-separated path relative to
	// the repo root ("" for the root package). Analyses use it to decide
	// which rules apply.
	Rel string
	// Path is the import path the package was checked under.
	Path string
	// Fset positions every node of Files.
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the use/def/type resolution of every identifier.
	Info *types.Info
}

// Loader parses and type-checks repository packages using only the
// standard library: module-internal imports are resolved against the
// repo tree, everything else is type-checked from GOROOT source via the
// go/importer source importer. No go/packages, no external processes.
type Loader struct {
	root   string
	module string
	fset   *token.FileSet
	std    types.Importer
	byPath map[string]*Package
	byDir  map[string]*Package
}

// NewLoader returns a loader rooted at the repository root (the
// directory containing go.mod).
func NewLoader(root string) (*Loader, error) {
	module, err := moduleName(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		root:   root,
		module: module,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		byPath: map[string]*Package{},
		byDir:  map[string]*Package{},
	}, nil
}

// moduleName reads the module path from root/go.mod.
func moduleName(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("deepvet: reading go.mod: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("deepvet: no module line in %s/go.mod", root)
}

// Module returns the module path of the loaded repository.
func (l *Loader) Module() string { return l.module }

// Load type-checks the package in the directory rel (slash-separated,
// relative to the repo root; "" loads the root package). Results are
// memoized; module-internal imports are loaded recursively.
func (l *Loader) Load(rel string) (*Package, error) {
	path := l.module
	if rel != "" {
		path = l.module + "/" + rel
	}
	return l.load(path)
}

// LoadDir type-checks a single directory outside the normal module
// layout — a testdata fixture — under a pretend repo-relative path.
// Fixture imports must be resolvable (stdlib, or module packages).
func (l *Loader) LoadDir(dir, rel string) (*Package, error) {
	if p, ok := l.byDir[dir]; ok {
		return p, nil
	}
	p, err := l.check(dir, "fixture/"+rel, rel)
	if err != nil {
		return nil, err
	}
	l.byDir[dir] = p
	return p, nil
}

func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.byPath[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	p, err := l.check(dir, path, rel)
	if err != nil {
		return nil, err
	}
	l.byPath[path] = p
	return p, nil
}

// check parses and type-checks one directory.
func (l *Loader) check(dir, path, rel string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("deepvet: %v", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if isSource(e) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("deepvet: no Go sources in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("deepvet: %v", err)
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
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("deepvet: type-checking %s: %v", path, err)
	}
	return &Package{Rel: rel, Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// importPkg resolves one import: module-internal paths recurse into the
// repo tree, everything else goes to the stdlib source importer.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// packageDirs expands patterns ("./...", "internal/...", plain dirs)
// into the sorted set of repo-root-relative, slash-separated package
// directories holding non-test .go files ("" is the root package).
// The recursive forms skip testdata, hidden and underscore directories.
func packageDirs(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var rels []string
	add := func(dir string) error {
		if !hasGoSources(dir) {
			return nil
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		if rel = filepath.ToSlash(rel); rel == "." {
			rel = ""
		}
		if !seen[rel] {
			seen[rel] = true
			rels = append(rels, rel)
		}
		return nil
	}
	for _, pat := range patterns {
		pat, recursive := strings.CutSuffix(pat, "...")
		base := filepath.Join(root, filepath.FromSlash(pat))
		if !recursive {
			if err := add(base); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if name := d.Name(); path != base && (name == "testdata" || name[0] == '.' || name[0] == '_') {
				return fs.SkipDir
			}
			return add(path)
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(rels)
	return rels, nil
}
