package deepvet

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// The package-scoped rules: each states one repo convention over the
// type-checked package, resolving names through types.Info, so a
// renamed or dot import, a shadowing local or a constant message is
// seen for what it is.

// spawnPackages may contain `go` statements: the engine, the background
// checkpoint pipeline and the worker-process cluster. The goroutine
// rule forbids `go` in every other internal package, and cancellation
// proves every goroutine spawned in these drainable.
var spawnPackages = []string{"internal/exec", "internal/checkpoint", "internal/cluster/proc"}

// deterministicPackages are the replay paths: no wall-clock reads
// outside internal/clock, no math/rand.
var deterministicPackages = []string{"internal/recovery", "internal/iterate", "internal/checkpoint", "internal/supervise"}

// underAnyPkg reports whether rel is one of pkgs or nested below one.
func underAnyPkg(rel string, pkgs []string) bool {
	for _, p := range pkgs {
		if underPkg(rel, p) {
			return true
		}
	}
	return false
}

// eachPackage adapts a per-package check to Analysis.Run.
func eachPackage(check func(p *Package) []Finding) func([]*Package) []Finding {
	return func(pkgs []*Package) []Finding {
		var fs []Finding
		for _, p := range pkgs {
			fs = append(fs, check(p)...)
		}
		return fs
	}
}

// finding builds one finding at pos.
func finding(p *Package, pos token.Pos, rule, format string, args ...any) Finding {
	return Finding{Pos: position(p, pos), Rule: rule, Msg: fmt.Sprintf(format, args...)}
}

// usedFunc resolves a call target or selector — bare, dot-imported or
// package-qualified under any name — to the function it denotes.
func usedFunc(info *types.Info, e ast.Expr) *types.Func {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[x].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[x.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isPkgFunc reports whether fn is a package-level function of path
// with one of the given names.
func isPkgFunc(fn *types.Func, path string, names ...string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == path &&
		fn.Type().(*types.Signature).Recv() == nil && slices.Contains(names, fn.Name())
}

// goroutineAnalysis keeps concurrency in the spawn packages, so the
// replay paths stay single-threaded and deterministic.
func goroutineAnalysis() *Analysis {
	where := strings.Join(spawnPackages, ", ")
	return &Analysis{
		Name: "goroutine",
		Doc:  "go statements confined to " + where,
		Applies: func(rel string) bool {
			return underPkg(rel, "internal") && !underAnyPkg(rel, spawnPackages)
		},
		Run: eachPackage(func(p *Package) []Finding {
			var fs []Finding
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						fs = append(fs, finding(p, g.Pos(), "goroutine",
							"go statement outside %s; keep concurrency in the engine so replay paths stay deterministic", where))
					}
					return true
				})
			}
			return fs
		}),
	}
}

// panicPrefixAnalysis wants every panic with a constant message — a
// constant string, or the constant format of fmt.Sprintf/fmt.Errorf —
// to start with its package name, so a stack-less panic log still
// names its origin. Non-constant arguments (panic(err)) are unchecked.
func panicPrefixAnalysis() *Analysis {
	return &Analysis{
		Name:    "panicprefix",
		Doc:     "constant panic messages carry their package-name prefix",
		Applies: func(string) bool { return true },
		Run: eachPackage(func(p *Package) []Finding {
			if p.Types.Name() == "main" {
				return nil
			}
			want := p.Types.Name() + ": "
			var fs []Finding
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || len(call.Args) != 1 {
						return true
					}
					fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
					if !ok {
						return true
					}
					if b, ok := p.Info.Uses[fn].(*types.Builtin); !ok || b.Name() != "panic" {
						return true
					}
					if msg, ok := constMessage(p.Info, call.Args[0]); ok && !strings.HasPrefix(msg, want) {
						fs = append(fs, finding(p, call.Pos(), "panicprefix",
							"panic message %q must start with %q so the origin package is identifiable", msg, want))
					}
					return true
				})
			}
			return fs
		}),
	}
}

// constMessage extracts the constant string of a panic argument, or of
// the format argument of fmt.Sprintf/fmt.Errorf.
func constMessage(info *types.Info, arg ast.Expr) (string, bool) {
	if tv := info.Types[arg]; tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	call, ok := ast.Unparen(arg).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 || !isPkgFunc(usedFunc(info, call.Fun), "fmt", "Sprintf", "Errorf") {
		return "", false
	}
	return constMessage(info, call.Args[0])
}

// determinismAnalysis bans wall-clock reads and math/rand from the
// replay packages: time goes through internal/clock, randomness is
// explicit input.
func determinismAnalysis() *Analysis {
	return &Analysis{
		Name:    "determinism",
		Doc:     "replay packages read time only through internal/clock, never math/rand",
		Applies: func(rel string) bool { return underAnyPkg(rel, deterministicPackages) },
		Run: eachPackage(func(p *Package) []Finding {
			var fs []Finding
			for _, f := range p.Files {
				for _, imp := range f.Imports {
					if path, _ := strconv.Unquote(imp.Path.Value); path == "math/rand" || path == "math/rand/v2" {
						fs = append(fs, finding(p, imp.Pos(), "determinism",
							"import of %s in a deterministic replay package; take randomness as explicit input", path))
					}
				}
				ast.Inspect(f, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, _ := p.Info.Uses[id].(*types.Func); isPkgFunc(fn, "time", "Now", "Since") {
						fs = append(fs, finding(p, id.Pos(), "determinism",
							"time.%s in a deterministic replay package; use internal/clock so replays observe a controllable time source", fn.Name()))
					}
					return true
				})
			}
			return fs
		}),
	}
}

// globalVarAnalysis flags package-level vars of internal/algo packages
// that the package itself mutates — assigns, increments or takes the
// address of. Algorithm state belongs in job structs, where recovery
// can snapshot and restore it; read-only tables are fine.
func globalVarAnalysis() *Analysis {
	return &Analysis{
		Name:    "globalvar",
		Doc:     "algorithm packages declare no mutated package-level state",
		Applies: func(rel string) bool { return underPkg(rel, "internal/algo") },
		Run: eachPackage(func(p *Package) []Finding {
			// pkgVar resolves the root of an lvalue (x, x[i], x.f, *x)
			// to a package-level var of p.
			pkgVar := func(e ast.Expr) *types.Var {
				for {
					switch x := ast.Unparen(e).(type) {
					case *ast.IndexExpr:
						e = x.X
					case *ast.SelectorExpr:
						e = x.X
					case *ast.StarExpr:
						e = x.X
					case *ast.Ident:
						v, ok := p.Info.Uses[x].(*types.Var)
						if !ok || v.Parent() != p.Types.Scope() {
							return nil
						}
						return v
					default:
						return nil
					}
				}
			}
			var fs []Finding
			report := func(pos token.Pos, e ast.Expr, how string) {
				if v := pkgVar(e); v != nil {
					fs = append(fs, finding(p, pos, "globalvar",
						"package-level var %q is %s; mutable algorithm state belongs in the job struct so recovery can snapshot and restore it", v.Name(), how))
				}
			}
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch st := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range st.Lhs {
							report(st.Pos(), lhs, "assigned to")
						}
					case *ast.IncDecStmt:
						report(st.Pos(), st.X, "mutated with ++/--")
					case *ast.UnaryExpr:
						if st.Op == token.AND {
							report(st.Pos(), st.X, "having its address taken")
						}
					}
					return true
				})
			}
			return fs
		}),
	}
}

// allowlist is one hand-maintained package list a rule reads, with the
// deepvet source file that declares it.
type allowlist struct {
	name, file string
	pkgs       []string
}

// allowlists are the package lists validateAllowlists checks.
func allowlists() []allowlist {
	return []allowlist{
		{"spawnPackages", "rules.go", spawnPackages},
		{"deterministicPackages", "rules.go", deterministicPackages},
		{"lockOrderPackages", "lockorder.go", lockOrderPackages},
	}
}

// validateAllowlists cross-checks the package lists the rules read
// against the tree at root: an entry naming a directory that holds no
// Go sources is stale and silently weakens (or misdirects) its rules.
// The determinism list drifted once — internal/supervise was added
// late — so the lists are linted like everything else.
func validateAllowlists(root string) []Finding {
	var fs []Finding
	for _, l := range allowlists() {
		for _, rel := range l.pkgs {
			if !hasGoSources(filepath.Join(root, filepath.FromSlash(rel))) {
				fs = append(fs, Finding{
					Pos:  token.Position{Filename: filepath.Join(root, "internal", "deepvet", l.file)},
					Rule: "allowlist",
					Msg:  fmt.Sprintf("%s entry %q names a package that no longer exists; remove the stale entry", l.name, rel),
				})
			}
		}
	}
	return fs
}

// hasGoSources reports whether dir holds a non-test .go file; a
// missing or unreadable dir holds none.
func hasGoSources(dir string) bool {
	entries, _ := os.ReadDir(dir)
	return slices.ContainsFunc(entries, isSource)
}

// isSource reports whether a directory entry is a non-test .go file.
func isSource(e os.DirEntry) bool {
	return !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go")
}
