// Package deepvet is the static analyzer behind optiflow-vet. It
// type-checks the repository with go/types (stdlib only — module
// packages are resolved against the repo tree, the rest compiles from
// GOROOT source) and runs each rule over the typed packages; the
// flow-sensitive rules use an in-repo CFG and forward-dataflow
// framework (cfg.go, flow.go). One rule per hazard:
//
//   - goroutine, panicprefix, determinism, globalvar (rules.go): `go`
//     statements only in the spawn packages, package-prefixed constant
//     panic messages, no wall clock or math/rand on the replay paths,
//     no mutated package-level state in internal/algo;
//   - allowlist: the package lists those rules read name only packages
//     that still exist;
//   - poolescape: engine-owned batch memory ([]any group views and
//     KeyCol/ValCol column views outside internal/exec, *[]any and
//     *ColBatch[V] pooled batches inside it) must not escape or be used
//     after its recycle point. Outside the engine a view laundered
//     through a local alias is still caught. Inside the engine it
//     enforces the DESIGN.md §2.1/§2.6 ownership rules: after
//     putBatch/putColBatch/put or a channel send hands a batch away,
//     any further use on any path is flagged.
//   - cancellation: every goroutine spawned in the spawn packages must
//     be provably drainable — each blocking channel operation reachable
//     from a `go` statement needs a cancel-capable select (default
//     clause, or a second arm receiving from a chan struct{}), a
//     provably buffered channel, or a channel some function of the
//     package closes.
//   - lockorder: the mutex-acquisition graph across internal/cluster,
//     internal/supervise and internal/checkpoint must be acyclic
//     (including through cross-package calls), locks must not be
//     re-acquired while held, and no lock may be held across a
//     blocking channel operation.
//
// Each analysis documents its soundness boundary in its own file; the
// architecture and the hazard table are in DESIGN.md §2.5 and §6.1.
package deepvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	// Pos locates the violation.
	Pos token.Position
	// Rule identifies the check ("goroutine", "poolescape", ...).
	Rule string
	// Msg describes the violation.
	Msg string
}

// String renders the finding in the file:line:col: style of go vet.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Rule, f.Msg)
}

// Analysis is one package rule.
type Analysis struct {
	// Name identifies the rule in findings and -rules filters.
	Name string
	// Doc is the one-line catalogue description.
	Doc string
	// Applies reports whether the rule inspects the package at the
	// given repo-relative path.
	Applies func(rel string) bool
	// Run inspects every applicable package (jointly, so cross-package
	// analyses like lockorder see the whole graph) and returns findings.
	Run func(pkgs []*Package) []Finding
}

// Analyses returns the package rules, in catalogue order.
func Analyses() []*Analysis {
	return []*Analysis{
		goroutineAnalysis(),
		panicPrefixAnalysis(),
		determinismAnalysis(),
		globalVarAnalysis(),
		poolEscapeAnalysis(),
		cancellationAnalysis(),
		lockOrderAnalysis(),
	}
}

// RuleInfo describes one rule for the catalogue.
type RuleInfo struct {
	// Name is the rule identifier findings carry.
	Name string
	// Doc is the one-line description.
	Doc string
}

// Rules returns the catalogue of every rule optiflow-vet runs: the
// package rules, then the allowlist validator, which reads the tree.
func Rules() []RuleInfo {
	var rules []RuleInfo
	for _, a := range Analyses() {
		rules = append(rules, RuleInfo{a.Name, a.Doc})
	}
	return append(rules, RuleInfo{"allowlist", "the package lists the rules read name only directories that still exist"})
}

// Options configure Check.
type Options struct {
	// Rules, when non-empty, restricts the run to the named rules.
	Rules []string
}

// Check runs every selected rule over the packages the patterns select
// (repo-root relative, "./..." style) and returns the findings,
// deterministically ordered.
func Check(root string, patterns []string, opts Options) ([]Finding, error) {
	selected := map[string]bool{}
	if len(opts.Rules) > 0 {
		known := map[string]bool{}
		for _, r := range Rules() {
			known[r.Name] = true
		}
		for _, name := range opts.Rules {
			if !known[name] {
				return nil, fmt.Errorf("deepvet: unknown rule %q", name)
			}
			selected[name] = true
		}
	}
	want := func(rule string) bool { return len(selected) == 0 || selected[rule] }

	var all []Finding
	if want("allowlist") {
		all = append(all, validateAllowlists(root)...)
	}
	dirs, err := packageDirs(root, patterns)
	if err != nil {
		return nil, err
	}
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	for _, a := range Analyses() {
		if !want(a.Name) {
			continue
		}
		var pkgs []*Package
		for _, rel := range dirs {
			if !a.Applies(rel) {
				continue
			}
			p, err := loader.Load(rel)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, p)
		}
		if len(pkgs) > 0 {
			all = append(all, a.Run(pkgs)...)
		}
	}
	sortFindings(all)
	return all, nil
}

// sortFindings orders findings by position, rule, then message.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// ---- shared type and AST helpers used by the analyses ----

// underPkg reports whether rel is the package p or nested below it.
func underPkg(rel, p string) bool {
	return rel == p || strings.HasPrefix(rel, p+"/")
}

// isAnySlice reports whether t is []any / []interface{}.
func isAnySlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	iface, ok := s.Elem().Underlying().(*types.Interface)
	return ok && iface.NumMethods() == 0
}

// isBatchPtr reports whether t is *[]any — the engine's pooled batch
// pointer type.
func isBatchPtr(t types.Type) bool {
	p, ok := t.Underlying().(*types.Pointer)
	return ok && isAnySlice(p.Elem())
}

// execNamed resolves t (through aliases, so the optiflow facade's
// ColKeys/ColVals names match too) to a named type declared in an
// internal/exec package — the engine itself or a fixture standing in
// for it — and returns the type's name; "" otherwise. Generic
// instantiations report their origin name, so ValCol[uint64] and
// ColBatch[float64] match like their uninstantiated forms.
func execNamed(t types.Type) string {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if p := obj.Pkg().Path(); p != "internal/exec" && !strings.HasSuffix(p, "/internal/exec") {
		return ""
	}
	return obj.Name()
}

// isColView reports whether t is a borrowed columnar view — exec.KeyCol
// or exec.ValCol[V] — the typed-path siblings of []any group views:
// both alias engine-owned scratch that is overwritten after the
// operator callback returns.
func isColView(t types.Type) bool {
	switch execNamed(t) {
	case "KeyCol", "ValCol":
		_, ok := t.Underlying().(*types.Slice)
		return ok
	}
	return false
}

// isColBatchPtr reports whether t is *exec.ColBatch[V] — a pooled
// columnar exchange batch, the typed-path sibling of the *[]any boxed
// batch, with the same ownership-transfer rules.
func isColBatchPtr(t types.Type) bool {
	p, ok := types.Unalias(t).Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	if execNamed(p.Elem()) != "ColBatch" {
		return false
	}
	_, isStruct := p.Elem().Underlying().(*types.Struct)
	return isStruct
}

// identObj resolves a (possibly parenthesized) identifier expression to
// its object; nil for anything else.
func identObj(info *types.Info, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// chanIdentity resolves a channel-valued expression to a stable
// identity object: the field it is stored in (unwrapping indexing and
// slicing), or the variable it is bound to. nil when unresolvable.
func chanIdentity(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			// A generic type's field is a distinct object per
			// instantiation; the identity is the declared field.
			if v, ok := info.Uses[x.Sel].(*types.Var); ok {
				return v.Origin()
			}
			return info.Uses[x.Sel]
		case *ast.Ident:
			return identObj(info, x)
		default:
			return nil
		}
	}
}

// position converts a token.Pos within a package to a Position.
func position(p *Package, pos token.Pos) token.Position { return p.Fset.Position(pos) }

// funcBodies yields every function body of a file — declarations and
// literals — with its type. Literals nested inside other bodies are
// yielded separately; visitors must not recurse into nested FuncLits
// themselves.
func funcBodies(f *ast.File, visit func(ft *ast.FuncType, body *ast.BlockStmt, decl *ast.FuncDecl)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				visit(fn.Type, fn.Body, fn)
			}
		case *ast.FuncLit:
			visit(fn.Type, fn.Body, nil)
		}
		return true
	})
}

// inspectShallow walks the subtree of a CFG node but does not descend
// into function literals — their bodies are separate functions analyzed
// on their own — and, when the node is a range header, not into the
// loop body either: the CFG gives body statements their own blocks, so
// descending here would visit them twice under the wrong fact.
func inspectShallow(n ast.Node, visit func(ast.Node) bool) {
	walk := func(sub ast.Node) {
		if sub == nil {
			return
		}
		ast.Inspect(sub, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok && m != n {
				visit(m)     // the literal itself is visible (capture checks)...
				return false // ...but its body is a separate function
			}
			return visit(m)
		})
	}
	if rs, ok := n.(*ast.RangeStmt); ok {
		if !visit(rs) {
			return
		}
		walk(rs.Key)
		walk(rs.Value)
		walk(rs.X)
		return
	}
	walk(n)
}
