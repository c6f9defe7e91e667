package deepvet

import (
	"go/ast"
	"go/types"
)

// poolEscapeAnalysis enforces the batch-ownership contract from both
// sides of the internal/exec boundary, for the boxed and the columnar
// record path alike.
//
// Outside internal/exec, a []any parameter is a borrowed view of an
// engine-owned group batch, and an exec.KeyCol / exec.ValCol[V]
// parameter (or a ColKeys / ColVals facade alias) is the columnar
// equivalent — a borrowed column over engine scratch. Either is
// recycled or overwritten the moment the callee returns, so the value —
// or any local alias of it — must not escape through a return, a
// channel send, a composite literal, a store into non-local memory, an
// append as a single element, a call argument, or a closure capture.
// The taint flows through assignments and re-slicing, so laundering the
// view through a local alias is still caught. Reading elements out (indexing, range, copy,
// append with ... spread) is the supported way to retain data and
// stays legal.
//
// Inside internal/exec, the hazard inverts: the engine owns pooled
// batches — *[]any boxed batches and *ColBatch[V] columnar ones — and
// hands them off via run.putBatch / colPool.put / sync.Pool.Put / a
// channel send. After any of those on some path, every later use of
// the same variable is a use-after-recycle (the batch may already be
// cleared or owned by a consumer). Reassigning the variable — including
// a fresh binding from a range over a channel or slice of batches —
// kills the consumed state.
//
// Soundness boundary: taint is tracked per named variable, not through
// the heap — a view stored into a struct field and read back is caught
// at the store (that is the finding), not at the read-back. Function
// literals are analyzed as separate functions; a capture of a tainted
// variable is flagged at the capture site rather than tracked into the
// closure. Type conversions of views to named slice types are not
// followed. Columnar types are matched by name and declaring-package
// suffix (internal/exec), so fixtures can stand in local doubles for
// the engine's unexported pool plumbing. Inside exec the consumed-set
// is a may-analysis (union join): a use after a send on *any* path is
// flagged.
func poolEscapeAnalysis() *Analysis {
	return &Analysis{
		Name: "poolescape",
		Doc:  "typed taint analysis: batch and column views must not escape; pooled batches (*[]any, *ColBatch) must not be used after recycle",
		Applies: func(rel string) bool {
			// The borrowed-view half applies everywhere outside the
			// engine; the ownership half applies inside it.
			return true
		},
		Run: eachPackage(func(p *Package) []Finding {
			if underPkg(p.Rel, "internal/exec") {
				return poolConsumeCheck(p)
			}
			return viewEscapeCheck(p)
		}),
	}
}

// ---- outside internal/exec: borrowed views must not escape ----

// viewFact is the set of variables aliasing a borrowed batch view.
type viewFact map[types.Object]bool

func (f viewFact) clone() viewFact {
	c := make(viewFact, len(f))
	for k := range f {
		c[k] = true
	}
	return c
}

type viewProblem struct {
	info   *types.Info
	params []types.Object
}

func (vp *viewProblem) Entry() Fact {
	f := viewFact{}
	for _, p := range vp.params {
		f[p] = true
	}
	return f
}

func (vp *viewProblem) Join(a, b Fact) Fact {
	fa, fb := a.(viewFact), b.(viewFact)
	out := fa.clone()
	for k := range fb {
		out[k] = true
	}
	return out
}

func (vp *viewProblem) Equal(a, b Fact) bool {
	fa, fb := a.(viewFact), b.(viewFact)
	if len(fa) != len(fb) {
		return false
	}
	for k := range fa {
		if !fb[k] {
			return false
		}
	}
	return true
}

// taintedObj resolves e to the tainted view variable it reads as a
// whole slice (re-slicing keeps the alias; indexing extracts an
// element and does not); nil when e is not a tainted whole-slice read.
func (vp *viewProblem) taintedObj(f viewFact, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			obj := identObj(vp.info, x)
			if obj != nil && f[obj] {
				return obj
			}
			return nil
		default:
			return nil
		}
	}
}

// taintedRef reports whether e reads a tainted view as a whole slice.
func (vp *viewProblem) taintedRef(f viewFact, e ast.Expr) bool {
	return vp.taintedObj(f, e) != nil
}

// viewDesc names a view's class for finding messages.
func viewDesc(t types.Type) string {
	switch execNamed(t) {
	case "KeyCol":
		return "KeyCol column view"
	case "ValCol":
		return "ValCol column view"
	}
	return "[]any batch view"
}

func (vp *viewProblem) Transfer(fact Fact, n ast.Node) Fact {
	f := fact.(viewFact)
	apply := func(lhs, rhs ast.Expr) {
		obj := identObj(vp.info, lhs)
		if obj == nil {
			return
		}
		switch {
		case rhs != nil && vp.taintedRef(f, rhs):
			f = f.clone()
			f[obj] = true
		case f[obj]:
			f = f.clone() // strong update: rebinding kills the alias
			delete(f, obj)
		}
	}
	switch st := n.(type) {
	case *ast.AssignStmt:
		if len(st.Lhs) == len(st.Rhs) {
			for i := range st.Lhs {
				apply(st.Lhs[i], st.Rhs[i])
			}
		} else {
			for _, l := range st.Lhs {
				apply(l, nil)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						apply(name, vs.Values[i])
					}
				}
			}
		}
	case *ast.RangeStmt:
		// Ranging over a view yields elements (records), never the
		// slice itself; key/value bindings are clean.
		apply(st.Key, nil)
		apply(st.Value, nil)
	}
	return f
}

// viewEscapeCheck runs the borrowed-view analysis over every function
// of a non-engine package.
func viewEscapeCheck(p *Package) []Finding {
	var fs []Finding
	report := func(pos ast.Node, what string, obj types.Object) {
		fs = append(fs, finding(p, pos.Pos(), "poolescape",
			"engine-owned %s escapes via %s; copy the records you need instead", viewDesc(obj.Type()), what))
	}
	for _, file := range p.Files {
		funcBodies(file, func(ft *ast.FuncType, body *ast.BlockStmt, _ *ast.FuncDecl) {
			var params []types.Object
			for _, field := range ft.Params.List {
				// A variadic ...any is a printf-style convenience, not an
				// engine batch view; the syntactic rule excludes it too.
				if _, variadic := field.Type.(*ast.Ellipsis); variadic {
					continue
				}
				for _, name := range field.Names {
					obj := p.Info.Defs[name]
					if obj != nil && (isAnySlice(obj.Type()) || isColView(obj.Type())) {
						params = append(params, obj)
					}
				}
			}
			if len(params) == 0 {
				return
			}
			vp := &viewProblem{info: p.Info, params: params}
			cfg := BuildCFG(body)
			ForwardEach(cfg, vp, func(n ast.Node, before Fact) {
				f := before.(viewFact)
				checkViewEscapes(p, vp, f, n, report)
			})
		})
	}
	return fs
}

// checkViewEscapes scans one CFG node for escape sinks given the fact
// holding before it.
func checkViewEscapes(p *Package, vp *viewProblem, f viewFact, n ast.Node, report func(ast.Node, string, types.Object)) {
	// Assignment sinks: storing a view anywhere but a plain local
	// variable (field, map/slice element, dereference, global).
	if st, ok := n.(*ast.AssignStmt); ok && len(st.Lhs) == len(st.Rhs) {
		for i := range st.Lhs {
			src := vp.taintedObj(f, st.Rhs[i])
			if src == nil {
				continue
			}
			lhs := ast.Unparen(st.Lhs[i])
			if id, ok := lhs.(*ast.Ident); ok {
				obj := identObj(vp.info, id)
				if v, ok := obj.(*types.Var); ok && v.Parent() == v.Pkg().Scope() {
					report(st, "store to package-level variable", src)
				}
				continue // local alias: tracked, not an escape by itself
			}
			report(st, "store to non-local memory", src)
		}
	}
	inspectShallow(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if obj := vp.taintedObj(f, res); obj != nil {
					report(res, "return", obj)
				}
			}
		case *ast.SendStmt:
			if obj := vp.taintedObj(f, x.Value); obj != nil {
				report(x, "channel send", obj)
			}
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if obj := vp.taintedObj(f, el); obj != nil {
					report(el, "composite literal", obj)
				}
			}
		case *ast.CallExpr:
			checkViewCall(vp, f, x, report)
		case *ast.FuncLit:
			// Capturing a view inside a closure defers its use past the
			// caller's control; flag the capture.
			ast.Inspect(x.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok {
					if obj := vp.info.Uses[id]; obj != nil && f[obj] {
						report(id, "closure capture", obj)
					}
				}
				return true
			})
			return false
		}
		return true
	})
}

// checkViewCall classifies one call with possibly-tainted arguments.
func checkViewCall(vp *viewProblem, f viewFact, call *ast.CallExpr, report func(ast.Node, string, types.Object)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "len", "cap", "copy", "clear":
			if _, isBuiltin := vp.info.Uses[id].(*types.Builtin); isBuiltin {
				return // reading size or copying elements out is the supported idiom
			}
		case "append":
			if _, isBuiltin := vp.info.Uses[id].(*types.Builtin); isBuiltin {
				for i, arg := range call.Args[1:] {
					obj := vp.taintedObj(f, arg)
					if obj == nil {
						continue
					}
					if call.Ellipsis.IsValid() && i == len(call.Args)-2 {
						continue // append(dst, view...) copies elements — legal
					}
					report(arg, "append as a single element", obj)
				}
				return
			}
		}
	}
	if tv, ok := vp.info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call; aliasing handled by assignment rules
	}
	for _, arg := range call.Args {
		if obj := vp.taintedObj(f, arg); obj != nil {
			report(arg, "call argument", obj)
		}
	}
}

// ---- inside internal/exec: no use after put / send ----

// consumeFact is the set of pooled-batch variables (*[]any or
// *ColBatch[V]) whose batch has been handed off (recycled or sent) on
// some path.
type consumeFact map[types.Object]bool

func (f consumeFact) clone() consumeFact {
	c := make(consumeFact, len(f))
	for k := range f {
		c[k] = true
	}
	return c
}

type consumeProblem struct {
	info *types.Info
}

func (cp *consumeProblem) Entry() Fact { return consumeFact{} }

func (cp *consumeProblem) Join(a, b Fact) Fact {
	fa, fb := a.(consumeFact), b.(consumeFact)
	out := fa.clone()
	for k := range fb {
		out[k] = true
	}
	return out
}

func (cp *consumeProblem) Equal(a, b Fact) bool {
	fa, fb := a.(consumeFact), b.(consumeFact)
	if len(fa) != len(fb) {
		return false
	}
	for k := range fa {
		if !fb[k] {
			return false
		}
	}
	return true
}

// batchObj resolves e to a pooled-batch variable — *[]any boxed or
// *ColBatch[V] columnar — nil otherwise.
func (cp *consumeProblem) batchObj(e ast.Expr) types.Object {
	obj := identObj(cp.info, e)
	if obj == nil {
		return nil
	}
	if !isBatchPtr(obj.Type()) && !isColBatchPtr(obj.Type()) {
		return nil
	}
	return obj
}

// batchDesc names a pooled batch's class for finding messages.
func batchDesc(t types.Type) string {
	if isColBatchPtr(t) {
		return "*ColBatch"
	}
	return "*[]any"
}

// consumingCall reports whether call hands its single batch argument
// off: run.putBatch(bp) / pool.Put(bp) on the boxed path,
// run.putColBatch(bp) / colPool.put(bp) on the columnar one.
func (cp *consumeProblem) consumingCall(call *ast.CallExpr) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	switch sel.Sel.Name {
	case "putBatch", "putColBatch", "put", "Put":
	default:
		return nil
	}
	return cp.batchObj(call.Args[0])
}

func (cp *consumeProblem) Transfer(fact Fact, n ast.Node) Fact {
	f := fact.(consumeFact)
	kill := func(e ast.Expr) {
		if obj := cp.batchObj(e); obj != nil && f[obj] {
			f = f.clone()
			delete(f, obj)
		}
	}
	consume := func(obj types.Object) {
		if obj != nil && !f[obj] {
			f = f.clone()
			f[obj] = true
		}
	}
	switch st := n.(type) {
	case *ast.AssignStmt:
		for _, l := range st.Lhs {
			kill(l) // rebinding replaces the consumed batch with a live one
		}
	case *ast.RangeStmt:
		// Each iteration binds a fresh batch: the element lands in
		// Value for slices but in Key for channels.
		kill(st.Key)
		kill(st.Value)
	case *ast.SendStmt:
		consume(cp.batchObj(st.Value)) // ownership transfers to the receiver
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			consume(cp.consumingCall(call))
		}
	case *ast.DeferStmt:
		// defer putBatch(bp) runs at function exit; it does not consume
		// mid-body. Nothing to do.
	}
	return f
}

// poolConsumeCheck runs the use-after-recycle analysis — covering boxed
// *[]any and columnar *ColBatch[V] batches alike — over every function
// of the engine package, plus two direct escape checks: pooled batches
// must not be stored in package-level state or returned from exported
// functions.
func poolConsumeCheck(p *Package) []Finding {
	var fs []Finding
	cp := &consumeProblem{info: p.Info}
	for _, file := range p.Files {
		funcBodies(file, func(ft *ast.FuncType, body *ast.BlockStmt, decl *ast.FuncDecl) {
			cfg := BuildCFG(body)
			ForwardEach(cfg, cp, func(n ast.Node, before Fact) {
				f := before.(consumeFact)
				if len(f) > 0 {
					fs = append(fs, consumedUses(p, cp, f, n)...)
				}
				if decl != nil && decl.Name.IsExported() {
					if ret, ok := n.(*ast.ReturnStmt); ok {
						for _, res := range ret.Results {
							if obj := cp.batchObj(res); obj != nil {
								fs = append(fs, finding(p, res.Pos(), "poolescape",
									"pooled %s batch returned from exported function; batches must stay inside internal/exec", batchDesc(obj.Type())))
							}
						}
					}
				}
			})
		})
		// Package-level stores are flow-insensitive escapes.
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.AssignStmt)
			if !ok || len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i := range st.Lhs {
				obj := cp.batchObj(st.Rhs[i])
				if obj == nil {
					continue
				}
				lobj := identObj(p.Info, st.Lhs[i])
				if v, ok := lobj.(*types.Var); ok && v.Parent() == v.Pkg().Scope() {
					fs = append(fs, finding(p, st.Pos(), "poolescape",
						"pooled %s batch stored in package-level variable; its lifetime must end at its put call", batchDesc(obj.Type())))
				}
			}
			return true
		})
	}
	return fs
}

// consumedUses reports every read of a consumed batch variable within
// node n. Assignment targets and range bindings are rebinding
// positions, not reads.
func consumedUses(p *Package, cp *consumeProblem, f consumeFact, n ast.Node) []Finding {
	rebound := map[*ast.Ident]bool{}
	markTarget := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			rebound[id] = true
		}
	}
	switch st := n.(type) {
	case *ast.AssignStmt:
		for _, l := range st.Lhs {
			markTarget(l)
		}
	case *ast.RangeStmt:
		markTarget(st.Key)
		markTarget(st.Value)
	}
	var fs []Finding
	inspectShallow(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok || rebound[id] {
			return true
		}
		obj := p.Info.Uses[id]
		if obj != nil && f[obj] {
			fs = append(fs, finding(p, id.Pos(), "poolescape",
				"batch %s used after putBatch/send recycled it on some path; the pool or the receiver owns it now", id.Name))
		}
		return true
	})
	return fs
}
