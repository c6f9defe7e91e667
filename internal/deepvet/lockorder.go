package deepvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockOrderAnalysis builds the mutex-acquisition graph across the
// coordination packages — internal/cluster, internal/supervise and
// internal/checkpoint — jointly, so a lock taken in one package while
// calling into another still contributes an ordering edge. It reports:
//
//   - acquisition cycles: lock A held while taking B somewhere, B held
//     while taking A elsewhere (a latent deadlock the race detector
//     only sees if the interleaving actually happens);
//   - re-acquisition: taking a mutex already held on the same path
//     (immediate self-deadlock with sync.Mutex);
//   - a lock held across a blocking channel operation (send, receive,
//     range, or a select without a default clause), directly or through
//     a callee in the analyzed set — the pattern that turns one stalled
//     consumer into a pile-up behind the mutex.
//
// Lock identity is the mutex's home: the struct field it is declared in
// (so every instance of a type shares one graph node, which is what
// ordering is about) or the package-level/local variable holding it.
// The held-set is a may-analysis (union join): an edge or a
// channel-op-under-lock on any path counts. sync.Cond.Wait is exempt —
// it releases its mutex while blocked.
//
// Soundness boundary: calls through interfaces and function values are
// not followed (policy hooks, UDF callbacks), and a mutex passed by
// pointer to a helper is tracked by the helper's own view of it, not
// unified with the caller's instance. defer Unlock keeps the lock held
// to function exit, which is exactly the truth the analysis needs.
func lockOrderAnalysis() *Analysis {
	return &Analysis{
		Name:    "lockorder",
		Doc:     "mutex acquisition graph is acyclic; no re-lock; no lock held across blocking channel ops",
		Applies: func(rel string) bool { return underAnyPkg(rel, lockOrderPackages) },
		Run:     lockOrderCheck,
	}
}

// lockOrderPackages are the packages whose mutexes form one
// acquisition graph.
var lockOrderPackages = []string{"internal/cluster", "internal/supervise", "internal/checkpoint"}

// lockID identifies one mutex node in the acquisition graph.
type lockID struct {
	obj types.Object // field var or variable holding the mutex
}

func (l lockID) name() string {
	if v, ok := l.obj.(*types.Var); ok && v.IsField() {
		return fieldOwner(v) + "." + v.Name()
	}
	return l.obj.Pkg().Name() + "." + l.obj.Name()
}

// fieldOwner renders pkg.Type for a struct field by scanning the
// package scope for the named type declaring it.
func fieldOwner(f *types.Var) string {
	pkg := f.Pkg()
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == f {
				return pkg.Name() + "." + name
			}
		}
	}
	return pkg.Name()
}

// lockEdge is one observed ordering: from held while acquiring to.
type lockEdge struct {
	from, to lockID
	pos      token.Pos
	pkg      *Package
}

// lockSummary is the transitive effect of calling a function: the locks
// it may acquire and whether it may block on a channel.
type lockSummary struct {
	acquires map[lockID]bool
	blocks   bool
	blockPos token.Pos
}

// lockChecker analyzes the joint package set.
type lockChecker struct {
	pkgs      map[*types.Package]*Package
	bodies    map[types.Object]*ast.FuncDecl
	bodyPkg   map[types.Object]*Package
	summaries map[types.Object]*lockSummary
	edges     []lockEdge
	findings  []Finding
	reported  map[string]bool
}

func lockOrderCheck(ps []*Package) []Finding {
	c := &lockChecker{
		pkgs:      map[*types.Package]*Package{},
		bodies:    map[types.Object]*ast.FuncDecl{},
		bodyPkg:   map[types.Object]*Package{},
		summaries: map[types.Object]*lockSummary{},
		reported:  map[string]bool{},
	}
	for _, p := range ps {
		c.pkgs[p.Types] = p
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj := p.Info.Defs[fd.Name]; obj != nil {
					c.bodies[obj] = fd
					c.bodyPkg[obj] = p
				}
			}
		}
	}
	// Analyze every function as a root with an empty held-set; edges
	// and findings accumulate globally.
	objs := make([]types.Object, 0, len(c.bodies))
	for obj := range c.bodies {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool {
		pi := c.bodyPkg[objs[i]].Fset.Position(c.bodies[objs[i]].Pos())
		pj := c.bodyPkg[objs[j]].Fset.Position(c.bodies[objs[j]].Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
	for _, obj := range objs {
		c.analyzeFunc(obj)
	}
	// Function literals (goroutine bodies, callbacks) are roots of
	// their own: they start with an empty held-set, but their internal
	// acquisitions still contribute ordering edges.
	for _, p := range ps {
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					c.analyzeBody(p, lit.Body)
				}
				return true
			})
		}
	}
	c.findCycles()
	return c.findings
}

// ---- per-function dataflow ----

// heldFact is the may-held lock set, kept sorted for cheap equality.
type heldFact []lockID

func (h heldFact) has(id lockID) bool {
	for _, x := range h {
		if x == id {
			return true
		}
	}
	return false
}

func (h heldFact) with(id lockID) heldFact {
	if h.has(id) {
		return h
	}
	out := append(heldFact{}, h...)
	out = append(out, id)
	sort.Slice(out, func(i, j int) bool { return lockLess(out[i], out[j]) })
	return out
}

func (h heldFact) without(id lockID) heldFact {
	out := make(heldFact, 0, len(h))
	for _, x := range h {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

func lockLess(a, b lockID) bool {
	if a.obj.Pos() != b.obj.Pos() {
		return a.obj.Pos() < b.obj.Pos()
	}
	return a.name() < b.name()
}

type lockProblem struct {
	c   *lockChecker
	pkg *Package
	// commOf maps a comm-clause statement to its enclosing select: the
	// CFG decomposes selects into clause nodes, so blocking-op checks
	// must judge a comm op by its select (default arm = non-blocking),
	// not as a bare send/receive.
	commOf map[ast.Node]*ast.SelectStmt
}

// indexComms records every comm statement's enclosing select.
func (lp *lockProblem) indexComms(body *ast.BlockStmt) {
	lp.commOf = map[ast.Node]*ast.SelectStmt{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, cl := range sel.Body.List {
			if comm, okc := cl.(*ast.CommClause); okc && comm.Comm != nil {
				lp.commOf[comm.Comm] = sel
			}
		}
		return true
	})
}

func (lp *lockProblem) Entry() Fact { return heldFact{} }

func (lp *lockProblem) Join(a, b Fact) Fact {
	fa, fb := a.(heldFact), b.(heldFact)
	out := fa
	for _, id := range fb {
		out = out.with(id)
	}
	return out
}

func (lp *lockProblem) Equal(a, b Fact) bool {
	fa, fb := a.(heldFact), b.(heldFact)
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if fa[i] != fb[i] {
			return false
		}
	}
	return true
}

// mutexCall matches E.Lock()/RLock()/Unlock()/RUnlock() on a
// sync.Mutex or sync.RWMutex and returns the lock identity and whether
// it acquires.
func (lp *lockProblem) mutexCall(call *ast.CallExpr) (id lockID, acquire bool, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return lockID{}, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return lockID{}, false, false
	}
	if !isSyncMutex(lp.pkg.Info, sel.X) {
		return lockID{}, false, false
	}
	obj := chanIdentity(lp.pkg.Info, sel.X)
	if obj == nil {
		return lockID{}, false, false
	}
	return lockID{obj: obj}, acquire, true
}

// isSyncMutex reports whether e's type is sync.Mutex/RWMutex (possibly
// behind a pointer).
func isSyncMutex(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	t := tv.Type
	if p, okp := t.Underlying().(*types.Pointer); okp {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func (lp *lockProblem) Transfer(fact Fact, n ast.Node) Fact {
	f := fact.(heldFact)
	var apply func(n ast.Node) bool
	apply = func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.DeferStmt:
			// defer mu.Unlock(): released at exit, held until then.
			return false
		case *ast.GoStmt:
			// The spawned body runs on its own stack with its own
			// (empty) held-set; it is analyzed as a separate root.
			return false
		case *ast.CallExpr:
			if id, acquire, ok := lp.mutexCall(x); ok {
				if acquire {
					for _, held := range f {
						lp.c.edges = append(lp.c.edges, lockEdge{from: held, to: id, pos: x.Pos(), pkg: lp.pkg})
					}
					if f.has(id) {
						lp.c.report(lp.pkg, x.Pos(), fmt.Sprintf("mutex %s acquired while already held on this path (self-deadlock)", id.name()))
					}
					f = f.with(id)
				} else {
					f = f.without(id)
				}
				return false
			}
			// Calls into the analyzed set contribute their acquired
			// locks as edges (and their held-set effect is transient:
			// well-formed callees release what they take or defer it).
			if obj := lp.calleeInSet(x); obj != nil && len(f) > 0 {
				sum := lp.c.summarize(obj)
				for to := range sum.acquires {
					for _, held := range f {
						lp.c.edges = append(lp.c.edges, lockEdge{from: held, to: to, pos: x.Pos(), pkg: lp.pkg})
					}
				}
			}
		case *ast.FuncLit:
			return false
		}
		return true
	}
	if _, isLit := n.(*ast.FuncLit); !isLit {
		ast.Inspect(n, apply)
	}
	return f
}

// calleeInSet resolves a direct call to a function declared in one of
// the analyzed packages.
func (lp *lockProblem) calleeInSet(call *ast.CallExpr) types.Object {
	fn := usedFunc(lp.pkg.Info, call.Fun)
	if _, inSet := lp.c.bodies[fn]; fn == nil || !inSet {
		return nil
	}
	return fn
}

// analyzeFunc runs the held-set dataflow over one function, recording
// edges (via Transfer) and channel-op-under-lock findings.
func (c *lockChecker) analyzeFunc(obj types.Object) {
	c.analyzeBody(c.bodyPkg[obj], c.bodies[obj].Body)
}

// analyzeBody runs the held-set dataflow over one function body.
func (c *lockChecker) analyzeBody(p *Package, body *ast.BlockStmt) {
	lp := &lockProblem{c: c, pkg: p}
	lp.indexComms(body)
	cfg := BuildCFG(body)
	flaggedSelects := map[*ast.SelectStmt]bool{}
	ForwardEach(cfg, lp, func(n ast.Node, before Fact) {
		held := before.(heldFact)
		if len(held) == 0 {
			return
		}
		if sel, isComm := lp.commOf[n]; isComm {
			if !hasDefaultComm(sel) && !flaggedSelects[sel] {
				flaggedSelects[sel] = true
				names := make([]string, len(held))
				for i, id := range held {
					names[i] = id.name()
				}
				c.report(p, sel.Pos(), fmt.Sprintf(
					"blocking select while holding %s; a slow peer stalls every waiter on the mutex",
					strings.Join(names, ", ")))
			}
			return
		}
		c.checkBlockingUnderLock(lp, held, n)
	})
}

// checkBlockingUnderLock flags blocking channel operations (and calls
// to functions that may block) while locks are held.
func (c *lockChecker) checkBlockingUnderLock(lp *lockProblem, held heldFact, n ast.Node) {
	p := lp.pkg
	names := make([]string, len(held))
	for i, id := range held {
		names[i] = id.name()
	}
	holding := strings.Join(names, ", ")
	flag := func(pos token.Pos, what string) {
		c.report(p, pos, fmt.Sprintf("%s while holding %s; a slow peer stalls every waiter on the mutex", what, holding))
	}
	inspectShallow(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.GoStmt:
			return false // spawning never blocks the caller
		case *ast.SendStmt:
			flag(x.Pos(), "channel send")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				flag(x.Pos(), "channel receive")
			}
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					flag(x.Pos(), "range over channel")
				}
			}
			// Only the header belongs to this CFG node; the body is in
			// its own blocks with its own incoming fact.
			return false
		case *ast.CallExpr:
			if isCondWait(p.Info, x) {
				return false // Cond.Wait releases the mutex while blocked
			}
			if obj := lp.calleeInSet(x); obj != nil {
				sum := c.summarize(obj)
				if sum.blocks {
					flag(x.Pos(), fmt.Sprintf("call to %s (which may block on a channel)", obj.Name()))
				}
			}
		}
		return true
	})
}

// isCondWait matches c.Wait() on a *sync.Cond.
func isCondWait(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if p, okp := t.Underlying().(*types.Pointer); okp {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Cond"
}

// hasDefaultComm reports whether a select has a default clause.
func hasDefaultComm(sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		if comm, ok := cl.(*ast.CommClause); ok && comm.Comm == nil {
			return true
		}
	}
	return false
}

// summarize computes the transitive may-acquire / may-block summary of
// one function in the analyzed set.
func (c *lockChecker) summarize(obj types.Object) *lockSummary {
	if s, ok := c.summaries[obj]; ok {
		return s
	}
	s := &lockSummary{acquires: map[lockID]bool{}}
	c.summaries[obj] = s // pre-insert: recursion terminates
	fd := c.bodies[obj]
	p := c.bodyPkg[obj]
	lp := &lockProblem{c: c, pkg: p}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false // spawned/stored bodies run on their own stack
		case *ast.SelectStmt:
			if !hasDefaultComm(x) {
				s.blocks = true
				s.blockPos = x.Pos()
			}
			// Comm ops are judged by the select verdict above; only the
			// clause bodies can block independently.
			for _, cl := range x.Body.List {
				if comm, ok := cl.(*ast.CommClause); ok {
					for _, st := range comm.Body {
						ast.Inspect(st, visit)
					}
				}
			}
			return false
		case *ast.SendStmt:
			s.blocks = true
			s.blockPos = x.Pos()
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				s.blocks = true
				s.blockPos = x.Pos()
			}
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					s.blocks = true
					s.blockPos = x.Pos()
				}
			}
		case *ast.CallExpr:
			if isCondWait(p.Info, x) {
				return false
			}
			if id, acquire, ok := lp.mutexCall(x); ok {
				if acquire {
					s.acquires[id] = true
				}
				return false
			}
			if callee := lp.calleeInSet(x); callee != nil {
				sub := c.summarize(callee)
				for id := range sub.acquires {
					s.acquires[id] = true
				}
				if sub.blocks {
					s.blocks = true
					s.blockPos = x.Pos()
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
	return s
}

func (c *lockChecker) report(p *Package, pos token.Pos, msg string) {
	// Transfer runs both during the worklist fixpoint and the replay
	// pass (and possibly several times per node inside loops), so
	// findings it emits must be deduplicated by site and message.
	f := Finding{Pos: position(p, pos), Rule: "lockorder", Msg: msg}
	key := f.String()
	if c.reported[key] {
		return
	}
	c.reported[key] = true
	c.findings = append(c.findings, f)
}

// findCycles detects cycles in the aggregated acquisition graph and
// reports one finding per cycle, anchored at the edge that closes it.
func (c *lockChecker) findCycles() {
	adj := map[lockID][]lockEdge{}
	for _, e := range c.edges {
		if e.from == e.to {
			continue // re-lock already reported by the dataflow pass
		}
		adj[e.from] = append(adj[e.from], e)
	}
	nodes := make([]lockID, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return lockLess(nodes[i], nodes[j]) })

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[lockID]int{}
	var stack []lockEdge
	reported := map[string]bool{}
	var visit func(n lockID)
	visit = func(n lockID) {
		color[n] = gray
		for _, e := range adj[n] {
			switch color[e.to] {
			case white:
				stack = append(stack, e)
				visit(e.to)
				stack = stack[:len(stack)-1]
			case gray:
				// Found a cycle: the suffix of stack from e.to, plus e.
				var cyc []lockEdge
				for i := range stack {
					if stack[i].from == e.to {
						cyc = append([]lockEdge{}, stack[i:]...)
						break
					}
				}
				cyc = append(cyc, e)
				names := make([]string, 0, len(cyc))
				for _, ce := range cyc {
					names = append(names, ce.from.name())
				}
				key := strings.Join(names, "→")
				if !reported[key] {
					reported[key] = true
					c.report(e.pkg, e.pos, fmt.Sprintf(
						"lock acquisition cycle %s → %s; opposite orders deadlock under contention",
						strings.Join(names, " → "), names[0]))
				}
			}
		}
		color[n] = black
	}
	for _, n := range nodes {
		if color[n] == white {
			visit(n)
		}
	}
}
