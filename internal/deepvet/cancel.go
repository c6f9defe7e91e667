package deepvet

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// cancellationAnalysis proves every goroutine the runtime packages
// spawn is drainable: a crash or cancellation elsewhere must not strand
// it blocked forever on a channel (the classic goroutine leak that
// turns one worker failure into an engine-wide hang).
//
// For each `go` statement in the spawn packages (spawnPackages in
// rules.go: internal/exec, internal/checkpoint and internal/cluster/proc
// with its netfault subpackage — the only packages the goroutine rule
// lets spawn), the analysis walks the spawned body plus every
// same-package function it (transitively) calls, and demands a
// justification for each blocking channel operation it finds:
//
//   - the operation is a comm clause of a select with a default arm, or
//     of a select that also has a receive arm from a chan struct{} (the
//     repo's cancel-channel convention, e.g. <-t.run.done);
//   - the channel is buffered: bound in the same function from
//     make(chan T, n) with a constant n > 0, or with a runtime-sized
//     capacity (trusted to be sized to its producer — the repo idiom
//     is make(chan T, len(work)) filled at most len(work) times);
//   - the channel's identity (the field or variable it lives in,
//     unwrapped through indexing and local aliases) is close()d
//     somewhere in the package, so receives and ranges terminate.
//
// Soundness boundary: justification (3) is per-identity, not per-path —
// a channel closed on one path but received forever on another is
// accepted; the rule proves drainability under the package's normal
// shutdown protocol, not under arbitrary interleavings. Calls through
// interfaces and function values are not followed (the engine's UDF
// callbacks), and sync primitives (Cond.Wait, WaitGroup.Wait) are out
// of scope — lockorder covers the mutex side.
func cancellationAnalysis() *Analysis {
	return &Analysis{
		Name:    "cancellation",
		Doc:     "every spawned goroutine is drainable: blocking channel ops have a cancel arm, buffer, or closed channel",
		Applies: func(rel string) bool { return underAnyPkg(rel, spawnPackages) },
		Run:     eachPackage(cancellationCheck),
	}
}

// blockingOp is one unjustified blocking channel operation.
type blockingOp struct {
	pos  token.Pos
	desc string
}

// funcSummary caches, per function body, its unjustified blocking ops
// and the same-package functions it calls.
type funcSummary struct {
	ops     []blockingOp
	callees []types.Object
}

// cancelChecker analyzes one package.
type cancelChecker struct {
	pkg       *Package
	closed    map[types.Object]bool // channel identities some function closes
	decls     map[types.Object]*ast.FuncDecl
	summaries map[ast.Node]*funcSummary // keyed by body
	bodies    map[types.Object]*ast.BlockStmt
}

func cancellationCheck(p *Package) []Finding {
	c := &cancelChecker{
		pkg:       p,
		closed:    map[types.Object]bool{},
		decls:     map[types.Object]*ast.FuncDecl{},
		summaries: map[ast.Node]*funcSummary{},
		bodies:    map[types.Object]*ast.BlockStmt{},
	}
	c.indexPackage()

	// Collect every go statement and chase its transitive closure.
	var fs []Finding
	reported := map[token.Pos]bool{}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			spawnPos := position(p, gs.Pos())
			for _, op := range c.goStmtOps(gs) {
				if reported[op.pos] {
					continue
				}
				reported[op.pos] = true
				fs = append(fs, finding(p, op.pos, "cancellation",
					"%s reachable from goroutine spawned at %s:%d has no cancel arm, buffer, or closed channel; a failure elsewhere strands it",
					op.desc, spawnPos.Filename, spawnPos.Line))
			}
			return true
		})
	}
	return fs
}

// indexPackage builds the closed-channel identity set and the function
// declaration index.
func (c *cancelChecker) indexPackage() {
	info := c.pkg.Info
	for _, file := range c.pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if obj := info.Defs[x.Name]; obj != nil && x.Body != nil {
					c.decls[obj] = x
					c.bodies[obj] = x.Body
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "close" && len(x.Args) == 1 {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
						for _, ident := range c.channelIdentities(x.Args[0], file) {
							c.closed[ident] = true
						}
					}
				}
			}
			return true
		})
	}
}

// channelIdentities resolves a channel expression to its identity
// object(s), following one level of local-alias provenance within the
// enclosing file: `c := ed.chans[i]; close(c)` closes the chans field.
func (c *cancelChecker) channelIdentities(e ast.Expr, file *ast.File) []types.Object {
	obj := chanIdentity(c.pkg.Info, e)
	if obj == nil {
		return nil
	}
	idents := []types.Object{obj}
	if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Parent() != v.Pkg().Scope() {
		// Local variable: add the identities it was bound from.
		for _, src := range c.localSources(obj, file) {
			idents = append(idents, src)
		}
	}
	return idents
}

// localSources finds the identity objects a local channel variable was
// assigned or ranged from anywhere in the file.
func (c *cancelChecker) localSources(local types.Object, file *ast.File) []types.Object {
	info := c.pkg.Info
	var out []types.Object
	add := func(e ast.Expr) {
		if src := chanIdentity(info, e); src != nil && src != local {
			out = append(out, src)
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, l := range st.Lhs {
				if identObj(info, l) == local && i < len(st.Rhs) {
					add(st.Rhs[i])
				}
			}
		case *ast.RangeStmt:
			if identObj(info, st.Value) == local || identObj(info, st.Key) == local {
				add(st.X)
			}
		}
		return true
	})
	return out
}

// goStmtOps returns the unjustified blocking ops reachable from one go
// statement: the spawned body's own ops plus those of every
// transitively called same-package function.
func (c *cancelChecker) goStmtOps(gs *ast.GoStmt) []blockingOp {
	var ops []blockingOp
	seen := map[types.Object]bool{}
	var chase func(s *funcSummary)
	chase = func(s *funcSummary) {
		ops = append(ops, s.ops...)
		for _, callee := range s.callees {
			if seen[callee] {
				continue
			}
			seen[callee] = true
			if body, ok := c.bodies[callee]; ok {
				chase(c.summary(body))
			}
		}
	}
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		chase(c.summary(fun.Body))
	default:
		if obj := calleeObj(c.pkg, gs.Call); obj != nil {
			if body, ok := c.bodies[obj]; ok {
				seen[obj] = true
				chase(c.summary(body))
			}
		}
	}
	return ops
}

// calleeObj resolves a direct call to a same-package function object.
func calleeObj(p *Package, call *ast.CallExpr) types.Object {
	fn := usedFunc(p.Info, call.Fun)
	if fn == nil || fn.Pkg() != p.Types {
		return nil
	}
	// A generic type's method called through an instantiation is a
	// per-instance copy; bodies are indexed by the declared method.
	return fn.Origin()
}

// summary computes (and caches) the blocking-op summary of one body.
func (c *cancelChecker) summary(body *ast.BlockStmt) *funcSummary {
	if s, ok := c.summaries[body]; ok {
		return s
	}
	s := &funcSummary{}
	c.summaries[body] = s // pre-insert: recursion terminates
	c.collectOps(body, s)
	return s
}

// collectOps walks one function body, recording unjustified blocking
// ops and same-package callees. Nested go statements and function
// literals are skipped: spawned goroutines are analyzed as their own
// roots, and a literal's ops only count if it is itself spawned or
// called (calls to literals are indirect and outside the boundary).
func (c *cancelChecker) collectOps(body *ast.BlockStmt, s *funcSummary) {
	info := c.pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			if !c.selectJustified(x) {
				s.ops = append(s.ops, blockingOp{x.Pos(), "blocking select with no default or cancel arm"})
			}
			// Clause bodies may block too; comm clauses themselves are
			// covered by the select-level verdict, so skip the comm
			// expressions but keep walking the bodies.
			for _, cl := range x.Body.List {
				if comm, ok := cl.(*ast.CommClause); ok {
					for _, st := range comm.Body {
						c.collectOps(&ast.BlockStmt{List: []ast.Stmt{st}}, s)
					}
				}
			}
			return false
		case *ast.SendStmt:
			if !c.chanJustified(x.Chan, body, false) {
				s.ops = append(s.ops, blockingOp{x.Pos(), "unbuffered channel send"})
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !c.chanJustified(x.X, body, true) {
				s.ops = append(s.ops, blockingOp{x.Pos(), "channel receive"})
			}
		case *ast.RangeStmt:
			if t, ok := info.Types[x.X]; ok {
				if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
					if !c.chanJustified(x.X, body, true) {
						s.ops = append(s.ops, blockingOp{x.Pos(), "range over channel"})
					}
					// Don't re-flag x.X's implicit receive as a UnaryExpr
					// (it isn't one), just walk the body.
				}
			}
		case *ast.CallExpr:
			if obj := calleeObj(c.pkg, x); obj != nil {
				s.callees = append(s.callees, obj)
			}
		}
		return true
	})
}

// selectJustified reports whether a select statement can always make
// progress under cancellation: it has a default clause, or at least two
// comm clauses one of which receives from a chan struct{} cancel
// channel.
func (c *cancelChecker) selectJustified(sel *ast.SelectStmt) bool {
	info := c.pkg.Info
	comms := 0
	cancelArm := false
	for _, cl := range sel.Body.List {
		comm, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		if comm.Comm == nil {
			return true // default clause: never blocks
		}
		comms++
		if recv := commReceiveChan(comm.Comm); recv != nil {
			if t, ok := info.Types[recv]; ok {
				if ch, isChan := t.Type.Underlying().(*types.Chan); isChan {
					if st, isStruct := ch.Elem().Underlying().(*types.Struct); isStruct && st.NumFields() == 0 {
						cancelArm = true
					}
					// A receive from a closed-identity channel also
					// unblocks the select.
					if obj := chanIdentity(info, recv); obj != nil && c.closed[obj] {
						cancelArm = true
					}
				}
			}
		}
	}
	return comms >= 2 && cancelArm
}

// commReceiveChan extracts the channel expression of a receive comm
// clause statement (expression or assignment form), nil for sends.
func commReceiveChan(s ast.Stmt) ast.Expr {
	var x ast.Expr
	switch st := s.(type) {
	case *ast.ExprStmt:
		x = st.X
	case *ast.AssignStmt:
		if len(st.Rhs) == 1 {
			x = st.Rhs[0]
		}
	}
	if u, ok := ast.Unparen(x).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u.X
	}
	return nil
}

// chanJustified reports whether a bare (non-select) blocking op on ch
// is safe: the channel is provably buffered, or (for receives) its
// identity is closed somewhere in the package.
func (c *cancelChecker) chanJustified(ch ast.Expr, body *ast.BlockStmt, receive bool) bool {
	if c.buffered(ch, body) {
		return true
	}
	if !receive {
		return false
	}
	info := c.pkg.Info
	obj := chanIdentity(info, ch)
	if obj == nil {
		return false
	}
	if c.closed[obj] {
		return true
	}
	// Follow local provenance: a local bound from a closed field/var.
	if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Parent() != v.Pkg().Scope() {
		for _, file := range c.pkg.Files {
			if file.Pos() <= ch.Pos() && ch.Pos() <= file.End() {
				for _, src := range c.localSources(obj, file) {
					if c.closed[src] {
						return true
					}
				}
			}
		}
	}
	return false
}

// buffered reports whether ch is bound from make(chan T, n) with
// constant n > 0 — first within the enclosing body, then anywhere in
// the package under the same identity object. The fallback covers the
// fan-in idiom where the spawning function allocates the buffered
// channel and the goroutine literal only captures it: the capture and
// the make resolve to the same *types.Var, so the match stays exact.
func (c *cancelChecker) buffered(ch ast.Expr, body *ast.BlockStmt) bool {
	info := c.pkg.Info
	obj := chanIdentity(info, ch)
	if obj == nil {
		return false
	}
	if c.bufferedIn(obj, body) {
		return true
	}
	for _, file := range c.pkg.Files {
		if c.bufferedIn(obj, file) {
			return true
		}
	}
	return false
}

// bufferedIn reports whether root contains an assignment binding obj
// from a buffered make.
func (c *cancelChecker) bufferedIn(obj types.Object, root ast.Node) bool {
	info := c.pkg.Info
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, l := range st.Lhs {
			if identObj(info, l) != obj || i >= len(st.Rhs) {
				continue
			}
			if isBufferedMake(info, st.Rhs[i]) {
				found = true
			}
		}
		return true
	})
	return found
}

// isBufferedMake reports whether e is make(chan T, n) with a capacity
// that is not provably zero: a constant n > 0, or a runtime expression
// (the repo idiom is make(chan T, len(work)) sized to its producer; a
// dynamic capacity is trusted, a literal make(chan T, 0) is not).
func isBufferedMake(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	tv, ok := info.Types[call.Args[1]]
	if !ok {
		return false
	}
	if tv.Value == nil {
		return true // runtime-sized buffer: trusted (see doc above)
	}
	n, ok := constant.Int64Val(tv.Value)
	return ok && n > 0
}
