package deepvet

import (
	"fmt"
	"go/ast"
	"go/types"
)

// snapshotWriteAnalysis protects the copy-on-write snapshot contract in
// internal/state. SnapshotShared hands the barrier a zero-copy capture
// by marking every partition map shared; any later in-place mutation of
// a shared partition would silently corrupt the checkpoint being
// written from it. The store's discipline is unshare-on-write: every
// entry-level mutation of s.parts[p] — s.parts[p][k] = v or
// delete(s.parts[p], k), directly or through a local alias of the
// partition map — must be dominated by one of the sanitizers for the
// same partition index:
//
//   - s.unshare(p): the clone-if-shared helper;
//   - s.parts[p] = <fresh map>: wholesale replacement;
//   - s.shared[p] = false: an explicit unshare marker.
//
// The analysis runs a must-dominate dataflow (intersection join) over
// every method whose receiver type carries both `parts` and `shared`
// fields, tracking the set of partition-index variables sanitized on
// all paths. Rebinding the index variable (including by a range loop
// header) invalidates its sanitized status.
//
// Soundness boundary: only writes rooted at the method receiver are
// checked; stores built locally from scratch (NewStore inside
// Snapshot) are fresh by construction and exempt. Partition indices
// must be plain variables — a write indexed by an arbitrary expression
// is flagged as unprovable rather than traced. Aliases of partition
// maps are tracked one level deep (m := s.parts[p]; m[k] = v) and
// inherit the sanitized status the index had at the aliasing point.
func snapshotWriteAnalysis() *Analysis {
	return &Analysis{
		Name:    "snapshotwrite",
		Doc:     "copy-on-write discipline: partition writes after SnapshotShared are dominated by unshare helpers",
		Applies: func(rel string) bool { return underPkg(rel, "internal/state") },
		Run:     eachPackage(snapshotCheck),
	}
}

// snapFact tracks, on all paths, which partition-index variables have
// been sanitized and which local variables alias a sanitized (true) or
// unsanitized (false) partition map. A nil snapFact is the "unvisited"
// top element.
type snapFact struct {
	sanitized map[types.Object]bool // index vars proven unshared
	aliases   map[types.Object]bool // partition-map aliases → sanitized at bind time
}

func (f *snapFact) clone() *snapFact {
	c := &snapFact{sanitized: map[types.Object]bool{}, aliases: map[types.Object]bool{}}
	for k := range f.sanitized {
		c.sanitized[k] = true
	}
	for k, v := range f.aliases {
		c.aliases[k] = v
	}
	return c
}

type snapProblem struct {
	info *types.Info
	recv types.Object // the method receiver (a *Store[...])
}

func (sp *snapProblem) Entry() Fact {
	return &snapFact{sanitized: map[types.Object]bool{}, aliases: map[types.Object]bool{}}
}

// Join intersects: a partition is sanitized only if every incoming path
// sanitized it.
func (sp *snapProblem) Join(a, b Fact) Fact {
	fa, fb := a.(*snapFact), b.(*snapFact)
	out := &snapFact{sanitized: map[types.Object]bool{}, aliases: map[types.Object]bool{}}
	for k := range fa.sanitized {
		if fb.sanitized[k] {
			out.sanitized[k] = true
		}
	}
	for k, v := range fa.aliases {
		if bv, ok := fb.aliases[k]; ok {
			out.aliases[k] = v && bv
		}
	}
	return out
}

func (sp *snapProblem) Equal(a, b Fact) bool {
	fa, fb := a.(*snapFact), b.(*snapFact)
	if len(fa.sanitized) != len(fb.sanitized) || len(fa.aliases) != len(fb.aliases) {
		return false
	}
	for k := range fa.sanitized {
		if !fb.sanitized[k] {
			return false
		}
	}
	for k, v := range fa.aliases {
		if bv, ok := fb.aliases[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// recvParts matches e against <recv>.parts[idx] and returns the index
// expression, or nil.
func (sp *snapProblem) recvParts(e ast.Expr) ast.Expr {
	ix, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return nil
	}
	sel, ok := ast.Unparen(ix.X).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "parts" {
		return nil
	}
	if identObj(sp.info, sel.X) != sp.recv {
		return nil
	}
	return ix.Index
}

// recvSharedIndex matches e against <recv>.shared[idx].
func (sp *snapProblem) recvSharedIndex(e ast.Expr) ast.Expr {
	ix, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return nil
	}
	sel, ok := ast.Unparen(ix.X).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "shared" {
		return nil
	}
	if identObj(sp.info, sel.X) != sp.recv {
		return nil
	}
	return ix.Index
}

func (sp *snapProblem) Transfer(fact Fact, n ast.Node) Fact {
	f := fact.(*snapFact).clone()
	sanitize := func(idx ast.Expr) {
		if obj := identObj(sp.info, idx); obj != nil {
			f.sanitized[obj] = true
		}
	}
	invalidate := func(e ast.Expr) {
		obj := identObj(sp.info, e)
		if obj == nil {
			return
		}
		delete(f.sanitized, obj)
		delete(f.aliases, obj)
	}
	switch st := n.(type) {
	case *ast.AssignStmt:
		for i, l := range st.Lhs {
			var rhs ast.Expr
			if len(st.Lhs) == len(st.Rhs) {
				rhs = st.Rhs[i]
			}
			if idx := sp.recvParts(l); idx != nil {
				sanitize(idx) // wholesale replacement of s.parts[p]
				continue
			}
			if idx := sp.recvSharedIndex(l); idx != nil {
				// s.shared[p] = false marks the partition private again.
				if lit, ok := rhs.(*ast.Ident); ok && lit.Name == "false" {
					sanitize(idx)
				}
				continue
			}
			// Binding a local to s.parts[p] creates a partition-map
			// alias carrying the current sanitized status of p.
			if rhs != nil {
				if idx := sp.recvParts(rhs); idx != nil {
					if lobj := identObj(sp.info, l); lobj != nil {
						iobj := identObj(sp.info, idx)
						f.aliases[lobj] = iobj != nil && f.sanitized[iobj]
						continue
					}
				}
			}
			invalidate(l) // any other rebinding drops what we knew
		}
	case *ast.RangeStmt:
		invalidate(st.Key)
		invalidate(st.Value)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "unshare" &&
				identObj(sp.info, sel.X) == sp.recv && len(call.Args) == 1 {
				sanitize(call.Args[0])
			}
		}
	}
	return f
}

// snapshotCheck runs the analysis over every method of every
// copy-on-write store type in the package.
func snapshotCheck(p *Package) []Finding {
	var fs []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || len(fd.Recv.List) == 0 {
				return true
			}
			names := fd.Recv.List[0].Names
			if len(names) == 0 {
				return true
			}
			recv := p.Info.Defs[names[0]]
			if recv == nil || !isCowStore(recv.Type()) {
				return true
			}
			sp := &snapProblem{info: p.Info, recv: recv}
			cfg := BuildCFG(fd.Body)
			ForwardEach(cfg, sp, func(n ast.Node, before Fact) {
				fs = append(fs, snapshotViolations(p, sp, before.(*snapFact), n)...)
			})
			return true
		})
	}
	return fs
}

// isCowStore reports whether t (or its pointee) is a struct with both
// `parts` and `shared` fields — the copy-on-write store shape.
func isCowStore(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	var hasParts, hasShared bool
	for i := 0; i < st.NumFields(); i++ {
		switch st.Field(i).Name() {
		case "parts":
			hasParts = true
		case "shared":
			hasShared = true
		}
	}
	return hasParts && hasShared
}

// snapshotViolations reports entry-level writes to receiver partitions
// that the incoming fact does not prove sanitized.
func snapshotViolations(p *Package, sp *snapProblem, f *snapFact, n ast.Node) []Finding {
	var fs []Finding
	flag := func(pos ast.Node, detail string) {
		fs = append(fs, finding(p, pos.Pos(), "snapshotwrite",
			"partition write %s is not dominated by unshare/replacement; a SnapshotShared capture could observe it", detail))
	}
	// provenMap matches e against a partition-map expression
	// (<recv>.parts[idx] or a tracked alias) and reports whether
	// mutating through it is proven safe; matched is false otherwise.
	provenMap := func(e ast.Expr) (matched, proven bool, detail string) {
		if idx := sp.recvParts(e); idx != nil {
			obj := identObj(sp.info, idx)
			if obj == nil {
				return true, false, "with a non-variable partition index"
			}
			return true, f.sanitized[obj], fmt.Sprintf("to partition index %q", obj.Name())
		}
		if obj := identObj(sp.info, e); obj != nil {
			if sanitized, isAlias := f.aliases[obj]; isAlias {
				return true, sanitized, fmt.Sprintf("through alias %q", obj.Name())
			}
		}
		return false, false, ""
	}
	// provenEntry matches an entry-level lvalue (map[k] for a matched
	// partition map).
	provenEntry := func(e ast.Expr) (matched, proven bool, detail string) {
		ix, ok := ast.Unparen(e).(*ast.IndexExpr)
		if !ok {
			return false, false, ""
		}
		return provenMap(ix.X)
	}
	inspectShallow(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				if matched, proven, detail := provenEntry(l); matched && !proven {
					flag(l, detail)
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "delete" && len(x.Args) == 2 {
				if _, isBuiltin := sp.info.Uses[id].(*types.Builtin); isBuiltin {
					if matched, proven, detail := provenMap(x.Args[0]); matched && !proven {
						flag(x, detail)
					}
				}
			}
		}
		return true
	})
	return fs
}
