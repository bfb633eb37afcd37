package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Effect summaries: per-function records of what a function does to
// simulation state, computed once over the callgraph and shared by the
// chargeflow and obsonly analyzers.
//
// "Simulation state" is any named type declared in the packages whose
// mutation changes a run's timing or durable image — machine, engine,
// pmem, cache, txheap. A write summary entry is a syntactic store
// (assignment, compound assignment, ++/--, or the destination of the
// copy builtin) whose target resolves to
//
//   - a field of a simulation-state type, reached through at least one
//     pointer (writes into value-typed locals are copies and stay
//     function-local, so they carry no effect), or an element of a
//     map/slice-typed field of such a type (reference semantics), or
//   - an element of a simulation-state array type reached through a
//     pointer (a page of a pmem.Image, wherever the page pointer is
//     held), or
//   - a package-level variable of any module package (global state).
//
// The summaries over-approximate in the usual static ways (no alias
// analysis: a sim-state pointer stashed in an interface and written
// elsewhere is invisible; a closure's writes charge its creator) and
// the analyzers built on them compensate by checking reachability from
// narrow, explicit entry-point sets.

// simStatePkgSuffixes are the packages whose types constitute
// simulation state for the observation-only contract.
var simStatePkgSuffixes = []string{
	"internal/machine",
	"internal/engine",
	"internal/pmem",
	"internal/cache",
	"internal/txheap",
}

func isSimStatePkg(path string) bool {
	for _, s := range simStatePkgSuffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// FieldWrite is one store into a field (or a field's map/slice
// element) of a simulation-state type.
type FieldWrite struct {
	Pos     token.Pos
	Field   *types.Var // field object; nil for whole-struct stores (*p = v)
	Desc    string     // "machine.Core.Clk"
	Element bool       // store into a map/slice element of the field
}

// GlobalWrite is one store to a module package-level variable.
type GlobalWrite struct {
	Pos  token.Pos
	Var  *types.Var
	Desc string // "trace.kindNames"
}

// FuncEffects is one function's effect summary.
type FuncEffects struct {
	// SimWrites are direct stores into simulation-state types.
	SimWrites []FieldWrite
	// GlobalWrites are direct stores to module package-level variables.
	GlobalWrites []GlobalWrite
	// TraceEmits counts Trace/Emit call sites (observability plumbing,
	// exempt from the purity rules — the tracer owns its own state).
	TraceEmits int
	// CauseRefs are the profile.Cause constants the body references.
	CauseRefs []*types.Const
	// Mutates is the transitive closure: this function or anything it
	// can call writes simulation state.
	Mutates bool
}

// Effects is the shared interprocedural analysis state: the callgraph
// plus every function's summary.
type Effects struct {
	Graph *Callgraph
	Funcs map[*types.Func]*FuncEffects
}

// Effects returns the module's callgraph and effect summaries, building
// them on first use (both module analyzers share one build, also under
// the parallel driver).
func (m *Module) Effects() *Effects {
	m.effOnce.Do(func() { m.effects = buildEffects(m) })
	return m.effects
}

func buildEffects(m *Module) *Effects {
	e := &Effects{Graph: buildCallgraph(m), Funcs: map[*types.Func]*FuncEffects{}}
	for obj, fi := range e.Graph.Funcs { //slpmt:determinism-ok: summaries land in a map keyed by object; build order is irrelevant
		e.Funcs[obj] = summarize(fi)
	}
	e.propagateMutates()
	return e
}

// summarize walks one function body (closures included — their effects
// charge the enclosing declaration) and records its direct effects.
func summarize(fi *FuncInfo) *FuncEffects {
	fe := &FuncEffects{}
	info := fi.Pkg.Info
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true // := only creates locals
			}
			for _, lhs := range n.Lhs {
				recordWrite(fe, fi, info, lhs)
			}
		case *ast.IncDecStmt:
			recordWrite(fe, fi, info, n.X)
		case *ast.CallExpr:
			if name := calleeName(n); name == "Trace" || name == "Emit" {
				fe.TraceEmits++
			}
			if isBuiltin(info, n, "copy") && len(n.Args) == 2 {
				recordWrite(fe, fi, info, n.Args[0]) // copy stores into its destination
			}
		case *ast.Ident:
			if c, ok := info.Uses[n].(*types.Const); ok && isCauseConst(c) {
				fe.CauseRefs = append(fe.CauseRefs, c)
			}
		}
		return true
	})
	return fe
}

// isCauseConst reports whether c is a constant of a named type Cause
// declared in an internal/profile package.
func isCauseConst(c *types.Const) bool {
	named, ok := c.Type().(*types.Named)
	if !ok || named.Obj().Name() != "Cause" || named.Obj().Pkg() == nil {
		return false
	}
	p := named.Obj().Pkg().Path()
	return p == "internal/profile" || strings.HasSuffix(p, "/internal/profile")
}

// recordWrite classifies one store target and records it if it hits
// simulation state or a module global.
func recordWrite(fe *FuncEffects, fi *FuncInfo, info *types.Info, lhs ast.Expr) {
	lhs = unparen(lhs)
	element := false
	// Unwrap element stores: m[k] = v, s[i] = v, and copy(s[i:], src).
	// Maps and slices have reference semantics, so an element store
	// through a field or global mutates the shared structure no matter
	// how the header was copied around.
	for {
		switch x := lhs.(type) {
		case *ast.IndexExpr:
			lhs = unparen(x.X)
			element = true
			continue
		case *ast.SliceExpr:
			lhs = unparen(x.X)
			element = true
			continue
		}
		break
	}
	// An element store through a pointer to a simulation-state array
	// type (pg[i] = b with pg a *pmem.page) writes the shared array
	// itself, whatever local the pointer sits in.
	if element {
		if pt, ok := info.TypeOf(lhs).(*types.Pointer); ok {
			if named := namedOf(pt); named != nil && named.Obj().Pkg() != nil && isSimStatePkg(named.Obj().Pkg().Path()) {
				if _, ok := named.Underlying().(*types.Array); ok {
					fe.SimWrites = append(fe.SimWrites, FieldWrite{
						Pos:     lhs.Pos(),
						Desc:    pkgBase(named.Obj().Pkg().Path()) + "." + named.Obj().Name(),
						Element: true,
					})
					return
				}
			}
		}
	}
	switch t := lhs.(type) {
	case *ast.Ident:
		if t.Name == "_" {
			return
		}
		if v, ok := info.Uses[t].(*types.Var); ok && isModuleGlobal(fi, v) {
			fe.GlobalWrites = append(fe.GlobalWrites, GlobalWrite{
				Pos: t.Pos(), Var: v, Desc: pkgBase(v.Pkg().Path()) + "." + v.Name(),
			})
		}
	case *ast.SelectorExpr:
		sel, ok := info.Selections[t]
		if !ok {
			// Qualified identifier pkg.Var.
			if v, ok := info.Uses[t.Sel].(*types.Var); ok && isModuleGlobal(fi, v) {
				fe.GlobalWrites = append(fe.GlobalWrites, GlobalWrite{
					Pos: t.Pos(), Var: v, Desc: pkgBase(v.Pkg().Path()) + "." + v.Name(),
				})
			}
			return
		}
		if sel.Kind() != types.FieldVal {
			return
		}
		field, ok := sel.Obj().(*types.Var)
		if !ok {
			return
		}
		named := namedOf(sel.Recv())
		if named == nil || named.Obj().Pkg() == nil || !isSimStatePkg(named.Obj().Pkg().Path()) {
			return
		}
		if !element && !writesThroughPointer(info, t) {
			return // store into a value-typed local copy: function-local
		}
		fe.SimWrites = append(fe.SimWrites, FieldWrite{
			Pos:   t.Pos(),
			Field: field,
			Desc:  pkgBase(named.Obj().Pkg().Path()) + "." + named.Obj().Name() + "." + field.Name(),

			Element: element,
		})
	case *ast.StarExpr:
		// *p = v: whole-struct store through a pointer.
		pt, ok := info.TypeOf(t.X).(*types.Pointer)
		if !ok {
			return
		}
		named := namedOf(pt.Elem())
		if named == nil || named.Obj().Pkg() == nil || !isSimStatePkg(named.Obj().Pkg().Path()) {
			return
		}
		fe.SimWrites = append(fe.SimWrites, FieldWrite{
			Pos:  t.Pos(),
			Desc: "*" + pkgBase(named.Obj().Pkg().Path()) + "." + named.Obj().Name(),
		})
	}
}

// isModuleGlobal reports whether v is a package-level variable of a
// module package.
func isModuleGlobal(fi *FuncInfo, v *types.Var) bool {
	if v.Pkg() == nil || v.IsField() {
		return false
	}
	mpkg := fi.Pkg
	// Module-wide: any loaded package's scope.
	for _, p := range modulePackagesOf(fi) {
		if v.Pkg() == p.Types && v.Parent() == p.Types.Scope() {
			return true
		}
	}
	_ = mpkg
	return false
}

// modulePackagesOf returns every loaded package of the function's
// module (the FuncInfo's package carries no back-pointer, so resolve
// through the shared callgraph build: all packages were registered on
// the module the pass runs over). The indirection exists for fixture
// modules, whose package set differs from the real tree's.
func modulePackagesOf(fi *FuncInfo) []*Package {
	return fi.Pkg.module.Packages
}

// writesThroughPointer reports whether the selector chain rooted at
// base reaches its field through at least one pointer (or a global
// variable): x.f with x *T, c.sh.vol with c *Core, pkgvar.f. A chain
// rooted at a value-typed local is a copy, and stores into it stay
// local.
func writesThroughPointer(info *types.Info, sel *ast.SelectorExpr) bool {
	for {
		if _, ok := info.TypeOf(sel.X).(*types.Pointer); ok {
			return true
		}
		switch x := unparen(sel.X).(type) {
		case *ast.SelectorExpr:
			sel = x
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok {
				if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					return true // package-level variable root
				}
			}
			return false
		case *ast.IndexExpr:
			return true // element of a slice/map: reference semantics
		case *ast.StarExpr:
			return true
		case *ast.CallExpr:
			return true // returned values: assume shared
		default:
			return false
		}
	}
}

// namedOf strips pointers and returns the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// propagateMutates closes Mutates over the call edges: a function
// mutates if it writes simulation state directly or can reach a module
// function that does. Globals do not count here — the obsonly pass
// reports them separately (host-side state is a different contract
// than simulation state).
func (e *Effects) propagateMutates() {
	for f, fe := range e.Funcs { //slpmt:determinism-ok: fixed-point seeding; iteration order does not change the closure
		_ = f
		fe.Mutates = len(fe.SimWrites) > 0
	}
	for changed := true; changed; {
		changed = false
		for f, fe := range e.Funcs { //slpmt:determinism-ok: monotone fixed point; order affects only iteration count
			if fe.Mutates {
				continue
			}
			for _, cs := range e.Graph.Funcs[f].Calls {
				if ce := e.Funcs[cs.Callee]; ce != nil && ce.Mutates {
					fe.Mutates = true
					changed = true
					break
				}
			}
		}
	}
}

// isBuiltin reports whether call invokes the named builtin function.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}
