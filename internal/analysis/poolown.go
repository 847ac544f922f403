package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// PoolOwn tracks pooled-buffer ownership through the CFG. The World's
// buffer pool hands out slices under a strict protocol — Recv/Scratch
// return a buffer the caller owns, Release/sendOwned end that
// ownership, and touching a buffer afterwards aliases memory the pool
// may already have handed to another rank. The analyzer runs a forward
// may-dataflow over each function body: every variable assigned from
// an acquire call is tracked through the states owned → released/moved,
// joined by union at control-flow merges, and the five defect shapes
// report where the protocol breaks:
//
//   - use after Release (the buffer may belong to someone else),
//   - double Release (poisons the pool's free list),
//   - leak: still owned at a return or explicit panic edge, with
//     `defer Release` recognized as covering both,
//   - storing an owned buffer into a field, global, slice/map element,
//     channel send, or composite literal (ownership escapes the
//     tracking horizon — annotate where the transfer is intentional),
//   - sendOwned of a buffer the caller no longer owns.
//
// Acquire/release seeds are the comm.Proc API (Recv, RecvMeta,
// Scratch, ScratchMeta, SendRecv, SendRecvMeta / Release, ReleaseMeta,
// sendOwned) and the pool fast paths (bufPool.getF32/getF64 /
// putF32/putF64), plus package-local helpers inferred to return an
// owned buffer: a function whose single []float32/[]float64 result is,
// on every return path, a freshly acquired or still-owned buffer
// transfers ownership to its caller, so its call sites are acquires
// too (the collective.recvNew idiom).
//
// A RecvLent result is borrowed rather than owned: it is the lender's
// own memory, so it must never reach the pool and must not outlive the
// exchange. Passing it to Release or sendOwned, or storing it into a
// field, global, slice/map element, channel send or composite literal,
// is a finding; dropping it is not a leak.
//
// Known blind spots, chosen over false positives: aliasing (`y := x`)
// and closure capture untrack the buffer, and a buffer passed to an
// ordinary function call is assumed consumed by the callee.
// Intentional protocol departures carry `//adasum:poolown ok <reason>`.
var PoolOwn = &Analyzer{
	Name:        "poolown",
	Doc:         "tracks pooled-buffer ownership (acquire→use→release) through the CFG",
	SuppressKey: "poolown",
	DetOnly:     true,
	Run:         runPoolOwn,
}

// ownBits is a variable's may-state: bits accumulate across joins, and
// within one path an acquire/release/move replaces the ownership bits
// while the sticky ownDeferred survives.
type ownBits uint8

const (
	ownOwned ownBits = 1 << iota
	// ownDeferred: a `defer Release(x)` is scheduled, satisfying every
	// later exit, normal or panicking.
	ownDeferred
	ownReleased
	ownMoved
	// ownBorrowed: the variable holds a RecvLent result — the lender's
	// memory, which is never released, sent on or stored.
	ownBorrowed
)

type ownState map[*types.Var]ownBits

func cloneState(st ownState) ownState {
	out := make(ownState, len(st))
	for v, b := range st {
		out[v] = b
	}
	return out
}

// joinInto unions src into dst, reporting whether dst changed.
func joinInto(dst, src ownState) bool {
	changed := false
	for v, b := range src {
		if dst[v]|b != dst[v] {
			dst[v] |= b
			changed = true
		}
	}
	return changed
}

type poolEffKind int

const (
	effAcquire poolEffKind = iota
	effRelease
	effMove
	effBorrow
)

type poolEffect struct {
	kind poolEffKind
	arg  int // buffer argument index for effRelease/effMove
}

func runPoolOwn(pass *Pass) error {
	a := &poolOwnPkg{pass: pass, inferred: make(map[*types.Func]bool)}
	var fns []*poolFn
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fns = append(fns, &poolFn{
				a:      a,
				fd:     fd,
				cfg:    BuildCFG(fd.Body, pass.Info),
				fnName: fd.Name.Name,
			})
		}
	}

	// Infer package-local acquire helpers to a fixpoint: recognizing
	// one returns-owned helper can qualify another that forwards it.
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			obj, ok := pass.Info.Defs[f.fd.Name].(*types.Func)
			if !ok || a.inferred[obj] || !ownedResultSig(obj) {
				continue
			}
			returns, owned := 0, 0
			f.analyze(nil, func(ret *ast.ReturnStmt, ok bool) {
				returns++
				if ok {
					owned++
				}
			})
			if returns > 0 && returns == owned {
				a.inferred[obj] = true
				changed = true
			}
		}
	}

	for _, f := range fns {
		f.analyze(f.reportf, nil)
	}
	return nil
}

// ownedResultSig reports whether fn has exactly one result of type
// []float32 or []float64 — the only shape the returns-owned inference
// considers.
func ownedResultSig(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	sl, ok := sig.Results().At(0).Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Float32 || b.Kind() == types.Float64)
}

type poolOwnPkg struct {
	pass     *Pass
	inferred map[*types.Func]bool
}

// isCommPath matches the package that defines the pool protocol — and
// its fixture stand-ins, which share the import-path suffix.
func isCommPath(path string) bool {
	return path == "internal/comm" || strings.HasSuffix(path, "/internal/comm")
}

// seedEffect classifies call against the pool protocol.
func (a *poolOwnPkg) seedEffect(call *ast.CallExpr) (poolEffect, bool) {
	site, ok := classifyCall(a.pass.Info, call)
	if !ok || site.kind != callStatic {
		return poolEffect{}, false
	}
	fn := site.callee
	if a.inferred[fn] || a.inferred[fn.Origin()] {
		return poolEffect{kind: effAcquire}, true
	}
	if fn.Pkg() == nil || !isCommPath(fn.Pkg().Path()) {
		return poolEffect{}, false
	}
	switch recvTypeName(fn) {
	case "Proc":
		switch fn.Name() {
		case "Recv", "RecvMeta", "Scratch", "ScratchMeta", "SendRecv", "SendRecvMeta":
			return poolEffect{kind: effAcquire}, true
		case "Release", "ReleaseMeta":
			return poolEffect{kind: effRelease, arg: 0}, true
		case "sendOwned":
			return poolEffect{kind: effMove, arg: 1}, true
		case "RecvLent":
			return poolEffect{kind: effBorrow}, true
		}
	case "bufPool":
		switch fn.Name() {
		case "getF32", "getF64":
			return poolEffect{kind: effAcquire}, true
		case "putF32", "putF64":
			return poolEffect{kind: effRelease, arg: 1}, true
		}
	}
	return poolEffect{}, false
}

// recvTypeName returns the name of fn's receiver named type, or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	if named, ok := rt.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// poolFn is the dataflow over one function body.
type poolFn struct {
	a      *poolOwnPkg
	fd     *ast.FuncDecl
	cfg    *CFG
	fnName string
}

type reporter func(pos token.Pos, format string, args ...any)

func (f *poolFn) reportf(pos token.Pos, format string, args ...any) {
	f.a.pass.Reportf(pos, format, args...)
}

// analyze runs the fixpoint and then one stable sweep: rep (may be
// nil) receives defects, onReturn (may be nil) is the returns-owned
// inference hook, told for each single-result return whether the value
// carries ownership out.
func (f *poolFn) analyze(rep reporter, onReturn func(*ast.ReturnStmt, bool)) {
	blocks := f.cfg.Reachable()
	entries := make(map[*Block]ownState, len(blocks))
	entries[f.cfg.Entry] = ownState{}
	wl := []*Block{f.cfg.Entry}
	for len(wl) > 0 {
		blk := wl[0]
		wl = wl[1:]
		out := f.transferBlock(blk, cloneState(entries[blk]), nil, nil)
		for _, s := range blk.Succs {
			first := entries[s] == nil
			if first {
				entries[s] = ownState{}
			}
			if joinInto(entries[s], out) || first {
				wl = append(wl, s)
			}
		}
	}
	for _, blk := range blocks {
		st := entries[blk]
		if st == nil {
			st = ownState{}
		}
		out := f.transferBlock(blk, cloneState(st), rep, onReturn)
		if rep == nil {
			continue
		}
		if blk.Panics {
			f.leakCheck(out, f.panicPos(blk), "panic", rep)
		} else if hasExit(blk, f.cfg.Exit) {
			f.leakCheck(out, f.returnPos(blk), "return", rep)
		}
	}
}

func hasExit(blk, exit *Block) bool {
	for _, s := range blk.Succs {
		if s == exit {
			return true
		}
	}
	return false
}

// returnPos anchors a return-path leak: the return statement ending
// the block, or the closing brace for the implicit return.
func (f *poolFn) returnPos(blk *Block) token.Pos {
	if n := len(blk.Nodes); n > 0 {
		if ret, ok := blk.Nodes[n-1].(*ast.ReturnStmt); ok {
			return ret.Pos()
		}
	}
	return f.fd.Body.Rbrace
}

// panicPos anchors a panic-path leak at the panic statement.
func (f *poolFn) panicPos(blk *Block) token.Pos {
	if n := len(blk.Nodes); n > 0 {
		return blk.Nodes[n-1].Pos()
	}
	return f.fd.Body.Rbrace
}

func (f *poolFn) leakCheck(st ownState, pos token.Pos, exit string, rep reporter) {
	var leaked []*types.Var
	for v, bits := range st {
		if bits&ownOwned != 0 && bits&ownDeferred == 0 && bits&ownMoved == 0 {
			leaked = append(leaked, v)
		}
	}
	sort.Slice(leaked, func(i, j int) bool { return leaked[i].Pos() < leaked[j].Pos() })
	for _, v := range leaked {
		rep(pos, "pooled buffer %s may leak: still owned at %s in %s", v.Name(), exit, f.fnName)
	}
}

// transferBlock applies every node of blk to st in order, returning
// the block's exit state.
func (f *poolFn) transferBlock(blk *Block, st ownState, rep reporter, onReturn func(*ast.ReturnStmt, bool)) ownState {
	for _, n := range blk.Nodes {
		f.transferNode(n, st, rep, onReturn)
	}
	return st
}

func (f *poolFn) transferNode(n ast.Node, st ownState, rep reporter, onReturn func(*ast.ReturnStmt, bool)) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i := range n.Lhs {
				f.assignOne(n.Lhs[i], n.Rhs[i], st, rep)
			}
		} else {
			for _, r := range n.Rhs {
				f.scanExpr(r, st, rep)
			}
			for _, l := range n.Lhs {
				f.untrackLhs(l, st)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Names) == len(vs.Values) {
					for i := range vs.Names {
						f.assignOne(vs.Names[i], vs.Values[i], st, rep)
					}
				} else {
					for _, v := range vs.Values {
						f.scanExpr(v, st, rep)
					}
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if f.seedCall(call, st, rep, true) {
				return
			}
		}
		f.scanExpr(n.X, st, rep)
	case *ast.DeferStmt:
		if eff, ok := f.a.seedEffect(n.Call); ok && eff.kind == effRelease && eff.arg < len(n.Call.Args) {
			if v := f.trackedVar(n.Call.Args[eff.arg], st); v != nil {
				if st[v]&ownBorrowed != 0 && rep != nil {
					rep(n.Call.Pos(), "Release of borrowed buffer %s (the lender's memory) in %s", v.Name(), f.fnName)
				}
				st[v] |= ownDeferred
				return
			}
		}
		f.scanExpr(n.Call, st, rep)
	case *ast.GoStmt:
		// Ownership handed to a goroutine leaves the tracking horizon.
		f.scanExpr(n.Call.Fun, st, rep)
		for _, arg := range n.Call.Args {
			if v := f.trackedVar(arg, st); v != nil {
				delete(st, v)
				continue
			}
			f.scanExpr(arg, st, rep)
		}
	case *ast.SendStmt:
		f.scanExpr(n.Chan, st, rep)
		if v := f.trackedVar(n.Value, st); v != nil && f.escape(n.Value.Pos(), v, "sent over a channel", st, rep) {
			return
		}
		f.scanExpr(n.Value, st, rep)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			qualifies := false
			if v := f.trackedVar(r, st); v != nil {
				bits := st[v]
				switch {
				case bits&ownReleased != 0:
					if rep != nil {
						rep(r.Pos(), "use of %s after Release in %s", v.Name(), f.fnName)
					}
				case bits&ownMoved != 0:
					if rep != nil {
						rep(r.Pos(), "use of %s after ownership transfer in %s", v.Name(), f.fnName)
					}
				case bits&ownOwned != 0:
					// Returning an owned buffer transfers it to the caller.
					st[v] = bits&ownDeferred | ownMoved
					qualifies = true
				}
			} else if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
				if eff, ok := f.a.seedEffect(call); ok && eff.kind == effAcquire {
					qualifies = true
				} else {
					f.scanExpr(r, st, rep)
				}
			} else {
				f.scanExpr(r, st, rep)
			}
			if onReturn != nil && len(n.Results) == 1 {
				onReturn(n, qualifies)
			}
		}
		if onReturn != nil && len(n.Results) != 1 {
			onReturn(n, false)
		}
	case *RangeIter:
		f.untrackLhs(n.Range.Key, st)
		f.untrackLhs(n.Range.Value, st)
	default:
		if e, ok := n.(ast.Expr); ok {
			f.scanExpr(e, st, rep)
			return
		}
		if s, ok := n.(ast.Stmt); ok {
			// IncDecStmt, EmptyStmt, etc.: scan any expressions inside.
			ast.Inspect(s, func(m ast.Node) bool {
				if e, ok := m.(ast.Expr); ok {
					f.scanExpr(e, st, rep)
					return false
				}
				return true
			})
		}
	}
}

// assignOne handles one lhs := / = rhs pair.
func (f *poolFn) assignOne(lhs, rhs ast.Expr, st ownState, rep reporter) {
	acquire, borrow := false, false
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		if eff, ok := f.a.seedEffect(call); ok && (eff.kind == effAcquire || eff.kind == effBorrow) {
			acquire, borrow = eff.kind == effAcquire, eff.kind == effBorrow
			// Receiver/args of the acquire still count as uses.
			f.scanExpr(call.Fun, st, rep)
			for _, a := range call.Args {
				f.scanExpr(a, st, rep)
			}
		}
	}

	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if id.Name == "_" {
			if acquire && rep != nil {
				rep(rhs.Pos(), "pooled buffer from %s is dropped without Release in %s", callName(rhs), f.fnName)
			} else if !acquire && !borrow {
				f.scanExpr(rhs, st, rep)
			}
			return
		}
		if v := f.localVar(id); v != nil {
			old := st[v]
			if old&ownOwned != 0 && old&ownDeferred == 0 && rep != nil {
				rep(lhs.Pos(), "pooled buffer %s overwritten while still owned in %s", v.Name(), f.fnName)
			}
			if acquire {
				st[v] = ownOwned
				return
			}
			if borrow {
				st[v] = ownBorrowed
				return
			}
			// Alias or unrelated value: the old buffer (and any tracked
			// rhs alias source) leaves the tracking horizon.
			f.scanExpr(rhs, st, rep)
			delete(st, v)
			if rv := f.trackedVar(rhs, st); rv != nil {
				delete(st, rv)
			}
			return
		}
	}

	// Compound lhs: field, global, slice/map element, pointer target.
	dest := lhsDescription(lhs, f.a.pass.Info)
	if dest != "" {
		if acquire || borrow {
			if rep != nil {
				rep(lhs.Pos(), "%s from %s stored into %s %s in %s", bufKind(borrow), callName(rhs), dest, escapeWhy(borrow), f.fnName)
			}
			return
		}
		if rv := f.trackedVar(rhs, st); rv != nil && f.escape(lhs.Pos(), rv, "stored into "+dest, st, rep) {
			return
		}
	}
	f.scanExpr(rhs, st, rep)
	if !acquire && !borrow {
		// Index/selector expressions on the lhs still read their base.
		if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
			f.scanExpr(lhs, st, rep)
		}
	}
}

// seedCall applies a statement-level protocol call to st; false means
// the call is not a seed and the caller should scan it generically.
func (f *poolFn) seedCall(call *ast.CallExpr, st ownState, rep reporter, stmtLevel bool) bool {
	eff, ok := f.a.seedEffect(call)
	if !ok || (eff.kind != effAcquire && eff.kind != effBorrow && eff.arg >= len(call.Args)) {
		return false
	}
	switch eff.kind {
	case effAcquire, effBorrow:
		// A dropped borrow is harmless: the lender still owns the memory.
		if eff.kind == effAcquire && stmtLevel && rep != nil {
			rep(call.Pos(), "pooled buffer from %s is dropped without Release in %s", callName(call), f.fnName)
		}
		f.scanExpr(call.Fun, st, rep)
		for _, a := range call.Args {
			f.scanExpr(a, st, rep)
		}
	case effRelease:
		for i, a := range call.Args {
			if i == eff.arg {
				continue
			}
			f.scanExpr(a, st, rep)
		}
		f.scanExpr(call.Fun, st, rep)
		arg := call.Args[eff.arg]
		v := f.trackedVar(arg, st)
		if v == nil {
			if f.borrowCall(arg) && rep != nil {
				rep(call.Pos(), "Release of borrowed buffer from %s (the lender's memory) in %s", callName(arg), f.fnName)
			}
			f.scanExpr(arg, st, rep)
			return true
		}
		bits := st[v]
		switch {
		case bits&ownBorrowed != 0:
			if rep != nil {
				rep(call.Pos(), "Release of borrowed buffer %s (the lender's memory) in %s", v.Name(), f.fnName)
			}
		case bits&ownReleased != 0:
			if rep != nil {
				rep(call.Pos(), "double Release of %s in %s", v.Name(), f.fnName)
			}
		case bits&ownMoved != 0:
			if rep != nil {
				rep(call.Pos(), "Release of %s after ownership transfer in %s", v.Name(), f.fnName)
			}
		}
		st[v] = bits&ownDeferred | ownReleased
	case effMove:
		for i, a := range call.Args {
			if i == eff.arg {
				continue
			}
			f.scanExpr(a, st, rep)
		}
		f.scanExpr(call.Fun, st, rep)
		arg := call.Args[eff.arg]
		if v := f.trackedVar(arg, st); v != nil {
			bits := st[v]
			switch {
			case rep == nil:
			case bits&ownBorrowed != 0:
				rep(call.Pos(), "sendOwned of borrowed buffer %s (the lender's memory) in %s", v.Name(), f.fnName)
			case bits&ownOwned == 0:
				rep(call.Pos(), "sendOwned of %s, which the caller no longer owns, in %s", v.Name(), f.fnName)
			}
			st[v] = bits&ownDeferred | ownMoved
			return true
		}
		// A direct acquire as the argument is a clean handoff, a direct
		// borrow a finding; anything else is outside the tracking horizon.
		if call2, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
			if eff2, ok := f.a.seedEffect(call2); ok && eff2.kind == effAcquire {
				return true
			}
		}
		if f.borrowCall(arg) && rep != nil {
			rep(call.Pos(), "sendOwned of borrowed buffer from %s (the lender's memory) in %s", callName(arg), f.fnName)
		}
		f.scanExpr(arg, st, rep)
	}
	return true
}

// borrowCall reports whether e is a direct RecvLent call.
func (f *poolFn) borrowCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	eff, ok := f.a.seedEffect(call)
	return ok && eff.kind == effBorrow
}

// scanExpr walks an expression for generic effects: uses of released
// or moved buffers, owned buffers escaping into composite literals,
// and closures capturing tracked buffers (which untracks them).
func (f *poolFn) scanExpr(e ast.Expr, st ownState, rep reporter) {
	if e == nil {
		return
	}
	// Idents consumed by an enclosing construct (a composite-literal
	// store) must not double-report as plain uses when the walk
	// descends to them.
	consumed := map[ast.Expr]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			f.untrackCaptured(n, st)
			return false
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				expr := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					expr = kv.Value
				}
				if v := f.trackedVar(expr, st); v != nil && f.escape(expr.Pos(), v, "stored into composite literal", st, rep) {
					consumed[ast.Unparen(expr)] = true
				}
			}
			return true
		case *ast.Ident:
			if consumed[n] {
				return true
			}
			v, _ := f.a.pass.Info.Uses[n].(*types.Var)
			if v == nil {
				return true
			}
			bits, tracked := st[v]
			if !tracked {
				return true
			}
			if bits&ownReleased != 0 && rep != nil {
				rep(n.Pos(), "use of %s after Release in %s", v.Name(), f.fnName)
			} else if bits&ownMoved != 0 && bits&ownOwned == 0 && rep != nil {
				rep(n.Pos(), "use of %s after ownership transfer in %s", v.Name(), f.fnName)
			}
		}
		return true
	})
}

// untrackCaptured removes every tracked variable referenced inside a
// function literal: closure capture is an alias the flow cannot see
// through.
func (f *poolFn) untrackCaptured(lit *ast.FuncLit, st ownState) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := f.a.pass.Info.Uses[id].(*types.Var); ok {
				delete(st, v)
			}
		}
		return true
	})
}

// trackedVar resolves e to a variable currently in st.
func (f *poolFn) trackedVar(e ast.Expr, st ownState) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := f.a.pass.Info.Uses[id].(*types.Var)
	if v == nil {
		return nil
	}
	if _, ok := st[v]; !ok {
		return nil
	}
	return v
}

// localVar resolves a plain-identifier assignment target to a
// function-local variable; package-level vars return nil so the store
// is treated as an escape.
func (f *poolFn) localVar(id *ast.Ident) *types.Var {
	info := f.a.pass.Info
	v, _ := info.Defs[id].(*types.Var)
	if v == nil {
		v, _ = info.Uses[id].(*types.Var)
	}
	if v == nil || v.IsField() {
		return nil
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return nil // package-level: a store here escapes
	}
	return v
}

// untrackLhs drops the variable behind an assignment target.
func (f *poolFn) untrackLhs(e ast.Expr, st ownState) {
	if e == nil {
		return
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return
	}
	info := f.a.pass.Info
	if v, ok := info.Defs[id].(*types.Var); ok {
		delete(st, v)
		return
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		delete(st, v)
	}
}

// escape handles tracked buffer v escaping to a place the flow cannot
// follow (how says where: "stored into field x", "sent over a
// channel"). An owned buffer is reported and counts as moved; a
// borrowed one is reported. It reports whether v was either.
func (f *poolFn) escape(pos token.Pos, v *types.Var, how string, st ownState, rep reporter) bool {
	bits := st[v]
	borrowed := bits&ownOwned == 0 && bits&ownBorrowed != 0
	if bits&ownOwned == 0 && !borrowed {
		return false
	}
	if rep != nil {
		rep(pos, "%s %s %s %s in %s", bufKind(borrowed), v.Name(), how, escapeWhy(borrowed), f.fnName)
	}
	if !borrowed {
		st[v] = bits&ownDeferred | ownMoved
	}
	return true
}

// bufKind and escapeWhy phrase an escape finding for an owned or a
// borrowed buffer.
func bufKind(borrowed bool) string {
	if borrowed {
		return "borrowed buffer"
	}
	return "pooled buffer"
}

func escapeWhy(borrowed bool) string {
	if borrowed {
		return "(a borrow must not outlive its exchange)"
	}
	return "(escapes ownership tracking)"
}

// lhsDescription names a compound assignment target for diagnostics;
// "" means the target is a plain local and not an escape.
func lhsDescription(lhs ast.Expr, info *types.Info) string {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return "field " + l.Sel.Name
	case *ast.IndexExpr:
		return "an element"
	case *ast.StarExpr:
		return "a pointer target"
	case *ast.Ident:
		if v, ok := info.Uses[l].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return "global " + v.Name()
		}
	}
	return ""
}

// callName renders the callee of e (a call expression) for messages.
func callName(e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "call"
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "call"
}
