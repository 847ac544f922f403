package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc checks functions annotated `//adasum:noalloc` (in their doc
// comment or on their declaration line) for allocation-introducing
// constructs. These are the steady-state hot paths the AllocsPerRun
// ratchet tests pin at 0 allocs/op — the collectives, the overlap engine
// step, the pool get/put fast paths, the codec encode/decode loops —
// where a single make, boxing conversion, or fmt call silently
// re-introduces per-op garbage on every shape no ratchet row covers.
//
// Flagged constructs: make/new/append, slice and map composite
// literals, &composite literals, variable-capturing closures,
// go statements, string concatenation and string<->[]byte/[]rune
// conversions, interface boxing of non-pointer values (call arguments,
// assignments, returns, explicit conversions), and calls into fmt and
// errors.New.
//
// The check is a conservative overapproximation of the escape
// analysis the compiler actually performs: a flagged construct MAY
// stay on the stack (e.g. a non-escaping make with constant size).
// Sites that the benchmarks prove allocation-free — or that only run
// off the steady-state path, like pool misses that mint — carry an
// `//adasum:alloc ok <reason>` annotation. Constructs inside a direct
// panic(...) argument are exempt automatically: a panic path never
// executes in steady state.
var NoAlloc = &Analyzer{
	Name:        "noalloc",
	Doc:         "flags allocation-introducing constructs in //adasum:noalloc functions and their full call closure",
	SuppressKey: "alloc",
	Run:         runNoAlloc,
	ModuleRun:   runNoAllocModule,
}

func runNoAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isNoallocMarked(pass.Fset, pass.Annot, fd) {
				continue
			}
			w := &noallocWalk{info: pass.Info, pkg: pass.Pkg, fn: fd, report: pass.Reportf}
			w.walk()
		}
	}
	return nil
}

// isNoallocMarked reports whether fd carries the //adasum:noalloc
// directive, probing its declaration line and every doc-comment line
// (and marking the directive used).
func isNoallocMarked(fset *token.FileSet, annot *Annotations, fd *ast.FuncDecl) bool {
	probe := func(p token.Pos) bool {
		pos := fset.Position(p)
		return annot.NoallocAt(pos.Filename, pos.Line) != nil
	}
	if probe(fd.Pos()) {
		return true
	}
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if probe(c.Pos()) {
				return true
			}
		}
	}
	return false
}

// noallocWalk is the intraprocedural allocation scan of one function
// body. It reports through a callback so the same walk serves two
// masters: the per-package pass (report = Pass.Reportf, honoring
// suppressions) and the module pass's probe of unmarked callees
// (report = collect, findings attributed to the call path that reached
// the function).
type noallocWalk struct {
	info   *types.Info
	pkg    *types.Package
	fn     *ast.FuncDecl
	report func(pos token.Pos, format string, args ...any)
	// panicArgs are the argument ranges of direct panic(...) calls;
	// constructs inside them are exempt (never executed in steady
	// state).
	panicArgs []posRange
}

func (w *noallocWalk) typeOf(e ast.Expr) types.Type {
	if w.info == nil {
		return nil
	}
	return w.info.TypeOf(e)
}

func (w *noallocWalk) walk() {
	w.panicArgs = panicArgRanges(w.info, w.fn.Body)
	ast.Inspect(w.fn.Body, w.visit)
	w.checkReturns()
}

func (w *noallocWalk) reportf(pos token.Pos, format string, args ...any) {
	if inRanges(w.panicArgs, pos) {
		return
	}
	w.report(pos, format, args...)
}

func (w *noallocWalk) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		w.visitCall(n)
	case *ast.CompositeLit:
		w.visitCompositeLit(n)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				w.reportf(n.Pos(), "&composite literal escapes to the heap in %s", w.fn.Name.Name)
			}
		}
	case *ast.FuncLit:
		if v := w.capturedVar(n); v != nil {
			w.reportf(n.Pos(), "closure capturing %s allocates in %s", v.Name(), w.fn.Name.Name)
		}
	case *ast.GoStmt:
		w.reportf(n.Pos(), "go statement allocates a goroutine in %s", w.fn.Name.Name)
	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if t := w.typeOf(n); t != nil && isString(t) {
				w.reportf(n.Pos(), "string concatenation allocates in %s", w.fn.Name.Name)
			}
		}
	case *ast.AssignStmt:
		for i := range n.Lhs {
			if i < len(n.Rhs) && len(n.Lhs) == len(n.Rhs) {
				if lt := w.typeOf(n.Lhs[i]); lt != nil {
					w.checkBoxing(n.Rhs[i], lt, "assignment")
				}
			}
		}
	case *ast.ValueSpec:
		if n.Type != nil {
			if lt := w.typeOf(n.Type); lt != nil {
				for _, v := range n.Values {
					w.checkBoxing(v, lt, "assignment")
				}
			}
		}
	}
	return true
}

func (w *noallocWalk) visitCall(call *ast.CallExpr) {
	// Builtins and conversions first.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if w.visitBuiltinOrConv(call, fun.Name, w.info.Uses[fun]) {
			return
		}
	case *ast.SelectorExpr:
		if obj := w.info.Uses[fun.Sel]; obj != nil && w.info.Selections[fun] == nil {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
				switch path := fn.Pkg().Path(); {
				case path == "fmt":
					w.reportf(call.Pos(), "fmt.%s allocates in %s", fn.Name(), w.fn.Name.Name)
					return
				case path == "errors" && fn.Name() == "New":
					w.reportf(call.Pos(), "errors.New allocates in %s", w.fn.Name.Name)
					return
				}
			}
		}
	}
	// Conversion via qualified or local type name, e.g. string(b).
	if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() {
		w.visitConversion(call, tv.Type)
		return
	}
	sig, ok := w.typeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	w.checkCallBoxing(call, sig)
}

// visitBuiltinOrConv handles ident-called builtins and conversions;
// reports true when the call needs no further inspection.
func (w *noallocWalk) visitBuiltinOrConv(call *ast.CallExpr, name string, obj types.Object) bool {
	if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
		switch name {
		case "make":
			w.reportf(call.Pos(), "make allocates in %s", w.fn.Name.Name)
		case "new":
			w.reportf(call.Pos(), "new allocates in %s", w.fn.Name.Name)
		case "append":
			w.reportf(call.Pos(), "append may grow its backing array in %s", w.fn.Name.Name)
		}
		return true
	}
	if tn, isType := obj.(*types.TypeName); isType {
		w.visitConversion(call, tn.Type())
		return true
	}
	return false
}

// visitConversion flags conversions that copy or box: string <->
// []byte/[]rune, and concrete-to-interface.
func (w *noallocWalk) visitConversion(call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	from := w.typeOf(call.Args[0])
	if from == nil {
		return
	}
	switch {
	case isString(to) && isByteOrRuneSlice(from):
		w.reportf(call.Pos(), "[]byte/[]rune-to-string conversion allocates in %s", w.fn.Name.Name)
	case isByteOrRuneSlice(to) && isString(from):
		w.reportf(call.Pos(), "string-to-slice conversion allocates in %s", w.fn.Name.Name)
	default:
		w.checkBoxing(call.Args[0], to, "conversion")
	}
}

func (w *noallocWalk) visitCompositeLit(lit *ast.CompositeLit) {
	t := w.typeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		w.reportf(lit.Pos(), "slice literal allocates in %s", w.fn.Name.Name)
	case *types.Map:
		w.reportf(lit.Pos(), "map literal allocates in %s", w.fn.Name.Name)
	}
	// Struct and array value literals live on the stack unless their
	// address escapes, which the &lit case catches.
}

// checkCallBoxing flags interface boxing introduced at a call site:
// concrete non-pointer arguments passed to interface parameters, and
// the slice allocated for non-spread variadic calls.
func (w *noallocWalk) checkCallBoxing(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	n := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			last := params.At(n - 1).Type()
			if call.Ellipsis.IsValid() {
				pt = last // spread: the slice passes through
			} else if sl, ok := last.Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < n:
			pt = params.At(i).Type()
		}
		if pt != nil {
			w.checkBoxing(arg, pt, "argument")
		}
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= n {
		w.reportf(call.Pos(), "variadic call allocates its ... slice in %s", w.fn.Name.Name)
	}
}

// checkReturns flags boxing at return statements of the annotated
// function.
func (w *noallocWalk) checkReturns() {
	results := w.fnResults()
	if results == nil {
		return
	}
	ast.Inspect(w.fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure's returns have their own signature
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != results.Len() {
			return true
		}
		for i, res := range ret.Results {
			w.checkBoxing(res, results.At(i).Type(), "return")
		}
		return true
	})
}

func (w *noallocWalk) fnResults() *types.Tuple {
	obj, ok := w.info.Defs[w.fn.Name].(*types.Func)
	if !ok {
		return nil
	}
	return obj.Type().(*types.Signature).Results()
}

// checkBoxing reports when expr (a concrete, non-pointer-shaped,
// non-constant value) is converted to the interface type dst.
func (w *noallocWalk) checkBoxing(expr ast.Expr, dst types.Type, context string) {
	if !types.IsInterface(dst) {
		return
	}
	tv, ok := w.info.Types[expr]
	if !ok || tv.Value != nil || tv.Type == nil {
		return // untyped constants box via the runtime's static cells
	}
	src := tv.Type
	if types.IsInterface(src) || isPointerShaped(src) || isUntypedNil(src) {
		return
	}
	w.reportf(expr.Pos(), "%s boxes %s into %s (allocates) in %s",
		context, types.TypeString(src, types.RelativeTo(w.pkg)),
		types.TypeString(dst, types.RelativeTo(w.pkg)), w.fn.Name.Name)
}

// capturedVar returns a variable the closure captures from its
// enclosing function, or nil. Non-capturing closures compile to static
// functions and do not allocate.
func (w *noallocWalk) capturedVar(lit *ast.FuncLit) *types.Var {
	var captured *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := w.info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		pos := v.Pos()
		// Captured: declared inside the enclosing function but outside
		// the literal itself (package-level vars are shared, not
		// captured).
		if pos >= w.fn.Pos() && pos < w.fn.End() && !(pos >= lit.Pos() && pos < lit.End()) {
			captured = v
		}
		return true
	})
	return captured
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// isPointerShaped reports whether values of t fit the interface data
// word without an allocation: pointers, channels, maps, funcs, and
// unsafe.Pointer.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}
