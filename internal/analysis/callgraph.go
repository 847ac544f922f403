package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The module-wide call graph behind the interprocedural analyses: every
// function declaration of every loaded module package, with its call
// sites resolved as far as the type information allows. Direct calls
// (package functions, concrete methods — the method-set dispatch the
// typechecker already performed) resolve to their *types.Func; calls
// through interface methods or function values cannot be resolved
// statically and are recorded as dynamic, which the transitive noalloc
// check flags unless an `//adasum:dyncall ok <reason>` annotation
// vouches for every implementation that can flow there.

// callKind classifies one call site.
type callKind int

const (
	// callStatic resolves to a single *types.Func (module or external).
	callStatic callKind = iota
	// callDynamic goes through an interface method or a function value.
	callDynamic
	// callFuncLit invokes a function literal of the same body (go f(),
	// defer f(), (func(){...})()); its statements are already part of
	// the enclosing function's body, so the edge needs no traversal.
	callFuncLit
)

// A callSite is one call expression inside a function body.
type callSite struct {
	pos  token.Pos
	kind callKind
	// callee is set for callStatic.
	callee *types.Func
	// desc names the target for diagnostics: "compress.Codec.Encode"
	// for an interface method, "function value bounds" for a func value.
	desc string
}

// A funcNode is one module function in the call graph.
type funcNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	// calls in source order, excluding calls inside panic(...) argument
	// ranges (never executed in steady state) and calls to builtins or
	// conversions (no function body behind them).
	calls []callSite
}

// A callGraph indexes every function declaration of the given packages.
type callGraph struct {
	nodes map[*types.Func]*funcNode
}

// buildCallGraph indexes pkgs (typically every loaded module package of
// one build configuration).
func buildCallGraph(pkgs []*Package) *callGraph {
	g := &callGraph{nodes: make(map[*types.Func]*funcNode)}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &funcNode{fn: obj, decl: fd, pkg: p}
				if fd.Body != nil {
					node.calls = collectCalls(p.Info, fd.Body)
				}
				g.nodes[obj] = node
			}
		}
	}
	return g
}

// node returns the module declaration of fn, or nil when fn is
// external. Instantiated generic functions resolve to their origin
// declaration. A node with a nil decl.Body is an assembly stub.
func (g *callGraph) node(fn *types.Func) *funcNode {
	if n := g.nodes[fn]; n != nil {
		return n
	}
	return g.nodes[fn.Origin()]
}

// collectCalls gathers the call sites of body in source order. Calls
// within direct panic(...) arguments are skipped — a panic path never
// executes in steady state, matching the intraprocedural exemption.
// Calls inside function literals ARE collected: a closure declared in a
// hot path runs on it (or is handed to something that does), so its
// callees belong to the enclosing function's closure.
func collectCalls(info *types.Info, body *ast.BlockStmt) []callSite {
	panics := panicArgRanges(info, body)
	var sites []callSite
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || inRanges(panics, call.Pos()) {
			return true
		}
		if site, ok := classifyCall(info, call); ok {
			sites = append(sites, site)
		}
		return true
	})
	return sites
}

// posRange is a half-open [lo, hi) span of source positions.
type posRange struct{ lo, hi token.Pos }

// panicArgRanges returns the argument spans of the direct panic(...)
// calls in body: code that never runs in steady state, which both the
// call graph and the intraprocedural noalloc scan exempt.
func panicArgRanges(info *types.Info, body *ast.BlockStmt) []posRange {
	var out []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" && info.Uses[id] == types.Universe.Lookup("panic") {
				for _, arg := range call.Args {
					out = append(out, posRange{arg.Pos(), arg.End()})
				}
			}
		}
		return true
	})
	return out
}

// inRanges reports whether pos falls inside one of rs.
func inRanges(rs []posRange, pos token.Pos) bool {
	for _, r := range rs {
		if r.lo <= pos && pos < r.hi {
			return true
		}
	}
	return false
}

// classifyCall resolves one call expression. The false return covers
// builtins, conversions, and calls the type info has no answer for
// (files with type errors).
func classifyCall(info *types.Info, call *ast.CallExpr) (callSite, bool) {
	fun := ast.Unparen(call.Fun)
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			return callSite{pos: call.Pos(), kind: callStatic, callee: obj}, true
		case *types.Builtin, *types.TypeName, nil:
			return callSite{}, false
		case *types.Var:
			return callSite{pos: call.Pos(), kind: callDynamic,
				desc: fmt.Sprintf("function value %s", fun.Name)}, true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			// Method or field selected through a value.
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				m := sel.Obj().(*types.Func)
				if types.IsInterface(sel.Recv()) {
					return callSite{pos: call.Pos(), kind: callDynamic,
						desc: fmt.Sprintf("interface method %s.%s",
							types.TypeString(sel.Recv(), shortQualifier), m.Name())}, true
				}
				return callSite{pos: call.Pos(), kind: callStatic, callee: m}, true
			case types.FieldVal:
				return callSite{pos: call.Pos(), kind: callDynamic,
					desc: fmt.Sprintf("function-typed field %s", fun.Sel.Name)}, true
			}
		}
		// Qualified identifier: pkg.Func, or a conversion pkg.Type(x).
		switch obj := info.Uses[fun.Sel].(type) {
		case *types.Func:
			return callSite{pos: call.Pos(), kind: callStatic, callee: obj}, true
		case *types.TypeName, nil:
			return callSite{}, false
		case *types.Var:
			return callSite{pos: call.Pos(), kind: callDynamic,
				desc: fmt.Sprintf("function value %s", fun.Sel.Name)}, true
		}
	case *ast.FuncLit:
		return callSite{pos: call.Pos(), kind: callFuncLit}, true
	}
	// Conversions through type expressions (e.g. []byte(s)), indexed
	// calls of func-typed elements, etc.: conversions carry no body;
	// anything else func-typed is dynamic.
	if tv, ok := info.Types[call.Fun]; ok {
		if tv.IsType() {
			return callSite{}, false
		}
		if _, isSig := tv.Type.Underlying().(*types.Signature); isSig {
			return callSite{pos: call.Pos(), kind: callDynamic, desc: "function value"}, true
		}
	}
	return callSite{}, false
}

// shortQualifier renders package names (not paths) in type strings.
func shortQualifier(p *types.Package) string { return p.Name() }

// funcDisplayName renders fn for call-path diagnostics: "name" for a
// package function, "Type.Method" for a method, both prefixed with the
// package name when fn lives outside relativeTo ("comm.Proc.Send").
func funcDisplayName(fn *types.Func, relativeTo *types.Package) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil && fn.Pkg() != relativeTo {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// sortedFuncs returns the module functions of g ordered by file
// position — the deterministic iteration order for closure traversal.
func (g *callGraph) sortedFuncs(fset *token.FileSet) []*funcNode {
	out := make([]*funcNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].decl.Pos()), fset.Position(out[j].decl.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
	return out
}
