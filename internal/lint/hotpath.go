package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// HotPath enforces the 0-alloc contract on functions annotated
// //decentlint:hotpath. BENCH_baseline.json pins those paths dynamically
// (allocs/op must stay 0); this analyzer catches the same regressions at
// lint time, before a benchmark run: closure allocations, fmt calls,
// interface conversions of non-pointer-shaped values, and appends to
// slices without locally visible preallocated capacity. Hot paths are
// also on the determinism-critical spine (the kernel schedule loop and
// the sharded mailbox/merge path in particular), so map iteration —
// whose order Go randomizes per run — is flagged as well: a map-order-
// dependent write there would leak per-run randomness into results.
var HotPath = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "functions annotated //decentlint:hotpath must not allocate: no " +
		"func literals, no fmt calls, no interface conversions of " +
		"non-pointer-shaped non-constant values, and no append to a slice " +
		"that was not locally made with explicit capacity; they must also " +
		"not range over maps (iteration order is randomized)",
	Run: runHotPath,
}

func runHotPath(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasHotpathDirective(fd) {
				continue
			}
			checkHotBody(pass, fd)
		}
	}
	return nil, nil
}

func checkHotBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	prealloc := preallocatedSlices(pass, fd.Body)
	var results *types.Tuple
	if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		results = obj.Type().(*types.Signature).Results()
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure allocation in hot path %s; use a package-level func with AtFunc/AfterFunc payloads", fd.Name.Name)
			return false // the closure's own body is not on the hot path
		case *ast.CallExpr:
			checkHotCall(pass, fd, n, prealloc)
		case *ast.AssignStmt:
			for i := range n.Lhs {
				if i < len(n.Rhs) {
					lt := pass.TypesInfo.Types[n.Lhs[i]].Type
					checkIfaceConv(pass, fd, lt, n.Rhs[i])
				}
			}
		case *ast.ReturnStmt:
			if results != nil && len(n.Results) == results.Len() {
				for i, r := range n.Results {
					checkIfaceConv(pass, fd, results.At(i).Type(), r)
				}
			}
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "map iteration in hot path %s has randomized order; iterate a slice (sorted once, off the hot path) instead", fd.Name.Name)
				}
			}
		case *ast.CompositeLit:
			checkHotComposite(pass, fd, n)
		}
		return true
	})
}

// checkHotCall flags fmt calls, unpreallocated appends, conversions to
// interface types, and interface-typed parameters receiving allocating
// operands.
func checkHotCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, prealloc map[types.Object]bool) {
	if isBuiltin(pass.TypesInfo, call, "append") && len(call.Args) > 0 {
		if !isPreallocated(pass, call.Args[0], prealloc) {
			pass.Reportf(call.Pos(), "append without locally preallocated capacity in hot path %s; make the slice with explicit cap or pool it", fd.Name.Name)
		}
		return
	}
	if fn := calleeFunc(pass.TypesInfo, call); fn != nil && funcPkgPath(fn) == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s call in hot path %s allocates; format outside the hot path", fn.Name(), fd.Name.Name)
		return
	}
	// Conversion expression T(x) where T is an interface type.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			checkIfaceConv(pass, fd, tv.Type, call.Args[0])
		}
		return
	}
	// Ordinary call: match operands against interface-typed parameters.
	sig, ok := pass.TypesInfo.Types[call.Fun].Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		checkIfaceConv(pass, fd, pt, arg)
	}
}

// checkHotComposite matches composite-literal elements against interface-
// typed struct fields or element types.
func checkHotComposite(pass *analysis.Pass, fd *ast.FuncDecl, lit *ast.CompositeLit) {
	t := pass.TypesInfo.Types[lit].Type
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		fields := make(map[string]types.Type, u.NumFields())
		for i := 0; i < u.NumFields(); i++ {
			fields[u.Field(i).Name()] = u.Field(i).Type()
		}
		for i, elt := range lit.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					checkIfaceConv(pass, fd, fields[id.Name], kv.Value)
				}
			} else if i < u.NumFields() {
				checkIfaceConv(pass, fd, u.Field(i).Type(), elt)
			}
		}
	case *types.Slice:
		for _, elt := range lit.Elts {
			checkIfaceConv(pass, fd, u.Elem(), eltValue(elt))
		}
	case *types.Array:
		for _, elt := range lit.Elts {
			checkIfaceConv(pass, fd, u.Elem(), eltValue(elt))
		}
	case *types.Map:
		for _, elt := range lit.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				checkIfaceConv(pass, fd, u.Elem(), kv.Value)
			}
		}
	}
}

func eltValue(elt ast.Expr) ast.Expr {
	if kv, ok := elt.(*ast.KeyValueExpr); ok {
		return kv.Value
	}
	return elt
}

// checkIfaceConv reports an implicit or explicit conversion of expr to the
// interface type target when the operand's representation forces an
// allocation: not already an interface, not pointer-shaped, and not a
// compile-time constant (constants are interned in read-only data).
func checkIfaceConv(pass *analysis.Pass, fd *ast.FuncDecl, target types.Type, expr ast.Expr) {
	if target == nil || !isInterface(target) {
		return
	}
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil || tv.Value != nil {
		return
	}
	if isInterface(tv.Type) || pointerShaped(tv.Type) {
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	pass.Reportf(expr.Pos(), "conversion of non-pointer-shaped %s to interface in hot path %s allocates; pass a pointer or pack scalars into the payload", tv.Type, fd.Name.Name)
}

// preallocatedSlices collects variables assigned from make(T, len, cap)
// within body: appends to them reuse capacity in steady state.
func preallocatedSlices(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltin(pass.TypesInfo, call, "make") || len(call.Args) < 3 {
			return
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			out[obj] = true
		} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
			out[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i := range n.Lhs {
				if i < len(n.Rhs) {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i := range n.Names {
				if i < len(n.Values) {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// isPreallocated reports whether the append target is a variable the
// function made with explicit capacity.
func isPreallocated(pass *analysis.Pass, target ast.Expr, prealloc map[types.Object]bool) bool {
	id, ok := ast.Unparen(target).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	return obj != nil && prealloc[obj]
}
