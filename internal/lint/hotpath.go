package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runHotPath enforces allocation hygiene in functions annotated
// //pdos:hotpath — the per-event and per-packet paths whose 0 allocs/packet
// contract the alloc-regression tests guard. Inside an annotated function:
//
//   - no fmt calls: formatting allocates and boxes every operand;
//   - no func literals: a capturing closure is a heap allocation per
//     construction (hot paths schedule a sim.Handler plus an argument
//     instead);
//   - no boxing a non-pointer-shaped value into an interface: the
//     conversion allocates (pointers, funcs, maps, chans and unsafe.Pointer
//     ride in the interface word for free and are allowed);
//   - append only back into the same expression (x = append(x, ...)): the
//     reused-backing-array idiom is amortized allocation-free, while
//     appending into anything else is a fresh copy on the hot path.
//
// The annotation is the opt-in: nothing outside //pdos:hotpath functions is
// inspected.
func runHotPath(cfg Config, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !pkg.ann.funcHas(fd, dirHotPath) {
				continue
			}
			checkHotFunc(pkg, fd, report)
		}
	}
}

func checkHotFunc(pkg *Package, fd *ast.FuncDecl, report func(pos token.Pos, format string, args ...any)) {
	info := pkg.Info
	// Self-appends (x = append(x, ...)) are the one permitted append shape.
	allowedAppend := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isBuiltinAppend(info, call) || len(call.Args) == 0 {
			return true
		}
		if exprString(as.Lhs[0]) == exprString(call.Args[0]) {
			allowedAppend[call] = true
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "closure literal in //pdos:hotpath function %s: constructing a capturing closure allocates per call (schedule the component itself as a sim.Handler and pass state through the event's argument)",
				fd.Name.Name)
			return false // don't double-report the literal's body
		case *ast.CallExpr:
			if isBuiltinAppend(info, n) {
				if !allowedAppend[n] {
					report(n.Pos(), "append into a different destination in //pdos:hotpath function %s: only the reuse idiom x = append(x, ...) is amortized allocation-free on the hot path",
						fd.Name.Name)
				}
				return true
			}
			if f := funcObj(info, n); f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
				report(n.Pos(), "fmt.%s call in //pdos:hotpath function %s: formatting allocates and boxes every operand (hoist diagnostics off the hot path)",
					f.Name(), fd.Name.Name)
				return true
			}
			checkCallBoxing(pkg, fd, n, report)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				lt := info.TypeOf(n.Lhs[i])
				if lt == nil || len(n.Lhs) != len(n.Rhs) {
					continue
				}
				reportBoxing(pkg, fd, lt, rhs, "assignment", report)
			}
		}
		return true
	})
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// checkCallBoxing flags arguments boxed into interface-typed parameters.
func checkCallBoxing(pkg *Package, fd *ast.FuncDecl, call *ast.CallExpr, report func(pos token.Pos, format string, args ...any)) {
	info := pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, builtin := info.Uses[id].(*types.Builtin); builtin {
			return // panic() boxes its argument, but a panicking hot path is already dead
		}
	}
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() { // conversions never box
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	np := params.Len()
	if np == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis != token.NoPos && i == np-1 {
				pt = params.At(np - 1).Type() // slice passed whole: no boxing
			} else if s, ok := params.At(np - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < np:
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		reportBoxing(pkg, fd, pt, arg, "argument", report)
	}
}

// reportBoxing flags converting a concrete value that is not pointer-shaped
// into an interface-typed destination. A pointer-shaped value — a pointer,
// func, map, chan or unsafe.Pointer, each one machine word the runtime
// stores directly — rides in the interface word without allocating, and so
// do interfaces and nil.
func reportBoxing(pkg *Package, fd *ast.FuncDecl, dst types.Type, val ast.Expr, what string, report func(pos token.Pos, format string, args ...any)) {
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return
	}
	vt := pkg.Info.TypeOf(val)
	if vt == nil {
		return
	}
	switch u := vt.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Signature, *types.Map, *types.Chan:
		return
	case *types.Basic:
		if u.Kind() == types.UntypedNil || u.Kind() == types.UnsafePointer {
			return
		}
	}
	report(val.Pos(), "%s boxes non-pointer %s into interface %s in //pdos:hotpath function %s: the conversion allocates (pass a pointer, or restructure to avoid the interface)",
		what, vt.String(), dst.String(), fd.Name.Name)
}
