package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAllocRule is the hot-path allocation family. It scopes itself to
// the function-literal bodies handed to par.For, to a pool as
// par.RunnerFunc, and to backend's NewDense/NewSweep passes — the
// per-element and per-worker kernels that run millions of times — and
// flags the allocation patterns the GraphMat "ninja gap" work calls out:
//
//   - defer inside the body: outside a loop Go open-codes it and it
//     allocates nothing, but every call still pays its setup and the
//     deferred call; inside a loop it heap-allocates a record per
//     iteration,
//   - explicit conversions to interface types (boxing per element),
//     type-parameter values included,
//   - closures created inside a loop inside the body (one allocation
//     per iteration).
//
// An append without reserved capacity and a fmt.* call in a body are not
// its business: both allocate per element, and GraphLab's sweep
// allocation bound (TestBFSSymmetrizedReadsItsOwnRows) fails on either,
// the fmt call under the race detector.
type HotAllocRule struct{}

// Name implements Rule.
func (*HotAllocRule) Name() string { return "hotalloc" }

// Doc implements Rule.
func (*HotAllocRule) Doc() string {
	return "par.For, par.RunnerFunc and backend.NewDense/NewSweep kernel bodies must not allocate per element: no defer/boxing/per-iteration closures"
}

// Check implements Rule.
func (r *HotAllocRule) Check(p *Package, report func(pos token.Pos, format string, args ...any)) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			forEachParBody(p, fn.Body, func(callName string, lit *ast.FuncLit) {
				r.checkBody(p, callName, lit, report)
			})
		}
	}
}

func (r *HotAllocRule) checkBody(p *Package, callName string, lit *ast.FuncLit,
	report func(pos token.Pos, format string, args ...any)) {
	inLoop := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeferStmt:
			report(s.Pos(), "defer inside a %s body costs its setup and deferred call on every call, and a heap record per iteration inside a loop; hoist cleanup out of the kernel", callName)
		case *ast.ForStmt, *ast.RangeStmt:
			inLoop++
			defer func() { inLoop-- }()
			// Walk children with the loop depth raised, then stop this
			// branch of the outer walk.
			for _, child := range childNodes(n) {
				ast.Inspect(child, walk)
			}
			return false
		case *ast.FuncLit:
			if inLoop > 0 {
				report(s.Pos(), "closure created inside a loop inside a %s body allocates per iteration; hoist it out of the loop", callName)
			}
		case *ast.CallExpr:
			if isBoxing(p, s) {
				report(s.Pos(), "conversion to interface type inside a %s body boxes the value per element", callName)
			}
		}
		return true
	}
	ast.Inspect(lit.Body, walk)
}

// childNodes returns the direct child nodes of a for/range statement in
// source order, so the walker can re-enter them at raised loop depth.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	switch s := n.(type) {
	case *ast.ForStmt:
		if s.Init != nil {
			out = append(out, s.Init)
		}
		if s.Cond != nil {
			out = append(out, s.Cond)
		}
		if s.Post != nil {
			out = append(out, s.Post)
		}
		out = append(out, s.Body)
	case *ast.RangeStmt:
		out = append(out, s.X, s.Body)
	}
	return out
}

// isBoxing reports whether call explicitly converts a non-interface value
// to an interface type.
func isBoxing(p *Package, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 || !isInterface(tv.Type) {
		return false
	}
	atv, ok := p.Info.Types[call.Args[0]]
	return ok && atv.Type != nil && !isInterface(atv.Type)
}

// isInterface reports whether t is an interface type. A type parameter is
// not one, though its underlying type is its constraint interface (which
// is all types.IsInterface reads): converting its value to an interface
// boxes it, and converting to it does not.
func isInterface(t types.Type) bool {
	_, param := types.Unalias(t).(*types.TypeParam)
	return !param && types.IsInterface(t)
}

// forEachParBody finds every call inside body that takes a parallel
// kernel body — par.For(...), a closure handed to a pool as
// par.RunnerFunc(...), and the backend.NewDense / backend.NewSweep passes
// where the served kernels live — and yields each function-literal
// argument: the hot parallel kernel bodies the hotalloc rule scopes to.
func forEachParBody(p *Package, body *ast.BlockStmt, visit func(callName string, lit *ast.FuncLit)) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := p.Info.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		pkg, name := pkgName.Imported().Name(), sel.Sel.Name
		switch {
		case pkg == "par" && (name == "For" || name == "RunnerFunc"):
		case pkg == "backend" && (name == "NewDense" || name == "NewSweep"):
		default:
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				visit(pkg+"."+name, lit)
			}
		}
		return true
	})
}
