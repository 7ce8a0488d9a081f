package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAllocRule is the hot-path allocation family. It scopes itself to
// the function-literal bodies handed to par.For*-family calls and to the
// backend pool's NewDense/NewSweep passes — the per-element and
// per-worker kernels that run millions of times — and
// flags the allocation patterns the GraphMat "ninja gap" work calls out:
//
//   - append into a destination never preallocated with capacity in the
//     enclosing function (amortized growth inside the kernel),
//   - defer inside the body (a heap-allocated defer record per call),
//   - fmt.* calls (every argument boxes into an interface),
//   - explicit conversions to interface types (boxing per element),
//   - closures created inside a loop inside the body (one allocation
//     per iteration).
type HotAllocRule struct{}

// Name implements Rule.
func (*HotAllocRule) Name() string { return "hotalloc" }

// Doc implements Rule.
func (*HotAllocRule) Doc() string {
	return "par.For* and backend.NewDense/NewSweep kernel bodies must not allocate per element: preallocate appends, no defer/boxing/per-iteration closures"
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
				r.checkBody(p, fn.Body, callName, lit, report)
			})
		}
	}
}

func (r *HotAllocRule) checkBody(p *Package, enclosing *ast.BlockStmt, callName string, lit *ast.FuncLit,
	report func(pos token.Pos, format string, args ...any)) {
	inLoop := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeferStmt:
			report(s.Pos(), "defer inside a %s body allocates a defer record per call; hoist cleanup out of the kernel", callName)
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
			r.checkCall(p, enclosing, callName, lit, s, report)
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

func (r *HotAllocRule) checkCall(p *Package, enclosing *ast.BlockStmt, callName string, lit *ast.FuncLit,
	call *ast.CallExpr, report func(pos token.Pos, format string, args ...any)) {
	// fmt.* boxes every argument.
	if callee := calleeFunc(p, call); callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		report(call.Pos(), "fmt.%s inside a %s body boxes its arguments into interfaces per call; format outside the kernel", callee.Name(), callName)
		return
	}
	// Explicit conversion to an interface type.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
			if atv, ok := p.Info.Types[call.Args[0]]; ok && atv.Type != nil {
				if _, already := atv.Type.Underlying().(*types.Interface); !already {
					report(call.Pos(), "conversion to interface type inside a %s body boxes the value per element", callName)
				}
			}
		}
		return
	}
	// append into a destination with no capacity preallocation.
	if isBuiltinAppend(p, call) && len(call.Args) > 0 {
		root := exprRootOfChain(p, call.Args[0])
		if root == nil {
			return
		}
		if !preallocated(p, enclosing, call.Args[0], root) {
			report(call.Pos(), "append to %s inside a %s body without preallocation: size or reserve it with make(..., n) before the loop", root.Name(), callName)
		}
	}
}

// preallocated reports whether the function reserves capacity for the
// append destination: a make(...) with a nonzero length or an explicit
// capacity, assigned to the same root (for a plain identifier) or to an
// indexed element of the same root (for per-shard buffers like
// buf[s] = make(...)).
func preallocated(p *Package, enclosing *ast.BlockStmt, dest ast.Expr, root types.Object) bool {
	_, destIndexed := ast.Unparen(dest).(*ast.IndexExpr)
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || i >= len(as.Lhs) {
				continue
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "make" {
				continue
			}
			if !makeReservesCapacity(call) {
				continue
			}
			lhs := ast.Unparen(as.Lhs[i])
			_, lhsIndexed := lhs.(*ast.IndexExpr)
			if lhsIndexed != destIndexed {
				continue
			}
			if exprRootOfChain(p, lhs) == root {
				found = true
			}
		}
		return true
	})
	return found
}

// makeReservesCapacity reports whether a make call reserves space: a
// capacity argument, or a length argument that is not the literal 0.
func makeReservesCapacity(call *ast.CallExpr) bool {
	switch len(call.Args) {
	case 3:
		return true
	case 2:
		lit, ok := ast.Unparen(call.Args[1]).(*ast.BasicLit)
		return !ok || lit.Value != "0"
	}
	return false
}
