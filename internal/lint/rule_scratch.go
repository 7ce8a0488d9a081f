package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ScratchRule flags per-iteration allocation of graph-sized scratch
// buffers in engine code: a `make` with a vertex-count-shaped length or
// capacity argument inside a for/range body churns O(V) bytes through
// the allocator every superstep/round, which is exactly the pattern the
// shared backend's persistent scratch (Dense/Sweep/SumVecMul)
// exists to eliminate. A size argument is vertex-count-shaped when it
// mentions a NumVertices/NumRows/NumCols/NumKeys/TargetSpace selector,
// or a local assigned from one in the same function.
type ScratchRule struct{}

// Name implements Rule.
func (*ScratchRule) Name() string { return "scratch" }

// Doc implements Rule.
func (*ScratchRule) Doc() string {
	return "engine loops must not make() graph-sized scratch per iteration; hoist the buffer above the loop and reuse it"
}

// graphSizeFields are the selector names that denote a graph-proportional
// dimension across the codebase's graph, matrix, and table types.
var graphSizeFields = map[string]bool{
	"NumVertices": true,
	"NumRows":     true,
	"NumCols":     true,
	"NumKeys":     true,
	"TargetSpace": true,
}

// Check implements Rule.
func (r *ScratchRule) Check(p *Package, report func(pos token.Pos, format string, args ...any)) {
	if !isEngine(p.Rel) {
		return
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			sized := collectGraphSizedLocals(p, fn.Body)
			r.checkLoops(p, fn.Body, sized, report)
		}
	}
}

// collectGraphSizedLocals gathers the locals assigned (directly or through
// a chain of local assignments) from a graph-size selector anywhere in the
// function, iterating to a fixpoint so `n := g.NumVertices; m := n` taints
// both n and m.
func collectGraphSizedLocals(p *Package, body *ast.BlockStmt) map[types.Object]bool {
	sized := make(map[types.Object]bool)
	for {
		grew := false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				if !mentionsGraphSize(p, rhs, sized) {
					continue
				}
				id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				obj := p.Info.Defs[id]
				if obj == nil {
					obj = p.Info.Uses[id]
				}
				if obj != nil && !sized[obj] {
					sized[obj] = true
					grew = true
				}
			}
			return true
		})
		if !grew {
			return sized
		}
	}
}

// mentionsGraphSize reports whether e contains a graph-size selector or a
// local already known to hold one. Composite and function literals are
// opaque: a struct that merely embeds a graph-sized field is not itself a
// size, and size arguments are scalar expressions that never contain them.
func mentionsGraphSize(p *Package, e ast.Expr, sized map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CompositeLit, *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			if graphSizeFields[x.Sel.Name] {
				found = true
				return false
			}
		case *ast.Ident:
			if obj := p.Info.Uses[x]; obj != nil && sized[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// checkLoops reports every graph-sized make whose enclosing statement sits
// inside a for/range body.
func (r *ScratchRule) checkLoops(p *Package, body *ast.BlockStmt, sized map[types.Object]bool,
	report func(pos token.Pos, format string, args ...any)) {
	inLoop := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			inLoop++
			defer func() { inLoop-- }()
			for _, child := range childNodes(n) {
				ast.Inspect(child, walk)
			}
			return false
		case *ast.FuncLit:
			// A nested closure is its own scratch scope; a make inside it
			// still counts when the closure body sits inside a loop, which
			// the shared inLoop counter already tracks.
			return true
		case *ast.CallExpr:
			if inLoop == 0 || !isBuiltinMake(p, s) {
				return true
			}
			for _, arg := range s.Args[1:] {
				if mentionsGraphSize(p, arg, sized) {
					report(s.Pos(), "graph-sized make inside a loop allocates O(V) scratch per iteration; hoist the buffer above the loop and reuse it")
					break
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// isBuiltinMake reports whether call is the make builtin with a size
// argument.
func isBuiltinMake(p *Package, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) < 2 {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}
