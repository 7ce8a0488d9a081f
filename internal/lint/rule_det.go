package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetRule is the determinism family. Bit-identical output across
// engines and across GOMAXPROCS values is the repo's core contract, so
// inside engine and checkpoint packages it flags the three ways order
// nondeterminism sneaks in:
//
//   - ranging over a map while feeding an order-sensitive sink: calls
//     like Send/Encode/Write, or appends into state declared outside the
//     loop. Collect-keys-then-sort is the blessed idiom and is not
//     flagged (the appended slice is passed to a sort in the same
//     function).
//   - wall-clock time (time.Now/Since) or the unseeded global math/rand
//     generator reachable — through the package call graph — from
//     parallel kernel bodies or codec functions (encode/decode/
//     snapshot/marshal).
//   - floating-point accumulation into a shared scalar inside a
//     parallel kernel body (par.For*, backend.NewDense/NewSweep): float
//     addition is not associative, so reduction order must be fixed per
//     worker, not raced over.
type DetRule struct{}

// Name implements Rule.
func (*DetRule) Name() string { return "det" }

// Doc implements Rule.
func (*DetRule) Doc() string {
	return "map iteration, wall clock, global rand, and float accumulation must not leak nondeterminism into engine output"
}

// Check implements Rule.
func (r *DetRule) Check(p *Package, report func(pos token.Pos, format string, args ...any)) {
	if !isEngine(p.Rel) && !strings.Contains(p.Rel, "ckpt") {
		return
	}
	cg := BuildCallGraph(p)
	reported := make(map[token.Pos]bool)
	flag := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			report(pos, format, args...)
		}
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			r.checkMapRanges(p, fn, flag)
			r.checkParBodies(p, cg, fn, flag)
			if isCodecName(fn.Name.Name) {
				r.checkImpureReach(p, cg, fn, flag)
			}
		}
	}
}

// isCodecName reports whether a function name marks a codec path whose
// byte stream must be reproducible.
func isCodecName(name string) bool {
	l := strings.ToLower(name)
	for _, frag := range []string{"encode", "decode", "snapshot", "marshal", "checksum"} {
		if strings.Contains(l, frag) {
			return true
		}
	}
	return false
}

// orderSinkNames are method names whose call order is observable:
// message sends, stream/encoder writes, hashing.
var orderSinkNames = map[string]bool{
	"Send": true, "Encode": true, "Write": true, "WriteString": true,
	"WriteByte": true, "Sum": true, "Emit": true,
}

// checkMapRanges flags range-over-map loops whose bodies feed
// order-sensitive sinks.
func (r *DetRule) checkMapRanges(p *Package, fn *ast.FuncDecl, flag func(pos token.Pos, format string, args ...any)) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := p.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.CallExpr:
				if sel, ok := s.Fun.(*ast.SelectorExpr); ok && orderSinkNames[sel.Sel.Name] {
					flag(s.Pos(), "%s called while ranging over a map: iteration order is random per run; iterate sorted keys instead", sel.Sel.Name)
				}
			case *ast.SendStmt:
				flag(s.Pos(), "channel send while ranging over a map: the receiver observes a random order per run; iterate sorted keys instead")
			case *ast.AssignStmt:
				r.checkMapRangeAssign(p, fn, rng, s, flag)
			}
			return true
		})
		return true
	})
}

// checkMapRangeAssign flags appends into outer state and float
// accumulation inside a map-range body.
func (r *DetRule) checkMapRangeAssign(p *Package, fn *ast.FuncDecl, rng *ast.RangeStmt, s *ast.AssignStmt,
	flag func(pos token.Pos, format string, args ...any)) {
	// Float accumulation: order-dependent regardless of the sink.
	if s.Tok == token.ADD_ASSIGN || s.Tok == token.SUB_ASSIGN || s.Tok == token.MUL_ASSIGN || s.Tok == token.QUO_ASSIGN {
		for _, lhs := range s.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || !isFloatExpr(p, lhs) {
				continue
			}
			if obj := p.Info.Uses[id]; obj != nil && !within(obj.Pos(), rng) {
				flag(s.Pos(), "floating-point accumulation into %s while ranging over a map: float addition is not associative, so the result depends on iteration order", id.Name)
			}
		}
		return
	}
	// Appends into a destination declared outside the range: the
	// destination's element order now depends on map iteration order —
	// unless the slice is sorted afterwards (collect-then-sort idiom).
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		return
	}
	for i, rhs := range s.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltinAppend(p, call) || i >= len(s.Lhs) {
			continue
		}
		root := exprRootOfChain(p, s.Lhs[i])
		if root == nil || within(root.Pos(), rng) {
			continue
		}
		if sortedLater(p, fn.Body, root) {
			continue
		}
		flag(s.Pos(), "append to %s while ranging over a map makes its element order random per run; iterate sorted keys, or sort the result before use", types.ExprString(s.Lhs[i]))
	}
}

// within reports whether pos falls inside node n's source span.
func within(pos token.Pos, n ast.Node) bool {
	return pos >= n.Pos() && pos <= n.End()
}

// isFloatExpr reports whether e has floating-point type.
func isFloatExpr(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// isBuiltinAppend reports whether call is the append builtin.
func isBuiltinAppend(p *Package, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// exprRootOfChain resolves the base object of an lvalue: the identifier
// at the root of any selector/index chain.
func exprRootOfChain(p *Package, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := p.Info.Uses[x]; obj != nil {
				return obj
			}
			return p.Info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sortedLater reports whether the function passes obj to a sort call —
// the collect-then-sort idiom that makes map collection deterministic.
func sortedLater(p *Package, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
			if id, ok := fun.X.(*ast.Ident); ok {
				name = id.Name + "." + name
			}
		}
		if !strings.Contains(strings.ToLower(name), "sort") {
			return true
		}
		for _, arg := range call.Args {
			if exprRootOfChain(p, arg) == obj {
				found = true
			}
		}
		return true
	})
	return found
}

// checkParBodies scans the parallel kernel bodies (forEachParBody) for
// wall-clock reads, global rand, and shared float accumulation.
func (r *DetRule) checkParBodies(p *Package, cg *CallGraph, fn *ast.FuncDecl,
	flag func(pos token.Pos, format string, args ...any)) {
	forEachParBody(p, fn.Body, func(callName string, lit *ast.FuncLit) {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.CallExpr:
				callee := calleeFunc(p, s)
				if callee == nil {
					return true
				}
				switch {
				case isWallClockFunc(callee):
					flag(s.Pos(), "time.%s inside a %s body: wall-clock reads in parallel kernels vary run to run; use the virtual clock or time outside the loop", callee.Name(), callName)
				case isGlobalRandFunc(callee):
					flag(s.Pos(), "global math/rand.%s inside a %s body is unseeded and nondeterministic; draw from an explicit rand.New(rand.NewSource(seed))", callee.Name(), callName)
				case callee.Pkg() == p.Types:
					if cg.ReachesWallClock(callee) {
						flag(s.Pos(), "%s reaches time.Now/Since and is called inside a %s body; kernels must not read the wall clock", callee.Name(), callName)
					}
					if cg.ReachesGlobalRand(callee) {
						flag(s.Pos(), "%s reaches the global math/rand generator and is called inside a %s body; pass a seeded *rand.Rand instead", callee.Name(), callName)
					}
				}
			case *ast.AssignStmt:
				if s.Tok != token.ADD_ASSIGN && s.Tok != token.SUB_ASSIGN && s.Tok != token.MUL_ASSIGN {
					return true
				}
				for _, lhs := range s.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok || !isFloatExpr(p, lhs) {
						continue
					}
					if obj := p.Info.Uses[id]; obj != nil && !within(obj.Pos(), lit) {
						flag(s.Pos(), "floating-point accumulation into %s, captured from outside a %s body: reduction order depends on scheduling; accumulate per worker and combine in a fixed order", id.Name, callName)
					}
				}
			}
			return true
		})
	})
}

// checkImpureReach flags codec functions that can reach wall-clock or
// global-rand calls through the package call graph.
func (r *DetRule) checkImpureReach(p *Package, cg *CallGraph, fn *ast.FuncDecl,
	flag func(pos token.Pos, format string, args ...any)) {
	obj, ok := p.Info.Defs[fn.Name].(*types.Func)
	if !ok {
		return
	}
	if cg.ReachesWallClock(obj) {
		pos, via := impureWitness(cg, obj, 0)
		flag(pos, "codec function %s reaches time.Now/Since (in %s): encoded bytes must not depend on the wall clock", fn.Name.Name, via)
	}
	if cg.ReachesGlobalRand(obj) {
		pos, via := impureWitness(cg, obj, 1)
		flag(pos, "codec function %s reaches the global math/rand generator (in %s): encoded bytes must be reproducible", fn.Name.Name, via)
	}
}

// impureWitness walks the call graph to the first function with a direct
// impure call and returns its site and name.
func impureWitness(cg *CallGraph, fn *types.Func, what int) (token.Pos, string) {
	visited := make(map[*types.Func]bool)
	var walk func(f *types.Func) (token.Pos, string, bool)
	walk = func(f *types.Func) (token.Pos, string, bool) {
		if visited[f] {
			return token.NoPos, "", false
		}
		visited[f] = true
		s := cg.Summary(f)
		if s == nil {
			return token.NoPos, "", false
		}
		if what == 0 && s.WallClock {
			return s.WallClockPos, f.Name(), true
		}
		if what == 1 && s.GlobalRand {
			return s.GlobalRandPos, f.Name(), true
		}
		for _, c := range s.Callees {
			if pos, via, ok := walk(c); ok {
				return pos, via, true
			}
		}
		return token.NoPos, "", false
	}
	if pos, via, ok := walk(fn); ok {
		return pos, via
	}
	return fn.Pos(), fn.Name()
}

// forEachParBody finds every call inside body that takes a parallel
// kernel body — par.ForXxx(...), and the backend pool's
// backend.NewDense / backend.NewSweep passes where the served kernels
// live — and yields each function-literal argument: the hot parallel
// kernel bodies the det and hotalloc rules scope to.
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
		case pkg == "par" && strings.HasPrefix(name, "For"):
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
