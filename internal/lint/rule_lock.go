package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// LockRule enforces mutex discipline on a flat, source-order reading of
// every function body, each function literal's body read on its own:
//   - every Lock/RLock of a sync.Mutex or sync.RWMutex is followed, as its
//     very next statement, by a defer of the matching Unlock/RUnlock on
//     the same mutex, so a panic or an early return anywhere after it
//     still releases the lock. A site that cannot defer carries
//     //lint:ignore lock with the reason nothing between its Lock and its
//     Unlock can panic or return early. This check covers library
//     packages; package main (the commands, the examples and the
//     benchmark program) is outside it. TryLock is not read: par.Pool's
//     two dispatch sections are the tree's only TryLock sites, and each
//     defers its release;
//   - a write Lock of a mutex whose last operation in the body is still a
//     Lock is a self-deadlock (a deferred Unlock does not release it);
//   - a struct field written with a lock held in one function must not be
//     written with none held in another. "Held" is lexical: the last
//     Lock/Unlock before the write, on a mutex rooted at the written
//     value's root object, is a Lock. Constructor paths (New*/new*/init,
//     or writes to values built in the same function) are exempt, and a
//     "caller holds mu" doc comment counts the helper's writes as held.
type LockRule struct{}

// Name implements Rule.
func (*LockRule) Name() string { return "lock" }

// Doc implements Rule.
func (*LockRule) Doc() string {
	return "every Lock is followed by defer Unlock, no mutex is locked twice, and guarded fields stay guarded"
}

// lockKey identifies one mutex as seen from one function body: the root
// object of the receiver chain plus the rendered chain, with read locks
// tracked apart from write locks.
type lockKey struct {
	root types.Object
	path string // "s.mu"
	read bool
}

func (k lockKey) describe() string {
	if k.read {
		return k.path + " (read lock)"
	}
	return k.path
}

// lockOp is one Lock/RLock/Unlock/RUnlock call on a sync mutex.
type lockOp struct {
	key  lockKey
	lock bool // Lock/RLock (vs Unlock/RUnlock)
	call *ast.CallExpr
}

// mutexOp recognizes calls to the Lock/Unlock family of sync.Mutex and
// sync.RWMutex and resolves the receiver to a lockKey. Receivers rooted
// in calls or indexing are not tracked.
func mutexOp(p *Package, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	op := lockOp{call: call}
	switch sel.Sel.Name {
	case "Lock":
		op.lock = true
	case "RLock":
		op.lock, op.key.read = true, true
	case "Unlock":
	case "RUnlock":
		op.key.read = true
	default:
		return lockOp{}, false
	}
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	var fields []string
	for x := sel.X; ; {
		switch e := ast.Unparen(x).(type) {
		case *ast.SelectorExpr:
			fields = append(fields, e.Sel.Name)
			x = e.X
		case *ast.Ident:
			if op.key.root = p.Info.Uses[e]; op.key.root == nil {
				op.key.root = p.Info.Defs[e]
			}
			slices.Reverse(fields)
			op.key.path = strings.Join(append([]string{e.Name}, fields...), ".")
			return op, op.key.root != nil
		default:
			return lockOp{}, false
		}
	}
}

// fieldWrite records one struct-field write for the guarded-field
// summary.
type fieldWrite struct {
	pos     token.Pos
	fn      string
	guarded bool // a lock rooted at the written value was held
	exempt  bool // constructor path: New*/init, or locally built value
}

// Check implements Rule.
func (r *LockRule) Check(p *Package, report func(pos token.Pos, format string, args ...any)) {
	writes := make(map[types.Object][]fieldWrite)
	for _, file := range p.Files {
		funcBodies(file, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
			r.checkBody(p, decl, body, writes, report)
		})
	}

	// Guarded-field summaries: a field written under a lock somewhere
	// must not be written lock-free elsewhere.
	var fields []types.Object
	for obj, ws := range writes {
		if slices.ContainsFunc(ws, func(w fieldWrite) bool { return w.guarded }) {
			fields = append(fields, obj)
		}
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].Pos() < fields[j].Pos() })
	for _, obj := range fields {
		var guardedIn []string
		for _, w := range writes[obj] {
			if w.guarded {
				guardedIn = append(guardedIn, w.fn)
			}
		}
		sort.Strings(guardedIn)
		for _, w := range writes[obj] {
			if w.guarded || w.exempt || slices.Contains(guardedIn, w.fn) {
				continue
			}
			report(w.pos, "field %s is written without a lock here but under a lock elsewhere (e.g. in %s)",
				obj.Name(), guardedIn[0])
		}
	}
}

func (r *LockRule) checkBody(p *Package, decl *ast.FuncDecl, body *ast.BlockStmt,
	writes map[types.Object][]fieldWrite, report func(pos token.Pos, format string, args ...any)) {
	fnName := decl.Name.Name
	constructor := strings.HasPrefix(fnName, "New") || strings.HasPrefix(fnName, "new") || fnName == "init"
	// The "Caller holds x.mu" doc convention: such helpers write guarded
	// state on behalf of a caller that took the lock.
	callerHolds := docSaysCallerHolds(decl.Doc)

	next := make(map[*ast.CallExpr]ast.Stmt) // a call statement → the statement after it
	pairNext := func(list []ast.Stmt) {
		for i := 0; i+1 < len(list); i++ {
			if es, ok := list[i].(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					next[call] = list[i+1]
				}
			}
		}
	}
	held := make(map[lockKey]token.Pos) // keys whose last op so far is a Lock
	doubled := make(map[lockKey]bool)
	var locks []lockOp
	recordWrite := func(lhs ast.Expr) {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			return
		}
		obj := selectedObject(p, sel)
		if obj == nil || !isStructField(obj) || isSyncType(obj.Type()) {
			return
		}
		root := exprRootOfChain(p, sel.X)
		guarded := callerHolds
		for k := range held {
			guarded = guarded || (root != nil && k.root == root)
		}
		writes[obj] = append(writes[obj], fieldWrite{
			pos:     sel.Pos(),
			fn:      fnName,
			guarded: guarded,
			exempt:  constructor || (root != nil && root.Pos() >= body.Pos() && root.Pos() <= body.End()),
		})
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			// A literal's body is read on its own, and a deferred Unlock
			// releases nothing until the function returns.
			return false
		case *ast.BlockStmt:
			pairNext(n.List)
		case *ast.CaseClause:
			pairNext(n.Body)
		case *ast.CommClause:
			pairNext(n.Body)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				recordWrite(lhs)
			}
		case *ast.IncDecStmt:
			recordWrite(n.X)
		case *ast.CallExpr:
			op, ok := mutexOp(p, n)
			switch {
			case !ok:
			case !op.lock:
				delete(held, op.key)
			default:
				if first, ok := held[op.key]; ok && !op.key.read {
					doubled[op.key] = true
					report(n.Pos(), "%s is locked again without an intervening Unlock (first Lock at %s): self-deadlock",
						op.key.describe(), p.Fset.Position(first))
				}
				held[op.key] = n.Pos()
				locks = append(locks, op)
			}
		}
		return true
	})

	for _, op := range locks {
		if doubled[op.key] || p.Types.Name() == "main" {
			continue // a double lock is the one finding on its mutex
		}
		if d, ok := next[op.call].(*ast.DeferStmt); ok {
			if un, ok := mutexOp(p, d.Call); ok && !un.lock && un.key == op.key {
				continue
			}
		}
		unlock := strings.Replace(op.call.Fun.(*ast.SelectorExpr).Sel.Name, "Lock", "Unlock", 1)
		report(op.call.Pos(), "%s is locked without `defer %s.%s()` as the next statement: a panic or return before the %s leaves it held (defer it, or give //lint:ignore lock the reason nothing in between can panic or return)",
			op.key.describe(), op.key.path, unlock, unlock)
	}
}

// funcBodies yields every function body in the file — declarations and
// function literals — with the enclosing declaration (the literal
// inherits the declaration it appears in).
func funcBodies(file *ast.File, visit func(decl *ast.FuncDecl, body *ast.BlockStmt)) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		visit(fn, fn.Body)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				visit(fn, lit.Body)
			}
			return true
		})
	}
}

// docSaysCallerHolds recognizes the "Caller holds ..." / "caller must
// hold ..." doc-comment convention on lock-free helpers.
func docSaysCallerHolds(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	text := strings.ToLower(doc.Text())
	return strings.Contains(text, "caller holds") || strings.Contains(text, "caller must hold") ||
		strings.Contains(text, "callers hold")
}

// isStructField reports whether obj is a struct field.
func isStructField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.IsField()
}

// isSyncType reports whether t (possibly pointer) is declared in sync or
// sync/atomic — mutexes and atomic boxes manage their own discipline.
func isSyncType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == "sync" || path == "sync/atomic"
}

// selectedObject resolves x.f to f's object when it is a struct field or a
// package-level variable.
func selectedObject(p *Package, e *ast.SelectorExpr) types.Object {
	if sel, ok := p.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
		return sel.Obj()
	}
	if obj, ok := p.Info.Uses[e.Sel].(*types.Var); ok {
		return obj
	}
	return nil
}

// calleeFunc statically resolves the function a call invokes: a plain
// identifier, a package-qualified function, or a method. Calls through
// function values and interfaces resolve to nil.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok && sel.Kind() == types.MethodVal {
				return fn
			}
			return nil
		}
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
