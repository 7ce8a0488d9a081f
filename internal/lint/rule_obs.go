package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ObsRule guards the observability layer's lane discipline inside parallel
// kernel bodies. obs.Histogram shards its buckets across per-worker lanes
// precisely so that concurrent Record calls do not contend; a Record
// inside a parallel kernel body that passes anything other than the
// body's worker index defeats that sharding — every worker hammers one lane's cache
// line, and the "free when enabled" promise of the histograms silently
// becomes a scalability bug in the hottest loops of the codebase.
//
// The rule flags, inside every function-literal body passed to a
// par.For*-family call or a backend.NewDense/NewSweep pass in an engine
// package:
//
//   - any obs.Histogram Record call when the body has no worker parameter
//     (par.For, backend.NewDense, ... — use an indexed variant instead);
//   - a Record whose first argument is not exactly the body's worker
//     parameter (par.ForDynamicIndexed, par.ForWorkersIndexed,
//     backend.NewSweep).
//
// Record calls outside kernel bodies are exempt: serial code records into
// lane 0 (or any constant) with no contention.
type ObsRule struct{}

// Name implements Rule.
func (r *ObsRule) Name() string { return "obs" }

// Doc implements Rule.
func (r *ObsRule) Doc() string {
	return "histogram Record inside par.For* and backend.NewDense/NewSweep bodies must pass the body's worker index"
}

// Check implements Rule.
func (r *ObsRule) Check(p *Package, report func(pos token.Pos, format string, args ...any)) {
	if !isEngine(p.Rel) {
		return
	}
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

// checkBody inspects one kernel body for Record lane misuse.
func (r *ObsRule) checkBody(p *Package, callName string, lit *ast.FuncLit, report func(pos token.Pos, format string, args ...any)) {
	worker := workerParam(p, lit)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !isObsHistRecord(p, sel) {
			return true
		}
		if worker == nil {
			report(call.Pos(), "histogram Record inside %s body, which has no worker index; use an indexed variant and pass its worker parameter as the lane", callName)
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok && p.Info.Uses[id] == worker {
			return true
		}
		report(call.Args[0].Pos(), "histogram Record inside %s must pass the worker index %q as its lane, not %s",
			callName, worker.Name(), types.ExprString(call.Args[0]))
		return true
	})
}

// workerParam returns the types object of a par kernel body's worker
// parameter: the first of three int parameters (the Indexed-variant
// shape func(worker, lo, hi int)). Two-parameter bodies have none.
func workerParam(p *Package, lit *ast.FuncLit) types.Object {
	var names []*ast.Ident
	for _, field := range lit.Type.Params.List {
		names = append(names, field.Names...)
	}
	if len(names) != 3 {
		return nil
	}
	return p.Info.Defs[names[0]]
}

// isObsHistRecord reports whether sel names the Record method of
// graphmaze/internal/obs's Histogram type.
func isObsHistRecord(p *Package, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Record" {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Histogram" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/obs")
}
