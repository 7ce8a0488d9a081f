package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// testOracles are the exported functions and methods whose only callers
// are tests, by design, each with a test that uses it. internal/core's
// serial references and the comparisons made against them are shared by
// tests in every engine package and the root reference table
// (TestEnginesMatchReference), and no package's tests can import another's
// test file. An entry that gains a non-test caller, or whose declaration
// is gone, fails the test.
var testOracles = map[string]string{
	"internal/core.RefPageRank":                "TestEnginesMatchReference",
	"internal/core.RefBFS":                     "TestEnginesMatchReference",
	"internal/core.RefTriangleCount":           "TestEnginesMatchReference",
	"internal/core.ComparePageRank":            "TestEnginesMatchReference",
	"internal/core.EqualDistances":             "TestEnginesMatchReference",
	"internal/core.MonotonicallyNonIncreasing": "TestEnginesMatchReference",
	"internal/core.ValidateBFS":                "TestEnginesMatchReference",
	// The edge list of a prepared graph, which tests rebuild graphs from.
	"internal/graph.CSR.Edges": "TestConformanceRejectsUnsortedTriangleInput",
	// The replay that restores a graph from its epoch store reads it
	// (ROADMAP item 2); until then its tests hold the stored chain to the
	// live epochs.
	"internal/ckpt.EpochStore.Load": "TestEpochStoreSaveDeltaLoadsEveryEpoch",
}

// TestKernelSurfaceHasCallers: every exported function and method of
// every package under internal/ is called by non-test code somewhere in
// the repository, bench/ included. A name only tests call is a second
// implementation nobody runs (DESIGN.md §12): delete it, give it the
// caller it is for, or list it in testOracles with the test that uses it.
// The check resolves every reference through go/types, on the module load
// TestModuleIsClean shares (bench/ included), so a dead method that shares
// its name with a live one or with a field is still found. A method counts
// as called when a reference resolves to it or when it implements an
// interface method some reference resolves to; fmt.Stringer's String and
// error's Error count as referenced, since fmt calls them on the values it
// formats. Exported methods on unexported receiver types are exempt:
// outside their package they are reachable only through an interface,
// often one the standard library calls (sort.Interface's Less and Swap,
// say), which no reference here shows.
func TestKernelSurfaceHasCallers(t *testing.T) {
	pkgs, err := moduleLoader(t).loadAll()
	if err != nil {
		t.Fatal(err)
	}
	called := map[*types.Func]bool{}
	ifaceMethods := map[string][]*types.Func{ // by name
		"Error": {types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0)},
	}
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			if imp.Path() == "fmt" && len(ifaceMethods["String"]) == 0 {
				stringer := imp.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface)
				ifaceMethods["String"] = []*types.Func{stringer.Method(0)}
			}
		}
		for _, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || called[fn.Origin()] {
				continue
			}
			fn = fn.Origin()
			called[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceMethods[fn.Name()] = append(ifaceMethods[fn.Name()], fn)
			}
		}
	}
	implementsCalled := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, m := range ifaceMethods[fn.Name()] {
			iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
		return false
	}

	checked, oracles := 0, map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Rel, "internal/") {
			continue
		}
		for _, file := range p.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || !decl.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[decl.Name].(*types.Func)
				key := p.Rel + "." + fn.Name()
				recv := fn.Type().(*types.Signature).Recv()
				if recv != nil {
					named := recv.Type()
					if ptr, ok := named.(*types.Pointer); ok {
						named = ptr.Elem()
					}
					name := named.(*types.Named).Obj().Name()
					if !token.IsExported(name) {
						continue
					}
					key = p.Rel + "." + name + "." + fn.Name()
				}
				checked++
				live := called[fn] || (recv != nil && implementsCalled(fn))
				if testOracles[key] != "" {
					oracles[key] = true
					if live {
						t.Errorf("%s: %s is listed in testOracles but has a caller outside tests: delete the entry", p.Fset.Position(decl.Pos()), key)
					}
					continue
				}
				if !live {
					t.Errorf("%s: %s has no caller outside tests", p.Fset.Position(decl.Pos()), strings.TrimPrefix(key, "internal/"))
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no exported kernel declarations: the rule is checking nothing")
	}
	for key := range testOracles {
		if !oracles[key] {
			t.Errorf("testOracles lists %s, which is not an exported function or method: delete the entry", key)
		}
	}
}
