package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"strings"
	"sync"
	"testing"
)

// fixtures type-checks every fixture package of the tests over one
// FileSet and one standard-library importer, so the standard library is
// read once per test binary, not once per fixture. Its module is
// "graphmaze" with no directory: the only module packages it resolves are
// the stand-ins for internal/par and internal/backend that fixtureLoader
// registers.
var fixtures *loader

// fixtureParSrc and fixtureBackendSrc stand in for graphmaze/internal/par
// and graphmaze/internal/backend with the same package names and
// kernel-body-taking shapes: the det and hotalloc rules match on the
// imported package's name, so fixtures do not need the real schedulers.
const fixtureParSrc = `// Package par is the fixture pool.
package par

// Runner is the unit of work a Pool dispatches.
type Runner interface{ RunChunk(worker, lo, hi int) }

// RunnerFunc adapts a function to a Runner.
type RunnerFunc func(worker, lo, hi int)

// RunChunk implements Runner.
func (f RunnerFunc) RunChunk(worker, lo, hi int) { f(worker, lo, hi) }

// Pool is the fixture worker pool.
type Pool struct{}

// RunStatic runs r over the ranges in bounds.
func (p *Pool) RunStatic(r Runner, bounds []int) { r.RunChunk(0, bounds[0], bounds[len(bounds)-1]) }

// For runs f over static chunks.
func For(n int, f func(lo, hi int)) { f(0, n) }
`

const fixtureBackendSrc = `// Package backend is the fixture kernel library.
package backend

import "graphmaze/internal/par"

// NewDense runs f as a static pass over [0, n).
func NewDense(p *par.Pool, n int, f func(lo, hi int)) *par.Pool { f(0, n); return p }

// NewSweep runs f as a dynamic pass over [0, n).
func NewSweep(p *par.Pool, n, grain int, f func(w, lo, hi int)) *par.Pool { f(0, 0, n); return p }
`

// fixtureLoader returns the shared fixture loader, building it (and the
// fixture par and backend packages) on first use.
func fixtureLoader(t *testing.T) *loader {
	t.Helper()
	if fixtures != nil {
		return fixtures
	}
	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		modPath: "graphmaze",
		pkgs:    make(map[string]*Package),
		std:     importer.ForCompiler(fset, "gc", nil),
	}
	for _, fx := range []struct{ rel, src string }{
		{"internal/par", fixtureParSrc},
		{"internal/backend", fixtureBackendSrc},
	} {
		f, err := parser.ParseFile(fset, fx.rel+"/fixture.go", fx.src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ld.check(fx.rel, []*ast.File{f})
		if err != nil {
			t.Fatalf("type-check fixture %s: %v", fx.rel, err)
		}
		ld.pkgs[fx.rel] = p
	}
	fixtures = ld
	return ld
}

// loadFixture type-checks an in-memory package rooted at the module-relative
// directory rel. Files maps base names to source text; they may import
// graphmaze/internal/par and graphmaze/internal/backend.
func loadFixture(t *testing.T, rel string, files map[string]string) *Package {
	t.Helper()
	ld := fixtureLoader(t)
	var parsed []*ast.File
	for name, src := range files {
		full := name
		if rel != "" {
			full = rel + "/" + name
		}
		f, err := parser.ParseFile(ld.fset, full, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		parsed = append(parsed, f)
	}
	p, err := ld.check(rel, parsed)
	if err != nil {
		t.Fatalf("type-check fixture: %v", err)
	}
	return p
}

// runRule applies a single rule (plus directive processing) to the fixture.
func runRule(t *testing.T, p *Package, r Rule) []Finding {
	t.Helper()
	return Run([]*Package{p}, []Rule{r})
}

// wantFinding asserts exactly one finding at file:line for rule, and that
// its rendered form carries the [rule] tag.
func wantFinding(t *testing.T, findings []Finding, file string, line int, rule string) {
	t.Helper()
	if len(findings) != 1 {
		t.Fatalf("want exactly 1 finding, got %d: %v", len(findings), findings)
	}
	f := findings[0]
	if f.File != file || f.Line != line || f.Rule != rule {
		t.Fatalf("want %s:%d [%s], got %s:%d [%s] %s", file, line, rule, f.File, f.Line, f.Rule, f.Msg)
	}
	if !strings.Contains(f.String(), "["+rule+"]") || !strings.HasPrefix(f.String(), file+":") {
		t.Fatalf("rendered finding %q lacks file:line: [rule] shape", f.String())
	}
}

func TestTruncateRuleFlags64BitNarrowing(t *testing.T) {
	p := loadFixture(t, "internal/graph", map[string]string{"a.go": `package graph

func Narrow(x int64) uint32 {
	return uint32(x)
}
`})
	wantFinding(t, runRule(t, p, &TruncateRule{}), "internal/graph/a.go", 4, "truncate")
}

func TestTruncateRuleFlagsLenNarrowing(t *testing.T) {
	p := loadFixture(t, "internal/gen", map[string]string{"a.go": `package gen

func Count(xs []byte) uint32 {
	return uint32(len(xs))
}
`})
	wantFinding(t, runRule(t, p, &TruncateRule{}), "internal/gen/a.go", 4, "truncate")
}

func TestTruncateRuleFlagsSignedIntNarrowing(t *testing.T) {
	p := loadFixture(t, "internal/galois", map[string]string{"a.go": `package galois

func Narrow(x int) int32 {
	return int32(x)
}
`})
	wantFinding(t, runRule(t, p, &TruncateRule{}), "internal/galois/a.go", 4, "truncate")
}

func TestTruncateRuleAllowsIdioms(t *testing.T) {
	p := loadFixture(t, "internal/graph", map[string]string{"a.go": `package graph

func Idioms(n uint32) []uint32 {
	out := make([]uint32, 0, n)
	for i := 0; i < int(n); i++ {
		out = append(out, uint32(i)) // int loop var to uint32: the vertex-id idiom
	}
	const k = 7
	out = append(out, uint32(k)) // constants are compiler-checked
	return out
}
`})
	if got := runRule(t, p, &TruncateRule{}); len(got) != 0 {
		t.Fatalf("loop-var and constant conversions are allowed, got %v", got)
	}
}

func TestTruncateRuleSkipsUntargetedPackages(t *testing.T) {
	p := loadFixture(t, "internal/obs", map[string]string{"a.go": `package obs

func Narrow(x int64) uint32 { return uint32(x) }
`})
	if got := runRule(t, p, &TruncateRule{}); len(got) != 0 {
		t.Fatalf("rule only applies to graph/gen/engine packages, got %v", got)
	}
}

func TestIgnoreDirectiveSuppressesFinding(t *testing.T) {
	p := loadFixture(t, "internal/graph", map[string]string{"a.go": `package graph

func Narrow(x int64) uint32 {
	//lint:ignore truncate every caller passes a vertex id below 2^32
	return uint32(x)
}
`})
	if got := runRule(t, p, &TruncateRule{}); len(got) != 0 {
		t.Fatalf("directive should suppress the finding, got %v", got)
	}
}

func TestFileIgnoreSuppressesWholeFile(t *testing.T) {
	p := loadFixture(t, "internal/graph", map[string]string{"a.go": `package graph

//lint:file-ignore truncate every function here narrows ids its callers range-check

func Narrow(x int64) uint32 { return uint32(x) }

func Count(xs []byte) uint32 { return uint32(len(xs)) }
`})
	if got := runRule(t, p, &TruncateRule{}); len(got) != 0 {
		t.Fatalf("file-ignore should suppress every finding, got %v", got)
	}
}

func TestDirectiveWithoutReasonIsAFinding(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

//lint:ignore truncate
func f() {}
`})
	findings := runRule(t, p, &TruncateRule{})
	if len(findings) != 1 || findings[0].Rule != "directive" {
		t.Fatalf("reason-less directive must be reported, got %v", findings)
	}
}

func TestDirectiveUnknownRuleIsAFinding(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

//lint:ignore nosuchrule because reasons
func f() {}
`})
	findings := runRule(t, p, &TruncateRule{})
	if len(findings) != 1 || findings[0].Rule != "directive" || !strings.Contains(findings[0].Msg, "nosuchrule") {
		t.Fatalf("unknown-rule directive must be reported, got %v", findings)
	}
}

// loadModule is the one load of the real module that TestModuleIsClean,
// TestMutantsAreCaught and TestKernelSurfaceHasCallers share.
var loadModule = sync.OnceValues(func() (*loader, error) {
	modDir, err := FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	ld, err := newLoader(modDir)
	if err == nil {
		_, err = ld.loadAll()
	}
	return ld, err
})

// moduleLoader returns the shared module load; the module-wide tests skip
// under -short, where the rest of the suite stays quick.
func moduleLoader(t *testing.T) *loader {
	t.Helper()
	if testing.Short() {
		t.Skip("module-wide analysis is slow; covered by the non-short run and CI")
	}
	ld, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	return ld
}

// TestModuleIsClean runs the full analyzer over the real module: the tree
// must stay graphlint-clean, which is the same gate CI enforces.
func TestModuleIsClean(t *testing.T) {
	pkgs, err := moduleLoader(t).loadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("expected to load the whole module, got %d packages", len(pkgs))
	}
	findings := Run(pkgs, DefaultRules())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
