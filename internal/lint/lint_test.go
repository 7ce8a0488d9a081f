package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// loadFixture type-checks an in-memory package rooted at the module-relative
// directory rel. Files maps base names to source text.
func loadFixture(t *testing.T, rel string, files map[string]string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	var parsed []*ast.File
	for name, src := range files {
		full := name
		if rel != "" {
			full = rel + "/" + name
		}
		f, err := parser.ParseFile(fset, full, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		parsed = append(parsed, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	path := "graphmaze"
	if rel != "" {
		path = "graphmaze/" + rel
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(path, fset, parsed, info)
	if err != nil {
		t.Fatalf("type-check fixture: %v", err)
	}
	return &Package{Rel: rel, Path: path, Fset: fset, Files: parsed, Types: tpkg, Info: info}
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

func TestAtomicRuleFlagsMixedAccess(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

import "sync/atomic"

var counter int64

func Bump() { atomic.AddInt64(&counter, 1) }

func Read() int64 { return counter }
`})
	wantFinding(t, runRule(t, p, &AtomicRule{}), "internal/fix/a.go", 9, "atomic")
}

func TestAtomicRuleElementAccess(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

import "sync/atomic"

func Fill(xs []int64) {
	atomic.AddInt64(&xs[0], 1)
	xs[1] = 2
	_ = xs // slice header use is fine
	for _, v := range xs {
		_ = v
	}
}
`})
	findings := runRule(t, p, &AtomicRule{})
	if len(findings) != 2 {
		t.Fatalf("want 2 findings (plain element write + element range), got %d: %v", len(findings), findings)
	}
	if findings[0].Line != 7 || findings[1].Line != 9 {
		t.Fatalf("want findings at lines 7 and 9, got %v", findings)
	}
}

func TestAtomicRuleCleanAllAtomic(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

import "sync/atomic"

var counter int64

func Bump() { atomic.AddInt64(&counter, 1) }

func Read() int64 { return atomic.LoadInt64(&counter) }
`})
	if got := runRule(t, p, &AtomicRule{}); len(got) != 0 {
		t.Fatalf("all-atomic access should be clean, got %v", got)
	}
}

func TestAtomicRuleDistinctLocalsDoNotAlias(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

import "sync/atomic"

func A() {
	var x int64
	atomic.AddInt64(&x, 1)
}

func B() {
	var x int64
	x = 2
	_ = x
}
`})
	if got := runRule(t, p, &AtomicRule{}); len(got) != 0 {
		t.Fatalf("distinct locals named x must not alias, got %v", got)
	}
}

func TestPanicRuleFlagsLibraryPanic(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

func Convert(x int) int {
	if x < 0 {
		panic("negative")
	}
	return x
}
`})
	wantFinding(t, runRule(t, p, &PanicRule{}), "internal/fix/a.go", 5, "panic")
}

func TestPanicRuleAllowsBuilderPaths(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{
		"a.go": `package fix

func MustConvert(x int) int {
	if x < 0 {
		panic("negative")
	}
	return x
}

func ValidateInput(x int) {
	if x < 0 {
		panic("negative")
	}
}
`,
		"builder.go": `package fix

func BuildThing(x int) int {
	if x < 0 {
		panic("negative")
	}
	return x
}
`})
	if got := runRule(t, p, &PanicRule{}); len(got) != 0 {
		t.Fatalf("Must*/Validate*/builder.go panics are allowed, got %v", got)
	}
}

func TestPanicRuleSkipsMainPackages(t *testing.T) {
	p := loadFixture(t, "cmd/tool", map[string]string{"main.go": `package main

func run() {
	panic("cli may die loudly")
}

func main() { run() }
`})
	if got := runRule(t, p, &PanicRule{}); len(got) != 0 {
		t.Fatalf("package main is exempt, got %v", got)
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
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

import "sync/atomic"

var counter int64

func Bump() { atomic.AddInt64(&counter, 1) }

func Read() int64 {
	//lint:ignore atomic read happens after the join in every caller
	return counter
}
`})
	if got := runRule(t, p, &AtomicRule{}); len(got) != 0 {
		t.Fatalf("directive should suppress the finding, got %v", got)
	}
}

func TestFileIgnoreSuppressesWholeFile(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

//lint:file-ignore atomic this file exposes a dual plain/atomic API by design

import "sync/atomic"

var counter int64

func Bump() { atomic.AddInt64(&counter, 1) }

func Read() int64 { return counter }

func Write() { counter = 0 }
`})
	if got := runRule(t, p, &AtomicRule{}); len(got) != 0 {
		t.Fatalf("file-ignore should suppress every finding, got %v", got)
	}
}

func TestDirectiveWithoutReasonIsAFinding(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

//lint:ignore atomic
func f() {}
`})
	findings := runRule(t, p, &AtomicRule{})
	if len(findings) != 1 || findings[0].Rule != "directive" {
		t.Fatalf("reason-less directive must be reported, got %v", findings)
	}
}

func TestDirectiveUnknownRuleIsAFinding(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

//lint:ignore nosuchrule because reasons
func f() {}
`})
	findings := runRule(t, p, &AtomicRule{})
	if len(findings) != 1 || findings[0].Rule != "directive" || !strings.Contains(findings[0].Msg, "nosuchrule") {
		t.Fatalf("unknown-rule directive must be reported, got %v", findings)
	}
}

// TestModuleIsClean runs the full analyzer over the real module: the tree
// must stay graphlint-clean, which is the same gate CI enforces.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide analysis is slow; covered by the non-short run and CI")
	}
	modDir, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(modDir)
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
