package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

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

// loadFixtureWithPar type-checks an in-memory package like loadFixture,
// additionally making the fixture par and backend packages importable
// under their graphmaze paths.
func loadFixtureWithPar(t *testing.T, rel string, files map[string]string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	base := importer.ForCompiler(fset, "source", nil)

	prebuilt := map[string]*types.Package{}
	for _, fx := range []struct{ path, src string }{
		{"graphmaze/internal/par", fixtureParSrc},
		{"graphmaze/internal/backend", fixtureBackendSrc},
	} {
		f, err := parser.ParseFile(fset, fx.path+"/fixture.go", fx.src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		conf := types.Config{Importer: &prebuiltImporter{base: base, pkgs: prebuilt}}
		pkg, err := conf.Check(fx.path, fset, []*ast.File{f}, nil)
		if err != nil {
			t.Fatalf("type-check fixture %s: %v", fx.path, err)
		}
		prebuilt[fx.path] = pkg
	}

	var parsed []*ast.File
	for name, src := range files {
		f, err := parser.ParseFile(fset, rel+"/"+name, src, parser.ParseComments)
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
	conf := types.Config{Importer: &prebuiltImporter{base: base, pkgs: prebuilt}}
	path := "graphmaze/" + rel
	tpkg, err := conf.Check(path, fset, parsed, info)
	if err != nil {
		t.Fatalf("type-check fixture: %v", err)
	}
	return &Package{Rel: rel, Path: path, Fset: fset, Files: parsed, Types: tpkg, Info: info}
}

// prebuiltImporter serves already-checked in-memory packages and falls
// back to the source importer for everything else (stdlib).
type prebuiltImporter struct {
	base types.Importer
	pkgs map[string]*types.Package
}

func (m *prebuiltImporter) Import(path string) (*types.Package, error) {
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	if from, ok := m.base.(types.ImporterFrom); ok {
		return from.ImportFrom(path, "", 0)
	}
	return m.base.Import(path)
}

func (m *prebuiltImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	if from, ok := m.base.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return m.base.Import(path)
}

// ---------------------------------------------------------------- det --

func TestDetFlagsSendInMapRange(t *testing.T) {
	p := loadFixture(t, "internal/native", map[string]string{"a.go": `package native

type conn struct{}

func (c *conn) Send(to int, b []byte) {}

func Flush(c *conn, m map[int][]byte) {
	for to, b := range m {
		c.Send(to, b)
	}
}
`})
	wantFinding(t, runRule(t, p, &DetRule{}), "internal/native/a.go", 9, "det")
}

func TestDetFlagsChannelSendInMapRange(t *testing.T) {
	p := loadFixture(t, "internal/native", map[string]string{"a.go": `package native

func Drain(m map[int]int, ch chan int) {
	for k := range m {
		ch <- k
	}
}
`})
	wantFinding(t, runRule(t, p, &DetRule{}), "internal/native/a.go", 5, "det")
}

func TestDetFlagsAppendInMapRange(t *testing.T) {
	p := loadFixture(t, "internal/native", map[string]string{"a.go": `package native

func Vals(m map[int]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
`})
	wantFinding(t, runRule(t, p, &DetRule{}), "internal/native/a.go", 6, "det")
}

func TestDetAllowsCollectThenSort(t *testing.T) {
	p := loadFixture(t, "internal/native", map[string]string{"a.go": `package native

import "sort"

func Keys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
`})
	if got := runRule(t, p, &DetRule{}); len(got) != 0 {
		t.Fatalf("collect-then-sort is the blessed idiom, got %v", got)
	}
}

func TestDetFlagsFloatAccumulationInMapRange(t *testing.T) {
	p := loadFixture(t, "internal/native", map[string]string{"a.go": `package native

func Sum(m map[int]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}
`})
	wantFinding(t, runRule(t, p, &DetRule{}), "internal/native/a.go", 6, "det")
}

func TestDetAllowsIntAccumulationInMapRange(t *testing.T) {
	p := loadFixture(t, "internal/native", map[string]string{"a.go": `package native

func Count(m map[int]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}
`})
	if got := runRule(t, p, &DetRule{}); len(got) != 0 {
		t.Fatalf("integer counting is commutative and must not be flagged, got %v", got)
	}
}

func TestDetSkipsNonEnginePackages(t *testing.T) {
	p := loadFixture(t, "internal/metrics", map[string]string{"a.go": `package metrics

type conn struct{}

func (c *conn) Send(to int, b []byte) {}

func Flush(c *conn, m map[int][]byte) {
	for to, b := range m {
		c.Send(to, b)
	}
}
`})
	if got := runRule(t, p, &DetRule{}); len(got) != 0 {
		t.Fatalf("det's map-range check only applies to engine and ckpt packages, got %v", got)
	}
}

func TestDetFlagsWallClockInParBody(t *testing.T) {
	p := loadFixtureWithPar(t, "internal/native", map[string]string{"a.go": `package native

import (
	"time"

	"graphmaze/internal/par"
)

func Stamp(n int, out []int64) {
	par.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = time.Now().UnixNano()
		}
	})
}
`})
	wantFinding(t, runRule(t, p, &DetRule{}), "internal/native/a.go", 12, "det")
}

// TestDetFlagsWallClockInPoolBodyOutsideEngines: graph construction
// dispatches closures on a pool as par.RunnerFunc, and a wall-clock read
// there is flagged even though internal/graph is not an engine package.
func TestDetFlagsWallClockInPoolBodyOutsideEngines(t *testing.T) {
	p := loadFixtureWithPar(t, "internal/graph", map[string]string{"a.go": `package graph

import (
	"time"

	"graphmaze/internal/par"
)

func Stamp(pool *par.Pool, bounds []int, out []int64) {
	pool.RunStatic(par.RunnerFunc(func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = time.Now().UnixNano()
		}
	}), bounds)
}
`})
	wantFinding(t, runRule(t, p, &DetRule{}), "internal/graph/a.go", 12, "det")
}

func TestDetFlagsWallClockReachableThroughHelper(t *testing.T) {
	p := loadFixtureWithPar(t, "internal/native", map[string]string{"a.go": `package native

import (
	"time"

	"graphmaze/internal/par"
)

func stamp() int64 { return time.Now().UnixNano() }

func Kernel(n int, out []int64) {
	par.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = stamp()
		}
	})
}
`})
	wantFinding(t, runRule(t, p, &DetRule{}), "internal/native/a.go", 14, "det")
}

func TestDetFlagsGlobalRandInParBody(t *testing.T) {
	p := loadFixtureWithPar(t, "internal/native", map[string]string{"a.go": `package native

import (
	"math/rand"

	"graphmaze/internal/par"
)

func Shuffle(n int, out []int) {
	par.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = rand.Intn(n)
		}
	})
}
`})
	wantFinding(t, runRule(t, p, &DetRule{}), "internal/native/a.go", 12, "det")
}

func TestDetAllowsSeededRandInParBody(t *testing.T) {
	p := loadFixtureWithPar(t, "internal/native", map[string]string{"a.go": `package native

import (
	"math/rand"

	"graphmaze/internal/par"
)

func Shuffle(n int, out []int) {
	r := rand.New(rand.NewSource(42))
	par.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = r.Intn(n)
		}
	})
}
`})
	if got := runRule(t, p, &DetRule{}); len(got) != 0 {
		t.Fatalf("explicitly seeded rand is fine, got %v", got)
	}
}

func TestDetFlagsSharedFloatAccumulationInParBody(t *testing.T) {
	p := loadFixtureWithPar(t, "internal/native", map[string]string{"a.go": `package native

import "graphmaze/internal/par"

func Total(n int, xs []float64) float64 {
	var sum float64
	par.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += xs[i]
		}
	})
	return sum
}
`})
	wantFinding(t, runRule(t, p, &DetRule{}), "internal/native/a.go", 9, "det")
}

func TestDetFlagsWallClockReachableFromCodec(t *testing.T) {
	p := loadFixture(t, "internal/ckpt", map[string]string{"a.go": `package ckpt

import "time"

func stamp() int64 { return time.Now().UnixNano() }

func EncodeState(out []int64) {
	out[0] = stamp()
}
`})
	wantFinding(t, runRule(t, p, &DetRule{}), "internal/ckpt/a.go", 5, "det")
}

// --------------------------------------------------------------- lock --

func TestLockFlagsLeakOnEarlyReturn(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

func (s *S) Get(c bool) int {
	s.mu.Lock()
	if c {
		return 0
	}
	s.mu.Unlock()
	return s.n
}
`})
	wantFinding(t, runRule(t, p, &LockRule{}), "internal/fix/a.go", 13, "lock")
}

func TestLockAllowsDeferredUnlock(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

func (s *S) Get(c bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c {
		return 0
	}
	return s.n
}

func (s *S) Balanced(c bool) int {
	s.mu.Lock()
	if c {
		s.mu.Unlock()
		return 0
	}
	n := s.n
	s.mu.Unlock()
	return n
}
`})
	if got := runRule(t, p, &LockRule{}); len(got) != 0 {
		t.Fatalf("deferred and per-path unlocks are clean, got %v", got)
	}
}

func TestLockFlagsDoubleLock(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

import "sync"

type S struct{ mu sync.Mutex }

func (s *S) Double() {
	s.mu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	s.mu.Unlock()
}
`})
	wantFinding(t, runRule(t, p, &LockRule{}), "internal/fix/a.go", 9, "lock")
}

func TestLockAllowsDistinctMutexes(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

import "sync"

type S struct {
	a sync.Mutex
	b sync.Mutex
}

func (s *S) Both() {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}
`})
	if got := runRule(t, p, &LockRule{}); len(got) != 0 {
		t.Fatalf("two different mutexes are not a double lock, got %v", got)
	}
}

func TestLockFlagsUnguardedFieldWrite(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

import "sync"

type T struct {
	mu    sync.Mutex
	count int
}

func (t *T) Inc() {
	t.mu.Lock()
	t.count++
	t.mu.Unlock()
}

func (t *T) Reset() {
	t.count = 0
}
`})
	wantFinding(t, runRule(t, p, &LockRule{}), "internal/fix/a.go", 17, "lock")
}

func TestLockGuardedFieldExemptions(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

import "sync"

type T struct {
	mu    sync.Mutex
	count int
}

func (t *T) Inc() {
	t.mu.Lock()
	t.count++
	t.mu.Unlock()
}

// NewT builds a T; the value is not shared yet.
func NewT() *T {
	t := &T{}
	t.count = 5
	return t
}

// reset zeroes the counter. Caller holds t.mu.
func (t *T) reset() {
	t.count = 0
}

func Local() int {
	u := &T{}
	u.count = 7
	return u.count
}
`})
	if got := runRule(t, p, &LockRule{}); len(got) != 0 {
		t.Fatalf("constructors, caller-holds helpers, and local values are exempt, got %v", got)
	}
}

// TestDetSeesBackendPoolBodies pins the matcher extension: the kernels
// live in backend.NewDense/NewSweep bodies, so a float accumulation raced
// across a dense pass must be flagged like one in a par.For body.
func TestDetSeesBackendPoolBodies(t *testing.T) {
	p := loadFixtureWithPar(t, "internal/native", map[string]string{"a.go": `package native

import (
	"graphmaze/internal/backend"
	"graphmaze/internal/par"
)

func Sum(pool *par.Pool, xs []float64) float64 {
	total := 0.0
	backend.NewDense(pool, len(xs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			total += xs[i]
		}
	})
	return total
}
`})
	wantFinding(t, runRule(t, p, &DetRule{}), "internal/native/a.go", 12, "det")
}

// ----------------------------------------------------------- hotalloc --

func TestHotAllocFlagsAppendWithoutPrealloc(t *testing.T) {
	p := loadFixtureWithPar(t, "internal/native", map[string]string{"a.go": `package native

import "graphmaze/internal/par"

func Collect(n int, sink func([]int)) {
	par.For(n, func(lo, hi int) {
		var local []int
		for i := lo; i < hi; i++ {
			local = append(local, i)
		}
		sink(local)
	})
}
`})
	wantFinding(t, runRule(t, p, &HotAllocRule{}), "internal/native/a.go", 9, "hotalloc")
}

// TestHotAllocFlagsAppendInPoolBody: the closure graph construction hands
// a pool as par.RunnerFunc is a kernel body like a par.For one.
func TestHotAllocFlagsAppendInPoolBody(t *testing.T) {
	p := loadFixtureWithPar(t, "internal/graph", map[string]string{"a.go": `package graph

import "graphmaze/internal/par"

func Collect(pool *par.Pool, bounds []int, sink func([]int)) {
	pool.RunStatic(par.RunnerFunc(func(_, lo, hi int) {
		var local []int
		for i := lo; i < hi; i++ {
			local = append(local, i)
		}
		sink(local)
	}), bounds)
}
`})
	wantFinding(t, runRule(t, p, &HotAllocRule{}), "internal/graph/a.go", 9, "hotalloc")
}

func TestHotAllocSeesBackendPoolBodies(t *testing.T) {
	p := loadFixtureWithPar(t, "internal/native", map[string]string{"a.go": `package native

import (
	"graphmaze/internal/backend"
	"graphmaze/internal/par"
)

func Collect(pool *par.Pool, n int, sink func([]int)) {
	backend.NewSweep(pool, n, 64, func(_, lo, hi int) {
		var local []int
		for i := lo; i < hi; i++ {
			local = append(local, i)
		}
		sink(local)
	})
}
`})
	wantFinding(t, runRule(t, p, &HotAllocRule{}), "internal/native/a.go", 12, "hotalloc")
}

func TestHotAllocAllowsPreallocatedAppend(t *testing.T) {
	p := loadFixtureWithPar(t, "internal/native", map[string]string{"a.go": `package native

import "graphmaze/internal/par"

func Collect(n int, sink func([]int)) {
	par.For(n, func(lo, hi int) {
		local := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			local = append(local, i)
		}
		sink(local)
	})
}
`})
	if got := runRule(t, p, &HotAllocRule{}); len(got) != 0 {
		t.Fatalf("preallocated append is clean, got %v", got)
	}
}

func TestHotAllocFlagsDeferInBody(t *testing.T) {
	p := loadFixtureWithPar(t, "internal/native", map[string]string{"a.go": `package native

import (
	"sync"

	"graphmaze/internal/par"
)

func Work(n int, mu *sync.Mutex) {
	par.For(n, func(lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
	})
}
`})
	wantFinding(t, runRule(t, p, &HotAllocRule{}), "internal/native/a.go", 12, "hotalloc")
}

func TestHotAllocFlagsFmtInBody(t *testing.T) {
	p := loadFixtureWithPar(t, "internal/native", map[string]string{"a.go": `package native

import (
	"fmt"

	"graphmaze/internal/par"
)

func Labels(n int, out []string) {
	par.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = fmt.Sprintf("v%d", i)
		}
	})
}
`})
	wantFinding(t, runRule(t, p, &HotAllocRule{}), "internal/native/a.go", 12, "hotalloc")
}

func TestHotAllocFlagsClosureInLoop(t *testing.T) {
	p := loadFixtureWithPar(t, "internal/native", map[string]string{"a.go": `package native

import "graphmaze/internal/par"

func Work(n int, run func(func() int)) {
	par.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			run(func() int { return i })
		}
	})
}
`})
	wantFinding(t, runRule(t, p, &HotAllocRule{}), "internal/native/a.go", 8, "hotalloc")
}

func TestHotAllocAllowsClosureOutsideLoop(t *testing.T) {
	p := loadFixtureWithPar(t, "internal/native", map[string]string{"a.go": `package native

import "graphmaze/internal/par"

func Work(n int, run func(func(int) int)) {
	par.For(n, func(lo, hi int) {
		square := func(x int) int { return x * x }
		run(square)
	})
}
`})
	if got := runRule(t, p, &HotAllocRule{}); len(got) != 0 {
		t.Fatalf("a once-per-chunk closure is not a per-iteration allocation, got %v", got)
	}
}

func TestHotAllocFlagsInterfaceConversion(t *testing.T) {
	p := loadFixtureWithPar(t, "internal/native", map[string]string{"a.go": `package native

import "graphmaze/internal/par"

func Box(n int, out []any) {
	par.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = any(i)
		}
	})
}
`})
	wantFinding(t, runRule(t, p, &HotAllocRule{}), "internal/native/a.go", 8, "hotalloc")
}

func TestHotAllocIgnoresCodeOutsideParBodies(t *testing.T) {
	p := loadFixture(t, "internal/native", map[string]string{"a.go": `package native

import "fmt"

func Slow(n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf("v%d", i))
	}
	return out
}
`})
	if got := runRule(t, p, &HotAllocRule{}); len(got) != 0 {
		t.Fatalf("hotalloc only applies inside parallel kernel bodies, got %v", got)
	}
}

// ------------------------------------------------------------- ignore --

func TestUnusedIgnoreDirectiveIsAFinding(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

//lint:ignore atomic this violation was fixed long ago
func f() {}
`})
	findings := runRule(t, p, &AtomicRule{})
	if len(findings) != 1 || findings[0].Rule != "ignore" {
		t.Fatalf("stale directive must surface as an ignore finding, got %v", findings)
	}
}

func TestUnusedDirectiveForRuleNotRunIsSilent(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

//lint:ignore atomic the atomic rule is not part of this run
func f() {}
`})
	if got := runRule(t, p, &PanicRule{}); len(got) != 0 {
		t.Fatalf("a directive can only be judged stale when its rule ran, got %v", got)
	}
}

func TestProseMentionOfDirectiveIsNotParsed(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

// This file explains how lint:ignore) interacts with other tools, and
// lint:ignore-adjacent prose must not parse as a directive either.
func f() {}
`})
	if got := runRule(t, p, &AtomicRule{}); len(got) != 0 {
		t.Fatalf("prose mentioning directives must not parse, got %v", got)
	}
}

func TestIgnoreScopedToRuleAndLine(t *testing.T) {
	// A directive for one rule must not suppress another rule's finding
	// on the same line.
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

import "sync/atomic"

var counter int64

func Bump() { atomic.AddInt64(&counter, 1) }

func Read() int64 {
	//lint:ignore panic wrong rule on purpose
	return counter
}
`})
	findings := Run([]*Package{p}, []Rule{&AtomicRule{}, &PanicRule{}})
	var rules []string
	for _, f := range findings {
		rules = append(rules, f.Rule)
	}
	// The atomic finding survives (directive names panic), and the panic
	// directive itself is stale.
	if len(findings) != 2 || findings[0].Rule != "atomic" && findings[1].Rule != "atomic" {
		t.Fatalf("want surviving atomic finding plus stale-directive finding, got %v (%v)", rules, findings)
	}
	hasIgnore := false
	for _, f := range findings {
		if f.Rule == "ignore" {
			hasIgnore = true
		}
	}
	if !hasIgnore {
		t.Fatalf("mis-scoped directive must be reported stale, got %v", findings)
	}
}
