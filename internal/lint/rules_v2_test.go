package lint

import "testing"

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
	p := loadFixture(t, "internal/obs", map[string]string{"a.go": `package obs

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
	wantFinding(t, runRule(t, p, &LockRule{}), "internal/fix/a.go", 11, "lock")
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
`})
	if got := runRule(t, p, &LockRule{}); len(got) != 0 {
		t.Fatalf("a deferred unlock is clean, got %v", got)
	}
}

// TestLockFlagsUnlockOnEveryPath: an explicit Unlock on every return path
// is still a finding at the Lock, since a panic between the two leaves the
// mutex held.
func TestLockFlagsUnlockOnEveryPath(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

import "sync"

type S struct {
	mu sync.Mutex
	n  int
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
	wantFinding(t, runRule(t, p, &LockRule{}), "internal/fix/a.go", 11, "lock")
}

// ingestFixture is a delta handler in the shape that wedged every later
// delta: the ingest lock is released explicitly on each return, and
// apply, which can panic, runs in between. The directive line, when
// given, goes directly above the Lock.
func ingestFixture(directive string) string {
	return `package fix

import "sync"

type served struct {
	ingest sync.Mutex
	epoch  int
}

func apply(delta []int) (int, error) { return delta[0], nil }

func (g *served) ingestDelta(delta []int) (int, error) {
` + directive + `
	g.ingest.Lock()
	n, err := apply(delta)
	if err != nil {
		g.ingest.Unlock()
		return 0, err
	}
	g.epoch += n
	g.ingest.Unlock()
	return n, nil
}
`
}

func TestLockFlagsIngestUnlockedByHand(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": ingestFixture("")})
	wantFinding(t, runRule(t, p, &LockRule{}), "internal/fix/a.go", 14, "lock")
}

func TestLockDirectiveAnswersIngestUnlockedByHand(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": ingestFixture(
		"\t//lint:ignore lock apply only indexes a slice checked non-empty by every caller, and both returns unlock first")})
	if got := runRule(t, p, &LockRule{}); len(got) != 0 {
		t.Fatalf("a reasoned directive answers the site, got %v", got)
	}
}

func TestLockFlagsDeferredUnlockOfTheWrongMode(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

import "sync"

type S struct {
	mu sync.RWMutex
	n  int
}

func (s *S) Get() int {
	s.mu.RLock()
	defer s.mu.Unlock()
	return s.n
}
`})
	wantFinding(t, runRule(t, p, &LockRule{}), "internal/fix/a.go", 11, "lock")
}

func TestLockFlagsBareLockInFuncLit(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

func (s *S) Each(xs []int, f func(func())) {
	f(func() {
		s.mu.Lock()
		s.n += len(xs)
		s.mu.Unlock()
	})
}
`})
	wantFinding(t, runRule(t, p, &LockRule{}), "internal/fix/a.go", 12, "lock")
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
	defer s.a.Unlock()
	s.b.Lock()
	defer s.b.Unlock()
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
	defer t.mu.Unlock()
	t.count++
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
	defer t.mu.Unlock()
	t.count++
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

// ----------------------------------------------------------- hotalloc --

func TestHotAllocSeesBackendPoolBodies(t *testing.T) {
	p := loadFixture(t, "internal/native", map[string]string{"a.go": `package native

import (
	"graphmaze/internal/backend"
	"graphmaze/internal/par"
)

func Box(pool *par.Pool, out []any) {
	backend.NewSweep(pool, len(out), 64, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = any(i)
		}
	})
}
`})
	wantFinding(t, runRule(t, p, &HotAllocRule{}), "internal/native/a.go", 11, "hotalloc")
}

// TestHotAllocFlagsDeferInBody: the closure graph construction hands a
// pool as par.RunnerFunc is a kernel body like a par.For one.
func TestHotAllocFlagsDeferInBody(t *testing.T) {
	p := loadFixture(t, "internal/graph", map[string]string{"a.go": `package graph

import (
	"sync"

	"graphmaze/internal/par"
)

func Work(pool *par.Pool, bounds []int, mu *sync.Mutex) {
	pool.RunStatic(par.RunnerFunc(func(_, lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
	}), bounds)
}
`})
	wantFinding(t, runRule(t, p, &HotAllocRule{}), "internal/graph/a.go", 12, "hotalloc")
}

func TestHotAllocFlagsClosureInLoop(t *testing.T) {
	p := loadFixture(t, "internal/native", map[string]string{"a.go": `package native

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
	p := loadFixture(t, "internal/native", map[string]string{"a.go": `package native

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
	p := loadFixture(t, "internal/native", map[string]string{"a.go": `package native

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

// TestHotAllocFlagsTypeParameterBoxing: a type parameter's underlying type
// is its constraint interface, yet converting its value to any boxes it
// like any other value — the generic GAS runtime's case.
func TestHotAllocFlagsTypeParameterBoxing(t *testing.T) {
	p := loadFixture(t, "internal/native", map[string]string{"a.go": `package native

import "graphmaze/internal/par"

func Box[V any](n int, vals []V) {
	par.For(n, func(lo, hi int) {
		for _, v := range vals[lo:hi] {
			_ = any(v)
		}
	})
}
`})
	wantFinding(t, runRule(t, p, &HotAllocRule{}), "internal/native/a.go", 8, "hotalloc")
}

func TestHotAllocIgnoresCodeOutsideParBodies(t *testing.T) {
	p := loadFixture(t, "internal/native", map[string]string{"a.go": `package native

import "sync"

func Slow(n int, mu *sync.Mutex, run func(func() any)) {
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		run(func() any { return any(i) })
	}
}
`})
	if got := runRule(t, p, &HotAllocRule{}); len(got) != 0 {
		t.Fatalf("hotalloc only applies inside parallel kernel bodies, got %v", got)
	}
}

// ------------------------------------------------------------- ignore --

func TestUnusedIgnoreDirectiveIsAFinding(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

//lint:ignore truncate this violation was fixed long ago
func f() {}
`})
	findings := runRule(t, p, &TruncateRule{})
	if len(findings) != 1 || findings[0].Rule != "ignore" {
		t.Fatalf("stale directive must surface as an ignore finding, got %v", findings)
	}
}

func TestUnusedDirectiveForRuleNotRunIsSilent(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

//lint:ignore truncate the truncate rule is not part of this run
func f() {}
`})
	if got := runRule(t, p, &LockRule{}); len(got) != 0 {
		t.Fatalf("a directive can only be judged stale when its rule ran, got %v", got)
	}
}

func TestProseMentionOfDirectiveIsNotParsed(t *testing.T) {
	p := loadFixture(t, "internal/fix", map[string]string{"a.go": `package fix

// This file explains how lint:ignore) interacts with other tools, and
// lint:ignore-adjacent prose must not parse as a directive either.
func f() {}
`})
	if got := runRule(t, p, &TruncateRule{}); len(got) != 0 {
		t.Fatalf("prose mentioning directives must not parse, got %v", got)
	}
}

func TestIgnoreScopedToRuleAndLine(t *testing.T) {
	// A directive for one rule must not suppress another rule's finding
	// on the same line.
	p := loadFixture(t, "internal/graph", map[string]string{"a.go": `package graph

func Narrow(x int64) uint32 {
	//lint:ignore lock wrong rule on purpose
	return uint32(x)
}
`})
	findings := Run([]*Package{p}, []Rule{&TruncateRule{}, &LockRule{}})
	var rules []string
	for _, f := range findings {
		rules = append(rules, f.Rule)
	}
	// The truncate finding survives (directive names lock), and the lock
	// directive itself is stale.
	if len(findings) != 2 || findings[0].Rule != "truncate" && findings[1].Rule != "truncate" {
		t.Fatalf("want surviving truncate finding plus stale-directive finding, got %v (%v)", rules, findings)
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
