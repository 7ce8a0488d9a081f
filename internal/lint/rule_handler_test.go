package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// fixtureHTTPSrc is a stand-in for net/http: the handler rule matches on
// the ResponseWriter/Request type names and the "net/http" path suffix,
// so the fixture only needs the handler-signature shape.
const fixtureHTTPSrc = `// Package http is the fixture HTTP layer.
package http

// A ResponseWriter writes a response.
type ResponseWriter interface {
	Write([]byte) (int, error)
}

// A Context carries cancellation.
type Context interface {
	Err() error
}

// Request is one inbound request.
type Request struct{}

// Context returns the request's context.
func (r *Request) Context() Context { return nil }
`

// fixtureBackendSrc is a stand-in kernel package: any call into it counts
// as launching kernel work.
const fixtureBackendSrc = `// Package backend is the fixture kernel pool.
package backend

// Pool is the fixture worker pool.
type Pool struct{}

// Run dispatches one kernel.
func (p *Pool) Run() {}

// Launch runs a kernel on the pool.
func Launch(p *Pool) {}

// NewDense runs f as a static pass over [0, n).
func NewDense(p *Pool, n int, f func(lo, hi int)) *Pool { f(0, n); return p }

// NewSweep runs f as a dynamic pass over [0, n).
func NewSweep(p *Pool, n, grain int, f func(w, lo, hi int)) *Pool { f(0, 0, n); return p }
`

// loadFixtureWithHTTP type-checks an in-memory package with fixture
// net/http and kernel packages importable.
func loadFixtureWithHTTP(t *testing.T, rel string, files map[string]string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	base := importer.ForCompiler(fset, "source", nil)

	prebuilt := map[string]*types.Package{}
	for path, src := range map[string]string{
		"net/http":                   fixtureHTTPSrc,
		"graphmaze/internal/backend": fixtureBackendSrc,
	} {
		f, err := parser.ParseFile(fset, path+"/fixture.go", src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		conf := types.Config{Importer: base}
		pkg, err := conf.Check(path, fset, []*ast.File{f}, nil)
		if err != nil {
			t.Fatalf("type-check fixture %s: %v", path, err)
		}
		prebuilt[path] = pkg
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

func TestHandlerFlagsKernelLaunchWithoutContext(t *testing.T) {
	p := loadFixtureWithHTTP(t, "internal/serve", map[string]string{"a.go": `package serve

import (
	"graphmaze/internal/backend"
	"net/http"
)

func handleBad(w http.ResponseWriter, r *http.Request) {
	backend.Launch(nil)
	w.Write(nil)
}
`})
	wantFinding(t, runRule(t, p, &HandlerRule{}), "internal/serve/a.go", 8, "handler")
}

func TestHandlerFlagsTransitiveKernelLaunch(t *testing.T) {
	// The kernel launch hides behind a same-package helper; the handler is
	// still the one that never consulted the context.
	p := loadFixtureWithHTTP(t, "internal/serve", map[string]string{"a.go": `package serve

import (
	"graphmaze/internal/backend"
	"net/http"
)

func compute(p *backend.Pool) {
	p.Run()
}

func handleBad(w http.ResponseWriter, r *http.Request) {
	compute(nil)
	w.Write(nil)
}
`})
	wantFinding(t, runRule(t, p, &HandlerRule{}), "internal/serve/a.go", 12, "handler")
}

func TestHandlerFlagsUnnamedRequestParam(t *testing.T) {
	// Dropping the request parameter makes honoring cancellation
	// impossible; launching a kernel anyway is the bug.
	p := loadFixtureWithHTTP(t, "internal/serve", map[string]string{"a.go": `package serve

import (
	"graphmaze/internal/backend"
	"net/http"
)

func handleBad(w http.ResponseWriter, _ *http.Request) {
	backend.Launch(nil)
	w.Write(nil)
}
`})
	wantFinding(t, runRule(t, p, &HandlerRule{}), "internal/serve/a.go", 8, "handler")
}

func TestHandlerAllowsContextRead(t *testing.T) {
	p := loadFixtureWithHTTP(t, "internal/serve", map[string]string{"a.go": `package serve

import (
	"graphmaze/internal/backend"
	"net/http"
)

func handleGood(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if ctx.Err() != nil {
		return
	}
	backend.Launch(nil)
	w.Write(nil)
}
`})
	if got := runRule(t, p, &HandlerRule{}); len(got) != 0 {
		t.Fatalf("context-honoring handler flagged: %v", got)
	}
}

func TestHandlerAllowsDelegatingRequest(t *testing.T) {
	// Handing the request to a helper delegates the cancellation decision;
	// the rule only flags handlers that ignore the request entirely.
	p := loadFixtureWithHTTP(t, "internal/serve", map[string]string{"a.go": `package serve

import (
	"graphmaze/internal/backend"
	"net/http"
)

func serveWith(w http.ResponseWriter, r *http.Request) {
	_ = r.Context()
	backend.Launch(nil)
}

func handleGood(w http.ResponseWriter, r *http.Request) {
	serveWith(w, r)
}
`})
	if got := runRule(t, p, &HandlerRule{}); len(got) != 0 {
		t.Fatalf("delegating handler flagged: %v", got)
	}
}

func TestHandlerAllowsKernelFreeHandlers(t *testing.T) {
	p := loadFixtureWithHTTP(t, "internal/serve", map[string]string{"a.go": `package serve

import "net/http"

func handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Write([]byte("ok"))
}
`})
	if got := runRule(t, p, &HandlerRule{}); len(got) != 0 {
		t.Fatalf("kernel-free handler flagged: %v", got)
	}
}

func TestHandlerIgnoresNonHandlerShapes(t *testing.T) {
	// Kernel launches in plain functions are none of this rule's business,
	// and neither are handler-ish functions with results.
	p := loadFixtureWithHTTP(t, "internal/serve", map[string]string{"a.go": `package serve

import (
	"graphmaze/internal/backend"
	"net/http"
)

func compute(p *backend.Pool) {
	p.Run()
}

func execute(w http.ResponseWriter, r *http.Request) error {
	backend.Launch(nil)
	return nil
}
`})
	if got := runRule(t, p, &HandlerRule{}); len(got) != 0 {
		t.Fatalf("non-handler shapes flagged: %v", got)
	}
}

func TestHandlerScopedToServePackage(t *testing.T) {
	// The same offending shape outside internal/serve is out of scope.
	p := loadFixtureWithHTTP(t, "internal/obs", map[string]string{"a.go": `package obs

import (
	"graphmaze/internal/backend"
	"net/http"
)

func handleBad(w http.ResponseWriter, r *http.Request) {
	backend.Launch(nil)
	w.Write(nil)
}
`})
	if got := runRule(t, p, &HandlerRule{}); len(got) != 0 {
		t.Fatalf("out-of-scope package flagged: %v", got)
	}
}
