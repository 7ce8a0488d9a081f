package graphmaze

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"graphmaze/internal/trace"
)

// giraphCoordinationSeconds mirrors giraph's modelled per-superstep
// coordination cost, which its engine adds on top of the measured clock.
const giraphCoordinationSeconds = 0.015

// TestTimedRegionIsTheKernel pins the timed-region contract (DESIGN.md
// §2.3) on the number Table 5 divides by: for every engine's PageRank, the
// per-iteration spans the engine emits account for at least 75 % of
// Stats.WallSeconds, so the clock cannot be timing input construction
// (transpose, out-degrees, matrices, tables), a pool's start-up or the
// conversion of the result. A run descheduled by the host can miss the
// bar, so each engine gets a few attempts and must make it once.
func TestTimedRegionIsTheKernel(t *testing.T) {
	g, err := Generate(Graph500{Scale: 14, EdgeFactor: 16, Seed: 5}, ForPageRank)
	if err != nil {
		t.Fatal(err)
	}
	const iterations = 5
	for _, c := range []struct {
		engine Engine
		span   string
	}{
		{Native(), "native.pr.iter"},
		{CombBLAS(), "combblas.spmv"},
		{GraphLab(), "graphlab.sweep"},
		{SociaLite(), "socialite.rule"},
		{Giraph(), "giraph.superstep"},
		{Galois(), "galois.round"},
	} {
		best := 0.0
		for attempt := 0; attempt < 5 && best < 0.75; attempt++ {
			tr := trace.New()
			res, err := c.engine.PageRank(g, PageRankOptions{Iterations: iterations, Exec: Exec{Trace: tr}})
			if err != nil {
				t.Fatalf("%s: %v", c.engine.Name(), err)
			}
			var inSpans float64
			spans := 0
			for _, ev := range tr.Events() {
				if ev.Cat == c.span {
					inSpans += float64(ev.DurNS) / 1e9
					spans++
				}
			}
			if spans < iterations {
				t.Fatalf("%s: %d %s spans for %d iterations", c.engine.Name(), spans, c.span, iterations)
			}
			wall := res.Stats.WallSeconds
			if c.engine.Name() == "Giraph" {
				wall -= float64(spans) * giraphCoordinationSeconds
			}
			if wall <= 0 {
				t.Fatalf("%s: measured wall time %v", c.engine.Name(), wall)
			}
			best = max(best, inSpans/wall)
		}
		if best < 0.75 {
			t.Errorf("%s: %s spans cover %.0f%% of WallSeconds, want >= 75%%: the clock times more than the kernel",
				c.engine.Name(), c.span, 100*best)
		}
	}
}

// serialInTimedRegion lists the engine functions whose core.Exec.Local
// callback may discard the pool it is handed, each with its reason. A
// kernel that runs on one core inside the timed region is otherwise a test
// failure here, not a profile finding later.
var serialInTimedRegion = map[string]string{
	"combblas.CollabFilter": "serial single-node passes; the float fold order is pinned by the CF goldens",
	"graphlab.CollabFilter": "serial gather and apply; the float fold order is pinned by the CF goldens and the reference table's GraphLab/1-node/cf-gd cell",
}

// TestClusterRunsTraceFromExecAlone pins core.Exec's contract that a tracer
// set on Exec suffices: every multi-node engine, on every algorithm,
// records at least one span on a simulated node's track when the cluster
// config carries no tracer of its own.
func TestClusterRunsTraceFromExecAlone(t *testing.T) {
	pr, bfs, tc, cf := conformanceInputs(t)
	for _, eng := range Engines() {
		if !eng.Capabilities().MultiNode {
			continue
		}
		for algo, run := range map[string]func(Exec) error{
			"pagerank": func(x Exec) error {
				_, err := eng.PageRank(pr, PageRankOptions{Iterations: 2, Exec: x})
				return err
			},
			"bfs": func(x Exec) error { _, err := eng.BFS(bfs, BFSOptions{Source: 0, Exec: x}); return err },
			"triangles": func(x Exec) error {
				_, err := eng.TriangleCount(tc, TriangleOptions{Exec: x})
				return err
			},
			"cf": func(x Exec) error {
				_, err := eng.CollabFilter(cf, CFOptions{K: 4, Iterations: 1, Exec: x})
				return err
			},
		} {
			tr := trace.New()
			if err := run(Exec{Trace: tr, Cluster: &ClusterConfig{Nodes: 4}}); err != nil {
				t.Errorf("%s %s: %v", eng.Name(), algo, err)
				continue
			}
			onNodes := 0
			for _, ev := range tr.Events() {
				if ev.Pid >= trace.PidNodeBase {
					onNodes++
				}
			}
			if onNodes == 0 {
				t.Errorf("%s %s: no node-track span from Exec{Trace: tr} alone", eng.Name(), algo)
			}
		}
	}
}

// buildsOwnPool lists the engine functions allowed to start a par.Pool,
// each with the reason.
var buildsOwnPool = map[string]string{
	"giraph.Run": "the stock superstep runtime models Giraph's worker threads per node (paper §5.4): one pool of Job.Workers for the job, whatever the caller's width",
}

// TestEnginesOwnNoClockOrPool pins the same contract structurally: no
// engine package reads the wall clock or starts a par.Pool outside its
// tests — core.Exec.Local does both, once, for every single-node call —
// and in native, combblas, graphlab, socialite and galois the callback
// given to core.Exec.Local names the *par.Pool it receives (a blank or
// unnamed first parameter fails) unless its function is in
// serialInTimedRegion. giraph alone brings its own runtime — its superstep
// workers — and is exempt from the callback rule by package; the one
// function that starts that runtime's pool is in buildsOwnPool.
func TestEnginesOwnNoClockOrPool(t *testing.T) {
	ownRuntime := map[string]bool{"giraph": true}
	discards, builds := map[string]bool{}, map[string]bool{}
	for _, pkg := range []string{"native", "combblas", "graphlab", "socialite", "giraph", "galois"} {
		dir := filepath.Join("internal", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		localCalls := 0
		for _, ent := range entries {
			name := ent.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range file.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if path == "time" {
					t.Errorf("%s imports time: engines leave the clock to core.Exec.Local", fset.Position(imp.Pos()))
				}
			}
			for _, decl := range file.Decls {
				key := pkg + "."
				if fn, ok := decl.(*ast.FuncDecl); ok {
					key += fn.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewPool" {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == "par" && buildsOwnPool[key] == "" {
							t.Errorf("%s: %s starts a par.Pool: engines borrow the one core.Exec.Local hands them", fset.Position(sel.Pos()), key)
						}
						if buildsOwnPool[key] != "" {
							builds[key] = true
						}
					}
					return true
				})
			}
			if ownRuntime[pkg] {
				continue
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				for _, kernel := range localKernels(fn) {
					localCalls++
					first := kernel.Type.Params.List[0]
					if len(first.Names) > 0 && first.Names[0].Name != "_" {
						continue
					}
					key := pkg + "." + fn.Name.Name
					discards[key] = true
					if serialInTimedRegion[key] == "" {
						t.Errorf("%s: %s's core.Exec.Local callback discards its *par.Pool: the kernel runs on one core inside the timed region (run it on the pool, or add it to serialInTimedRegion with the reason)",
							fset.Position(kernel.Pos()), key)
					}
				}
			}
		}
		if localCalls == 0 && !ownRuntime[pkg] {
			t.Errorf("%s: found no core.Exec.Local call: the pool rule is checking nothing", pkg)
		}
	}
	for key := range serialInTimedRegion {
		if !discards[key] {
			t.Errorf("serialInTimedRegion lists %s, whose callback no longer discards its pool: delete the entry", key)
		}
	}
	for key := range buildsOwnPool {
		if !builds[key] {
			t.Errorf("buildsOwnPool lists %s, which no longer starts a pool: delete the entry", key)
		}
	}
}

// localKernels returns the function literals fn passes to
// <options>.Exec.Local, whether written in the call or bound to a local
// name first (the CF methods share one closure between Local and the
// cluster loop).
func localKernels(fn *ast.FuncDecl) []*ast.FuncLit {
	bound := map[string]*ast.FuncLit{}
	var kernels []*ast.FuncLit
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if lit, ok := rhs.(*ast.FuncLit); ok && i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						bound[id.Name] = lit
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Local" || len(n.Args) != 1 {
				return true
			}
			if exec, ok := sel.X.(*ast.SelectorExpr); !ok || exec.Sel.Name != "Exec" {
				return true
			}
			switch arg := n.Args[0].(type) {
			case *ast.FuncLit:
				kernels = append(kernels, arg)
			case *ast.Ident:
				if lit := bound[arg.Name]; lit != nil {
					kernels = append(kernels, lit)
				}
			}
		}
		return true
	})
	return kernels
}

// goStatements pins every non-test `go` statement in the module, keyed by
// file and enclosing function, each with what joins or stops the goroutine
// it starts. A goroutine nobody joins outlives the call that started it and
// skews every timing taken after it, so a new `go` statement anywhere in the
// module fails TestGoStatementsArePinned until it is listed here with its
// join.
var goStatements = map[string]string{
	"internal/par/pool.go NewPool":         "workers park on the wake channel and are joined per dispatch via the buffered done channel; Close releases them",
	"internal/obs/http.go ServeHandler":    "the listener goroutine closes done when Serve returns; Shutdown and Close stop the server and wait on done",
	"internal/obs/sampler.go StartSampler": "the sampling loop closes done when it exits; Stop closes stop and waits on done",
}

// TestGoStatementsArePinned holds the module's goroutines to the list in
// goStatements: every package is read, the commands and examples included
// (bench/ is a module of its own and is not).
func TestGoStatementsArePinned(t *testing.T) {
	found := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && (err == nil || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			key := filepath.ToSlash(path) + " "
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if recv := receiverName(fn); recv != "" {
					key += recv + "."
				}
				key += fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					found[key] = true
					if goStatements[key] == "" {
						t.Errorf("%s: go statement in %s: join the goroutine in the function that starts it, or list it in goStatements with what joins it",
							fset.Position(g.Pos()), key)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range goStatements {
		if !found[key] {
			t.Errorf("goStatements lists %s, which no longer starts a goroutine: delete the entry", key)
		}
	}
}

// receiverName returns the type name of fn's receiver, or "" for a plain
// function.
func receiverName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
