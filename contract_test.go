package graphmaze

import (
	"go/ast"
	"go/parser"
	"go/token"
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

// TestEnginesOwnNoClockOrPool pins the same contract structurally: no
// engine package reads the wall clock or builds a backend.Pool outside its
// tests. core.Exec.Local does both, once, for every single-node call.
func TestEnginesOwnNoClockOrPool(t *testing.T) {
	for _, pkg := range []string{"native", "combblas", "graphlab", "socialite", "giraph", "galois"} {
		dir := filepath.Join("internal", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
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
				if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
					t.Errorf("%s imports time: engines leave the clock to core.Exec.Local", fset.Position(imp.Pos()))
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewPool" {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "backend" {
						t.Errorf("%s builds a backend.Pool: engines borrow the one core.Exec.Local hands them", fset.Position(sel.Pos()))
					}
				}
				return true
			})
		}
	}
}
