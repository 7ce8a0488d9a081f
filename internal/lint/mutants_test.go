package lint

import (
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// mutants holds one real-file mutant per graphlint check: each puts the
// bug its check names into a file of this module, at a site of the kind
// the check guards. A check stays only while nothing else in Tier-1
// catches its mutant — go test ./... without TestModuleIsClean, go test
// -race -short ./... and make validate all pass on every mutant below —
// so this table is also the record of why each check exists (DESIGN.md §7
// has the audit, with the checks whose mutants other tests caught).
var mutants = []struct {
	check string      // the rule, then "/" and the sub-check for det and hotalloc
	file  string      // module-relative path of the mutated file
	edits [][2]string // old → new; each old text occurs exactly once
	at    string      // occurs once in the mutated file, on the finding's line
}{
	{
		check: "det/map-range-sink",
		file:  "internal/giraph/runtime.go",
		edits: [][2]string{{"\t\t\tslices.Sort(dests)\n", ""}, {"\t\"slices\"\n", ""}},
		at:    "dests = append(dests, to)",
	},
	{
		check: "det/map-range-float",
		file:  "internal/giraph/runtime.go",
		edits: [][2]string{{
			"\t\t\tfor to := range sl.combined {\n\t\t\t\tdests = append(dests, to)\n\t\t\t}\n",
			"\t\t\tvar mass float64\n\t\t\tfor to, m := range sl.combined {\n\t\t\t\tdests = append(dests, to)\n" +
				"\t\t\t\tif f, ok := m.(float64); ok {\n\t\t\t\t\tmass += f\n\t\t\t\t}\n\t\t\t}\n\t\t\t_ = mass\n",
		}},
		at: "mass += f",
	},
	{
		check: "hotalloc/defer",
		file:  "internal/graphlab/runtime.go",
		edits: [][2]string{{
			"\te.sweep = backend.NewSweep(pool, int(n), 0, func(_, lo, hi int) {\n",
			"\te.sweep = backend.NewSweep(pool, int(n), 0, func(_, lo, hi int) {\n\t\tdefer spec.Tracer.Begin(\"graphlab.chunk\", \"chunk\").End()\n",
		}},
		at: "defer spec.Tracer.Begin",
	},

	{
		check: "hotalloc/boxing",
		file:  "internal/graphlab/runtime.go",
		edits: [][2]string{{
			"\t\t\tnv, didChange, act := spec.Apply(v, vals[v], acc, len(row) > 0)\n\t\t\tif didChange {\n\t\t\t\t// Defer",
			"\t\t\tnv, didChange, act := spec.Apply(v, vals[v], acc, len(row) > 0)\n\t\t\t_ = any(v)\n\t\t\tif didChange {\n\t\t\t\t// Defer",
		}},
		at: "_ = any(v)",
	},
	{
		check: "hotalloc/closure",
		file:  "internal/graphlab/runtime.go",
		edits: [][2]string{{
			"\t\t\t\tfor _, t := range g.Neighbors(v) {\n\t\t\t\t\tnextActive.SetAtomic(t)\n\t\t\t\t}\n",
			"\t\t\t\tfor _, t := range g.Neighbors(v) {\n\t\t\t\t\tset := func() { nextActive.SetAtomic(t) }\n\t\t\t\t\tset()\n\t\t\t\t}\n",
		}},
		at: "set := func()",
	},
	{
		check: "lock",
		file:  "internal/serve/handlers.go",
		edits: [][2]string{
			{
				"\tg.ingest.Lock()\n\tdefer g.ingest.Unlock()\n\tsnap, added, stats, err := g.v.ApplyDelta(delta)\n\tif err != nil {\n",
				"\tg.ingest.Lock()\n\tsnap, added, stats, err := g.v.ApplyDelta(delta)\n\tif err != nil {\n\t\tg.ingest.Unlock()\n",
			},
			{
				"\t_, _, persistErr = g.store.SaveDelta(snap, added, 1)\n",
				"\t_, _, persistErr = g.store.SaveDelta(snap, added, 1)\n\tg.ingest.Unlock()\n",
			},
		},
		at: "g.ingest.Lock()\n\tsnap",
	},
	{
		check: "scratch",
		file:  "internal/graphlab/runtime.go",
		edits: [][2]string{{"\t\te.sweep.Run()\n", "\t\te.staged = make([]V, g.NumVertices)\n\t\te.sweep.Run()\n"}},
		at:    "e.staged = make([]V, g.NumVertices)",
	},
	{
		check: "truncate",
		file:  "internal/native/pagerank.go",
		edits: [][2]string{{"binary.LittleEndian.PutUint32(out, graph.MustU32(int64(len(ids))))\n", "binary.LittleEndian.PutUint32(out, uint32(len(ids)))\n"}},
		at:    "PutUint32(out, uint32(len(ids)))",
	},
}

// TestMutantsAreCaught applies each mutant in memory to its real file,
// type-checks the mutated package against the module load
// TestModuleIsClean uses, runs every rule, and requires exactly one
// finding: the mutant's check, at the mutated line. An edit whose old
// text is gone fails loudly: the file moved on, and the mutant must be
// rewritten against it.
func TestMutantsAreCaught(t *testing.T) {
	ld := moduleLoader(t)
	rules := make(map[string]bool)
	for _, r := range DefaultRules() {
		rules[r.Name()] = true
	}
	covered := make(map[string]bool)
	for _, m := range mutants {
		rule, _, _ := strings.Cut(m.check, "/")
		covered[rule] = true
		t.Run(m.check, func(t *testing.T) {
			if !rules[rule] {
				t.Fatalf("no rule %q", rule)
			}
			data, err := os.ReadFile(filepath.Join(ld.modDir, filepath.FromSlash(m.file)))
			if err != nil {
				t.Fatal(err)
			}
			src := string(data)
			for _, e := range m.edits {
				if n := strings.Count(src, e[0]); n != 1 {
					t.Fatalf("%s: the mutant's anchor occurs %d times, want once; rewrite the mutant against the file:\n%s", m.file, n, e[0])
				}
				src = strings.Replace(src, e[0], e[1], 1)
			}
			if n := strings.Count(src, m.at); n != 1 {
				t.Fatalf("%s: the mutated file holds %q %d times, want once", m.file, m.at, n)
			}
			line := 1 + strings.Count(src[:strings.Index(src, m.at)], "\n")

			f, err := parser.ParseFile(ld.fset, m.file, src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			rel := filepath.ToSlash(filepath.Dir(m.file))
			p := ld.pkgs[rel]
			if p == nil {
				t.Fatalf("package %s is not in the module load", rel)
			}
			files := slices.Clone(p.Files)
			i := slices.IndexFunc(files, func(pf *ast.File) bool { return ld.fset.File(pf.Pos()).Name() == m.file })
			if i < 0 {
				t.Fatalf("%s is not in package %s", m.file, rel)
			}
			files[i] = f
			mp, err := ld.check(rel, files)
			if err != nil {
				t.Fatalf("type-check the mutant: %v", err)
			}
			got := Run([]*Package{mp}, DefaultRules())
			if len(got) != 1 || got[0].Rule != rule || got[0].File != m.file || got[0].Line != line {
				t.Fatalf("want exactly one finding, %s:%d [%s]; got %v", m.file, line, rule, got)
			}
		})
	}
	for name := range rules {
		if !covered[name] {
			t.Errorf("rule %q has no mutant", name)
		}
	}
}
