// Package lint implements graphlint, the project-specific static analyzer
// that guards invariants our concurrent engine runtimes rely on but the
// generic Go toolchain and the rest of the test suite cannot check. A
// check stays only while its mutant, a bug written into a real file of
// the module, passes go test ./..., go test -race -short ./... and make
// validate and is flagged here; TestMutantsAreCaught (mutants_test.go)
// holds one mutant per check, and DESIGN.md §7 has the audit. Five rules
// remain, each listed with its mutants:
//
//   - det: in engine and checkpoint code, an append to outer state or a
//     call to an order-sensitive sink while ranging over a map (giraph's
//     endPhase without its sort), and a float accumulated under map
//     order (a sum over giraph's combiner map); in every package, a
//     float accumulated into a variable shared by a parallel kernel body
//     (native's ablation PageRank gather with its sum hoisted out of the
//     body).
//   - hotalloc: in a parallel kernel body, defer, conversion to an
//     interface, and a closure built per loop iteration (each written
//     into GraphLab's GAS sweep body).
//   - lock: every Lock followed by defer Unlock, no double Lock, guarded
//     fields written under their lock (serve's ingestDelta unlocking by
//     hand on each return).
//   - scratch: no graph-sized make per loop iteration in engine code (a
//     per-round make in GraphLab's round loop).
//   - truncate: no unchecked 64-bit or len/cap narrowing to 32 bits in
//     graph, generator and engine code (native's PageRank message header
//     without graph.MustU32).
//
// The analyzer is built only on the standard library (go/parser, go/ast,
// go/types): Load type-checks the module from source, Run applies every
// Rule to every package, and findings are reported as
// "file:line: [rule] message". Intentional violations are silenced in place
// with a "//lint:ignore <rule> <reason>" comment on (or directly above) the
// offending line, or for whole files with "//lint:file-ignore <rule>
// <reason>"; there is no other suppression mechanism. TestModuleIsClean
// runs every rule over the real tree inside `go test ./...`.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	File string `json:"file"` // path relative to the module root
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"message"`
}

// String renders the finding in the canonical "file:line: [rule] message"
// form the CI gate greps for.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Msg)
}

// Package is one type-checked package of the module under analysis. Test
// files are excluded: the rules guard shipped runtime code, and stress tests
// intentionally hammer internals in ways the rules forbid.
type Package struct {
	// Rel is the package directory relative to the module root ("" for the
	// root package). Rules use it to decide whether they apply.
	Rel   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Rule is one self-contained invariant check.
type Rule interface {
	// Name is the short identifier used in findings and ignore directives.
	Name() string
	// Doc is a one-line description for -list output.
	Doc() string
	// Check inspects one package and reports violations.
	Check(p *Package, report func(pos token.Pos, format string, args ...any))
}

// DefaultRules returns every graphlint rule in reporting order.
func DefaultRules() []Rule {
	return []Rule{
		&DetRule{},
		&HotAllocRule{},
		&LockRule{},
		&ScratchRule{},
		&TruncateRule{},
	}
}

// enginePackages are the relative paths of the hand-rolled runtime packages:
// the concurrency-sensitive layer every rule set cares most about.
var enginePackages = map[string]bool{
	"internal/backend":   true,
	"internal/par":       true,
	"internal/galois":    true,
	"internal/giraph":    true,
	"internal/graphlab":  true,
	"internal/combblas":  true,
	"internal/cluster":   true,
	"internal/native":    true,
	"internal/socialite": true,
}

// isEngine reports whether rel names one of the engine runtime packages.
func isEngine(rel string) bool { return enginePackages[rel] }

// Run applies rules to pkgs and returns the surviving findings sorted by
// file and line, with ignore directives already applied.
func Run(pkgs []*Package, rules []Rule) []Finding {
	var findings []Finding
	for _, p := range pkgs {
		ignores := collectIgnores(p)
		for _, r := range rules {
			rule := r
			report := func(pos token.Pos, format string, args ...any) {
				position := p.Fset.Position(pos)
				f := Finding{
					File: position.Filename,
					Line: position.Line,
					Col:  position.Column,
					Rule: rule.Name(),
					Msg:  fmt.Sprintf(format, args...),
				}
				if ignores.suppressed(f) {
					return
				}
				findings = append(findings, f)
			}
			rule.Check(p, report)
		}
		// Directives that name an unknown rule are themselves findings:
		// a typo in an ignore comment must not silently disable nothing.
		findings = append(findings, ignores.bad...)
		// Directives whose rule ran but suppressed nothing are stale: the
		// code they excused has moved or been fixed, so they must go before
		// they hide a future real finding on the same line.
		findings = append(findings, ignores.unused(rules)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].File != findings[j].File {
			return findings[i].File < findings[j].File
		}
		if findings[i].Line != findings[j].Line {
			return findings[i].Line < findings[j].Line
		}
		return findings[i].Rule < findings[j].Rule
	})
	return findings
}

// ignoreDirective is one parsed //lint:ignore or //lint:file-ignore comment.
type ignoreDirective struct {
	rule  string
	line  int
	file  string
	whole bool // file-ignore: applies to the entire file
}

type ignoreSet struct {
	directives []ignoreDirective
	// used marks directives that suppressed at least one finding this run.
	used []bool
	bad  []Finding
}

// collectIgnores parses the lint directives of every file in p.
func collectIgnores(p *Package) *ignoreSet {
	known := make(map[string]bool)
	for _, r := range DefaultRules() {
		known[r.Name()] = true
	}
	set := &ignoreSet{}
	for _, file := range p.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				var whole bool
				switch {
				case isDirective(text, "lint:file-ignore"):
					text = strings.TrimPrefix(text, "lint:file-ignore")
					whole = true
				case isDirective(text, "lint:ignore"):
					text = strings.TrimPrefix(text, "lint:ignore")
				default:
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					set.bad = append(set.bad, Finding{
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Rule: "directive",
						Msg:  "lint:ignore needs a rule name and a reason",
					})
					continue
				}
				if !known[fields[0]] {
					set.bad = append(set.bad, Finding{
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Rule: "directive",
						Msg:  fmt.Sprintf("lint:ignore names unknown rule %q", fields[0]),
					})
					continue
				}
				set.directives = append(set.directives, ignoreDirective{
					rule:  fields[0],
					line:  pos.Line,
					file:  pos.Filename,
					whole: whole,
				})
			}
		}
	}
	return set
}

// isDirective reports whether text is the directive word followed by a
// space: prose that merely mentions a directive name mid-sentence (or runs
// it into punctuation) is not a directive.
func isDirective(text, word string) bool {
	rest, ok := strings.CutPrefix(text, word)
	return ok && strings.HasPrefix(rest, " ")
}

// suppressed reports whether f is covered by a directive: a file-ignore for
// the same rule anywhere in the file, or a line ignore for the same rule on
// the finding's line or the line directly above it. Matching directives are
// marked used so stale ones can be reported afterwards.
func (s *ignoreSet) suppressed(f Finding) bool {
	if s.used == nil {
		s.used = make([]bool, len(s.directives))
	}
	hit := false
	for i, d := range s.directives {
		if d.file != f.File || d.rule != f.Rule {
			continue
		}
		if d.whole || d.line == f.Line || d.line == f.Line-1 {
			s.used[i] = true
			hit = true
		}
	}
	return hit
}

// unused returns an "ignore" hygiene finding for every directive whose rule
// was part of this run but which suppressed nothing: the violation it once
// excused is gone, and a stale directive would silently swallow the next
// real finding on its line.
func (s *ignoreSet) unused(rules []Rule) []Finding {
	ran := make(map[string]bool, len(rules))
	for _, r := range rules {
		ran[r.Name()] = true
	}
	var out []Finding
	for i, d := range s.directives {
		if (s.used != nil && s.used[i]) || !ran[d.rule] {
			continue
		}
		kind := "lint:ignore"
		if d.whole {
			kind = "lint:file-ignore"
		}
		out = append(out, Finding{
			File: d.file, Line: d.line, Col: 1,
			Rule: "ignore",
			Msg:  fmt.Sprintf("%s %s suppresses nothing; delete the stale directive", kind, d.rule),
		})
	}
	return out
}
