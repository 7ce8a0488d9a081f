// Command graphlint runs the project-specific static analyzer over the
// module and reports violations of the eight invariants internal/lint
// keeps (atomic, det, goroutine, hotalloc, lock, panic, scratch, truncate;
// -list describes each). It exits 1 when any finding survives the
// //lint:ignore directives — the only suppression there is — and 2 on bad
// usage, which makes one call the whole gate:
//
//	go run ./cmd/graphlint ./...
//
// Flags:
//
//	-json   emit findings as a JSON array instead of text
//	-list   print the available rules and exit
//	-rules  comma-separated subset of rules to run (default: all)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"graphmaze/internal/lint"
)

func main() {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphlint:", err)
		os.Exit(2)
	}
	os.Exit(run(cwd, os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the module that contains dir and returns the exit status:
// 0 clean, 1 findings, 2 bad usage or a module that does not load.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graphlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	list := fs.Bool("list", false, "list available rules and exit")
	ruleFilter := fs.String("rules", "", "comma-separated subset of rules to run")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	rules := lint.DefaultRules()
	if *list {
		for _, r := range rules {
			fmt.Fprintf(stdout, "%-10s %s\n", r.Name(), r.Doc())
		}
		return 0
	}
	if *ruleFilter != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*ruleFilter, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var kept []lint.Rule
		for _, r := range rules {
			if want[r.Name()] {
				kept = append(kept, r)
				delete(want, r.Name())
			}
		}
		for name := range want {
			fmt.Fprintf(stderr, "graphlint: unknown rule %q (use -list)\n", name)
			return 2
		}
		rules = kept
	}

	var pkgs []*lint.Package
	modDir, err := lint.FindModuleRoot(dir)
	if err == nil {
		pkgs, err = lint.Load(modDir)
	}
	if err != nil {
		fmt.Fprintln(stderr, "graphlint:", err)
		return 2
	}
	findings := lint.Run(filterPackages(pkgs, fs.Args()), rules)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "graphlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "graphlint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// filterPackages narrows pkgs to the requested patterns: "./..." (or no
// arguments) keeps everything, "./dir/..." keeps the subtree, and "./dir"
// keeps the single package.
func filterPackages(pkgs []*lint.Package, patterns []string) []*lint.Package {
	if len(patterns) == 0 {
		return pkgs
	}
	var out []*lint.Package
	for _, p := range pkgs {
		for _, pat := range patterns {
			if matches(p.Rel, pat) {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

func matches(rel, pattern string) bool {
	pattern = strings.TrimPrefix(pattern, "./")
	if pattern == "..." || pattern == "" {
		return true
	}
	if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
		return rel == prefix || strings.HasPrefix(rel, prefix+"/")
	}
	return rel == strings.TrimSuffix(pattern, "/")
}
