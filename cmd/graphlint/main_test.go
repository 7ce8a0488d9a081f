package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const violating = `package fix

import "sync"

var (
	mu      sync.Mutex
	counter int64
)

func Bump() {
	mu.Lock()
	counter++
	mu.Unlock()
}
`

// lintModule writes a one-file module holding src and runs graphlint in it.
func lintModule(t *testing.T, src string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	for name, data := range map[string]string{"go.mod": "module tmpmod\n\ngo 1.22\n", "a.go": src} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out, errb bytes.Buffer
	code = run(dir, args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestGate drives the gate the way `make lint` and CI do: findings exit 1
// in the canonical form, a reasoned directive is the one way to silence
// one, and bad usage exits 2.
func TestGate(t *testing.T) {
	code, out, _ := lintModule(t, violating, "./...")
	if code != 1 || !strings.HasPrefix(out, "a.go:11: [lock] ") {
		t.Fatalf("violating module: exit %d, stdout %q; want 1 and an a.go:11 [lock] finding", code, out)
	}

	ignored := strings.Replace(violating, "\tmu.Lock()",
		"\t//lint:ignore lock an increment between Lock and Unlock cannot panic or return\n\tmu.Lock()", 1)
	if code, out, errb := lintModule(t, ignored, "./..."); code != 0 || out != "" {
		t.Fatalf("ignored violation: exit %d, stdout %q, stderr %q; want a clean exit 0", code, out, errb)
	}

	code, out, _ = lintModule(t, violating, "-list")
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "det hotalloc lock scratch truncate"; code != 0 || got != want {
		t.Fatalf("-list: exit %d, rules %q; want 0 and %q", code, got, want)
	}

	if code, _, errb := lintModule(t, violating, "-rules", "nosuch", "./..."); code != 2 || !strings.Contains(errb, `unknown rule "nosuch"`) {
		t.Fatalf("-rules nosuch: exit %d, stderr %q; want 2 naming the rule", code, errb)
	}
}
