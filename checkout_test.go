package repro_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCommandsPresentInCheckout guards every gate against running only on
// a developer's machine: each ./cmd/... path a script, CI workflow or
// quickstart names must exist in the tree as a Go package, and no
// unanchored .gitignore pattern may match a cmd/ directory (which would
// keep its sources out of commits while a local build still works).
func TestCommandsPresentInCheckout(t *testing.T) {
	var files []string
	for _, glob := range []string{"scripts/*", ".github/workflows/*", "README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		m, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	cmdPath := regexp.MustCompile(`\./cmd/[A-Za-z0-9_-]+`)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range cmdPath.FindAllString(string(b), -1) {
			if gos, _ := filepath.Glob(filepath.Join(p, "*.go")); len(gos) == 0 {
				t.Errorf("%s names %s, which has no Go sources in the tree", f, p)
			}
		}
	}

	names := []string{"cmd"}
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range cmds {
		names = append(names, "cmd/"+d.Name())
	}
	ignore, err := os.ReadFile(".gitignore")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(ignore), "\n") {
		pat := strings.TrimSpace(line)
		if pat == "" || strings.HasPrefix(pat, "#") || strings.HasPrefix(pat, "!") {
			continue
		}
		// A slash at the start or in the middle anchors a pattern to the
		// repo root; only the rest match at any depth.
		if strings.Contains(strings.TrimSuffix(pat, "/"), "/") {
			continue
		}
		pat = strings.TrimSuffix(pat, "/")
		for _, name := range names {
			if ok, _ := filepath.Match(pat, filepath.Base(name)); ok {
				t.Errorf(".gitignore pattern %q matches the source directory %s; anchor it as /%s", pat, name, pat)
			}
		}
	}
}
