package main

import (
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestFilesTrackedAndNotIgnored guards against an unanchored .gitignore
// pattern silently dropping a benchmark file from commits: every file
// under this directory must be tracked, and no ignore rule may match it.
func TestFilesTrackedAndNotIgnored(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	if out, err := exec.Command("git", "rev-parse", "--is-inside-work-tree").Output(); err != nil || strings.TrimSpace(string(out)) != "true" {
		t.Skip("not inside a git work tree")
	}
	out, err := exec.Command("git", "ls-files", "--", ".").Output()
	if err != nil {
		t.Fatalf("git ls-files: %v", err)
	}
	tracked := map[string]bool{}
	for _, f := range strings.Fields(string(out)) {
		tracked[f] = true
	}
	var files []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !tracked[f] {
			t.Errorf("%s is not tracked by git", f)
		}
		// --no-index checks the patterns even for tracked files; exit
		// status 0 means a pattern matched.
		cmd := exec.Command("git", "check-ignore", "--no-index", "-v", f)
		if out, err := cmd.Output(); err == nil {
			t.Errorf("%s is matched by an ignore pattern: %s", f, strings.TrimSpace(string(out)))
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workloads (all
// but the unlisted ones) and metrics in step with what the program
// reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		if unlisted[w] == "" {
			want = append(want, w)
		}
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	compare := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(defs))
		}
		for i := 0; i < len(got) && i < len(defs); i++ {
			if got[i].Name != defs[i].name || got[i].Unit != defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program has %s (%s)",
					kind, i, got[i].Name, got[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEndMetrics)
	compare("per_layer", b.PerLayer, layerMetrics)
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {1, 5}, {0.99, 4.96}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/cache.(*Level).Access":        "cache",
		"repro/internal/core.NewSystem":               "core",
		"repro/internal/crashcampaign.runTuple.func1": "crashcampaign",
		"runtime.memclrNoHeapPointers":                "",
		"main.main":                                   "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestCPUProfileDecodes checks the protobuf reader against a real
// runtime/pprof profile.
func TestCPUProfileDecodes(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Skip(err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		x++
	}
	b, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	if b.total <= 0 || x == 0 {
		t.Fatalf("profile decoded to no samples")
	}
	if s := b.share("go.other"); s <= 0 {
		t.Errorf("a busy loop in package main should land in go.other, share %v", s)
	}
}
