// Command benchjson turns `go test -bench -benchmem` output into a
// benchmark snapshot (the BENCH_<n>.json format) and gates one snapshot
// against another.
//
//	go test -run '^$' -bench . -benchmem . | benchjson -emit BENCH_11.json
//	benchjson -old BENCH_10.json -new BENCH_11.json -max-regress 20
//
// -emit reads the benchmark output on stdin. The gate fails (exit 1) when
// a benchmark present in both snapshots got more than -max-regress
// percent worse on ns/op or allocs/op.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is the BENCH_<n>.json document, schema 1.
type Snapshot struct {
	Schema     int         `json:"schema"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one benchmark's result: the standard -benchmem columns
// plus every custom b.ReportMetric value keyed by its unit.
type Benchmark struct {
	Name     string             `json:"name"`
	NsOp     int64              `json:"ns_op"`
	BytesOp  int64              `json:"bytes_op,omitempty"`
	AllocsOp int64              `json:"allocs_op,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	var (
		emit       = flag.String("emit", "", "parse go test -bench output from stdin and write a snapshot to this file (- = stdout)")
		oldPath    = flag.String("old", "", "baseline snapshot for the gate")
		newPath    = flag.String("new", "", "candidate snapshot for the gate")
		maxRegress = flag.Float64("max-regress", 20, "gate tolerance in percent on ns/op and allocs/op")
	)
	flag.Parse()
	switch {
	case *emit != "":
		snap, err := Parse(os.Stdin)
		exitOn(err)
		exitOn(write(*emit, snap))
	case *oldPath != "" && *newPath != "":
		oldSnap, err := load(*oldPath)
		exitOn(err)
		newSnap, err := load(*newPath)
		exitOn(err)
		if !Gate(os.Stdout, oldSnap, newSnap, *maxRegress) {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "benchjson: need -emit FILE, or -old FILE -new FILE")
		flag.Usage()
		os.Exit(2)
	}
}

// benchLine matches a result line: name with its GOMAXPROCS suffix, the
// iteration count, then value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.+)$`)

// Parse reads go test -bench output and returns the snapshot, benchmarks
// sorted by name. A benchmark reported twice keeps its last result.
func Parse(r io.Reader) (*Snapshot, error) {
	byName := make(map[string]Benchmark)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		b := Benchmark{Name: m[1]}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: %s: bad value %q", b.Name, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsOp = int64(math.Round(v))
			case "B/op":
				b.BytesOp = int64(math.Round(v))
			case "allocs/op":
				b.AllocsOp = int64(math.Round(v))
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = v
			}
		}
		byName[b.Name] = b
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(byName) == 0 {
		return nil, fmt.Errorf("benchjson: no benchmark results in the input")
	}
	snap := &Snapshot{Schema: 1}
	for _, b := range byName {
		snap.Benchmarks = append(snap.Benchmarks, b)
	}
	sort.Slice(snap.Benchmarks, func(i, j int) bool { return snap.Benchmarks[i].Name < snap.Benchmarks[j].Name })
	return snap, nil
}

// Gate writes a comparison of every benchmark present in both snapshots
// and reports whether all of them stayed within maxRegress percent on
// ns/op and allocs/op.
func Gate(w io.Writer, oldSnap, newSnap *Snapshot, maxRegress float64) bool {
	base := make(map[string]Benchmark)
	for _, b := range oldSnap.Benchmarks {
		base[b.Name] = b
	}
	limit := 1 + maxRegress/100
	ok := true
	for _, nb := range newSnap.Benchmarks {
		ob, shared := base[nb.Name]
		if !shared {
			continue
		}
		verdict := "ok"
		if float64(nb.NsOp) > float64(ob.NsOp)*limit || float64(nb.AllocsOp) > float64(ob.AllocsOp)*limit {
			verdict = "REGRESSED"
			ok = false
		}
		fmt.Fprintf(w, "%-40s ns/op %14d -> %14d  allocs/op %10d -> %10d  %s\n",
			nb.Name, ob.NsOp, nb.NsOp, ob.AllocsOp, nb.AllocsOp, verdict)
	}
	return ok
}

func load(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("benchjson: parsing %s: %w", path, err)
	}
	if s.Schema != 1 {
		return nil, fmt.Errorf("benchjson: %s has schema %d, want 1", path, s.Schema)
	}
	return &s, nil
}

func write(path string, s *Snapshot) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
