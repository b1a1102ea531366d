package main

import (
	"io"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
BenchmarkFigure6-2          	       1	8000728639 ns/op	         1.487 proteus-speedup	1789822440 B/op	  224553 allocs/op
BenchmarkStepNilTracer-2    	   49410	     48316.4 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro	12.3s
`

func TestParse(t *testing.T) {
	snap, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != 1 || len(snap.Benchmarks) != 2 {
		t.Fatalf("parsed %+v", snap)
	}
	fig, step := snap.Benchmarks[0], snap.Benchmarks[1]
	if fig.Name != "BenchmarkFigure6" || fig.NsOp != 8000728639 || fig.BytesOp != 1789822440 ||
		fig.AllocsOp != 224553 || fig.Metrics["proteus-speedup"] != 1.487 {
		t.Errorf("figure benchmark parsed as %+v", fig)
	}
	if step.Name != "BenchmarkStepNilTracer" || step.NsOp != 48316 || step.BytesOp != 0 || step.Metrics != nil {
		t.Errorf("step benchmark parsed as %+v", step)
	}
	if _, err := Parse(strings.NewReader("PASS\n")); err == nil {
		t.Error("output without results accepted")
	}
}

func TestGate(t *testing.T) {
	old := &Snapshot{Schema: 1, Benchmarks: []Benchmark{{Name: "BenchmarkA", NsOp: 100, AllocsOp: 10}, {Name: "BenchmarkGone", NsOp: 1}}}
	for _, c := range []struct {
		b    Benchmark
		pass bool
	}{
		{Benchmark{Name: "BenchmarkA", NsOp: 120, AllocsOp: 12}, true},
		{Benchmark{Name: "BenchmarkA", NsOp: 121, AllocsOp: 10}, false},
		{Benchmark{Name: "BenchmarkA", NsOp: 100, AllocsOp: 13}, false},
		{Benchmark{Name: "BenchmarkNew", NsOp: 1e9}, true},
	} {
		got := Gate(io.Discard, old, &Snapshot{Schema: 1, Benchmarks: []Benchmark{c.b}}, 20)
		if got != c.pass {
			t.Errorf("%+v: gate passed=%v, want %v", c.b, got, c.pass)
		}
	}
}
