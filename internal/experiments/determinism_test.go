package experiments

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
)

// traceCapture records one in-memory JSONL trace per executed job, keyed
// by the job fingerprint — the test-side analogue of proteus-bench's
// -trace-dir.
type traceCapture struct {
	mu   sync.Mutex
	bufs map[string]*bytes.Buffer
}

func newTraceCapture() *traceCapture {
	return &traceCapture{bufs: make(map[string]*bytes.Buffer)}
}

func (tc *traceCapture) hook(j engine.Job) (*trace.Tracer, error) {
	buf := &bytes.Buffer{}
	tc.mu.Lock()
	tc.bufs[j.Fingerprint()] = buf
	tc.mu.Unlock()
	meta := trace.Meta{Label: j.String(), Fingerprint: j.Fingerprint(), Cores: j.Config.Cores}
	return trace.NewJSONLTracer(buf, meta, 5000)
}

// TestEngineDeterminismAcrossWorkers asserts the tentpole invariant: for a
// fixed seed, the tables a suite produces — and the epoch-sampled trace of
// every job — are byte-identical whether the engine runs 1 worker or 8:
// results are keyed, not ordered by completion, and each simulation runs
// on a single goroutine. Covers Figure 6 and the WPQ drain-age ablation.
func TestEngineDeterminismAcrossWorkers(t *testing.T) {
	render := func(workers int) ([]byte, engine.Counters, map[string]*bytes.Buffer) {
		tc := newTraceCapture()
		eng := engine.New(engine.Config{Workers: workers, Trace: tc.hook})
		s := NewSuite(context.Background(), Quick(), eng)
		f6, err := s.Figure6()
		if err != nil {
			t.Fatal(err)
		}
		ab, err := s.WPQDrainSweep()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := f6.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if err := ab.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), eng.Counters(), tc.bufs
	}

	serial, c1, tr1 := render(1)
	parallel, c8, tr8 := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("tables differ between jobs=1 and jobs=8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", serial, parallel)
	}
	if c1.Simulated != c8.Simulated {
		t.Errorf("simulation counts differ: %d vs %d", c1.Simulated, c8.Simulated)
	}
	// Figure 6 shares its PMEM runs with the drain sweep's age=48 column:
	// the suite must simulate each unique tuple exactly once.
	// Figure 6: 6 benches x 6 schemes = 36. Drain sweep: 6 benches x 5
	// ages, minus the 6 PMEM age=48 runs Figure 6 already did = 24.
	if want := uint64(60); c8.Simulated != want {
		t.Errorf("simulated %d unique tuples, want %d (duplicate or missing runs)", c8.Simulated, want)
	}
	// Every job traced once, and each trace byte-identical across worker
	// counts.
	if len(tr1) != int(c1.Simulated) || len(tr8) != int(c8.Simulated) {
		t.Fatalf("trace counts: %d at jobs=1, %d at jobs=8, want %d each", len(tr1), len(tr8), c1.Simulated)
	}
	for fp, b1 := range tr1 {
		b8, ok := tr8[fp]
		if !ok {
			t.Fatalf("job %s traced at jobs=1 but not at jobs=8", fp)
		}
		if b1.Len() == 0 {
			t.Fatalf("job %s produced an empty trace", fp)
		}
		if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
			t.Errorf("trace for job %s differs between jobs=1 and jobs=8", fp)
		}
	}
	t.Logf("jobs=8 counters: %+v, %d traces captured", c8, len(tr8))
}
