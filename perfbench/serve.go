package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/resultstore"
	"repro/internal/serve"
	"repro/internal/workload"
)

// The serve workload is a closed loop: each of `workers` clients posts
// sim specs to POST /v1/jobs?wait=1 and sends its next request when the
// previous one returns. Every run follows a fixed script, so a faster
// server does the same work in less time. A client's script is a number
// of rounds, each one request per letter of roundKinds:
//
//   - F, fresh: a spec no server has seen; it simulates, writes the store
//     and adds a ledger leaf;
//   - R, repeat: a spec the client already got an answer for, picked at
//     random; a memo hit;
//   - S, store: a spec an earlier server instance wrote into the same
//     store directory before set-up; a store load with a digest check.
//
// The repository has no traffic record to take the shares from. Each kind
// has a share large enough to show in the end-to-end metrics: fresh
// requests dominate the time, and store loads sit among the memo hits
// around the median latency. Store loads get the smallest share because
// the earlier instance simulates each one before the run.
const (
	roundKinds = "FRSFRR"
	// serveRoundsPerSecond sizes the untraced script: with --seconds s a
	// client makes s × serveRoundsPerSecond rounds, about s seconds of
	// load on a 2-CPU host.
	serveRoundsPerSecond = 40
	// tracedRounds fixes the traced run's script, so its counts repeat;
	// it is long enough for a CPU profile of a few hundred samples.
	tracedRounds = 200
	// ledgerWait keeps the batcher from sealing by time: a batch seals
	// once ledgerBatch leaves are pending (it takes every leaf pending by
	// then, so sizes vary a little) and the last one on close.
	// proteus-served's default 25ms wait would make the batch count, and
	// the ledger's rewrite cost, follow the host's speed.
	ledgerBatch = 64
	ledgerWait  = time.Hour
)

// simSpec is the request the repository's own serve clients send:
// scripts/ledger_smoke.sh, scripts/serve_smoke.sh and proteus-chaos post
// {"type":"sim","bench":"QE","simops":16,"initops":64} with 1 or 2
// threads, and proteus-chaos varies the workload seed to mint new
// results. Those clients use the Proteus and ATOM schemes; spec i of a
// stream takes any of the six schemes and the thread count from i, and a
// new workload seed every twelve specs, because the engine keeps every
// workload it builds: the server's memory grows with the number of seeds.
// kind separates the fresh stream (1) from the store stream (2).
func simSpec(seed int64, kind, client, i int) serve.Spec {
	n := len(core.Schemes)
	return serve.Spec{Type: "sim", Bench: workload.Queue.Abbrev(), Scheme: core.Schemes[i%n].String(),
		Threads: 1 + i/n%2, SimOps: 16, InitOps: 64, Seed: specSeed(seed, kind, client, i/(2*n))}
}

// specSeed derives a distinct, non-zero workload seed (zero means the
// default) for each spec.
func specSeed(seed int64, kind, client, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(kind)<<56 ^ uint64(client)<<48 ^ uint64(i)
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return int64(x>>2) | 1
}

// stack is the serving stack wired the way cmd/proteus-served wires it:
// engine + resultstore + ledger.RecordingStore + Batcher + serve.New,
// listening on loopback.
type stack struct {
	store   *resultstore.Store
	lg      *ledger.Ledger
	batcher *ledger.Batcher
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	eng     *engine.Engine

	// Set on a traced stack only.
	timed             *timedStore
	storeFS, ledgerFS *countingFS
	clock             *jobClock
}

func openStack(dir string, traced bool) (*stack, error) {
	s := &stack{}
	var storeFS, ledgerFS resultstore.FS = resultstore.OSFS(), resultstore.OSFS()
	if traced {
		s.storeFS = &countingFS{FS: storeFS}
		s.ledgerFS = &countingFS{FS: ledgerFS}
		storeFS, ledgerFS = s.storeFS, s.ledgerFS
	}
	var err error
	if s.store, err = resultstore.OpenFS(dir, storeFS); err != nil {
		return nil, err
	}
	if s.lg, err = ledger.Open(ledger.DefaultPath(dir), ledgerFS); err != nil {
		return nil, err
	}
	s.batcher = ledger.NewBatcher(s.lg, ledgerBatch, ledgerWait)
	var inner engine.ResultStore = s.store
	if traced {
		s.timed = &timedStore{inner: s.store}
		inner = s.timed
	}
	econf := engine.Config{Workers: workers, Store: ledger.NewRecordingStore(inner, s.batcher)}
	if traced {
		s.clock = newJobClock()
		econf.Progress = s.clock.event
	}
	s.eng = engine.New(econf)
	s.store.SetVerifier(ledger.DigestVerifier(s.lg))
	s.srv, err = serve.New(serve.Config{
		Engine:         s.eng,
		Store:          s.store,
		QueueDepth:     64,
		Workers:        workers,
		DefaultTimeout: 30 * time.Minute,
		Ledger:         s.lg,
		Admissions:     s.batcher,
	})
	if err != nil {
		s.batcher.Close()
		return nil, err
	}
	s.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.batcher.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close drains the server, stops the listener and seals what the ledger
// has pending, in proteus-served's order.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	derr := s.srv.Drain(ctx)
	serr := s.hs.Shutdown(ctx)
	<-s.served
	s.batcher.Close()
	if derr != nil {
		return fmt.Errorf("draining server: %w", derr)
	}
	if serr != nil {
		return fmt.Errorf("stopping listener: %w", serr)
	}
	return nil
}

// client is one closed-loop caller.
type client struct {
	http *http.Client
	url  string
}

// answer is what one request returned.
type answer struct {
	ok      bool
	latency time.Duration
	elapsed time.Duration // the status's execution time
	result  []byte
}

func (c *client) post(spec serve.Spec) (answer, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return answer{}, err
	}
	t0 := time.Now()
	resp, err := c.http.Post(c.url+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return answer{}, fmt.Errorf("posting job: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a := answer{latency: time.Since(t0)}
	if err != nil {
		return a, fmt.Errorf("reading job status: %w", err)
	}
	var st struct {
		State   string          `json:"state"`
		Error   string          `json:"error"`
		Elapsed string          `json:"elapsed"`
		Result  json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return a, nil
	}
	a.elapsed, _ = time.ParseDuration(st.Elapsed)
	a.result = st.Result
	a.ok = resp.StatusCode == http.StatusOK && st.State == "done" && len(st.Result) > 0
	return a, nil
}

func newClients(url string) []*client {
	tr := &http.Transport{MaxIdleConnsPerHost: workers}
	out := make([]*client, workers)
	for i := range out {
		out[i] = &client{http: &http.Client{Transport: tr}, url: url}
	}
	return out
}

// preload is the earlier server instance: it writes n store specs per
// client into the directory, and returns their answers for the later
// instance to be checked against.
func preload(dir string, seed int64, n int) ([][][]byte, error) {
	s, err := openStack(dir, false)
	if err != nil {
		return nil, err
	}
	clients := newClients(s.url)
	want := make([][][]byte, workers)
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				a, err := c.post(simSpec(seed, 2, ci, i))
				if err == nil && !a.ok {
					err = fmt.Errorf("preloading store spec %d of client %d failed", i, ci)
				}
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
				want[ci] = append(want[ci], a.result)
			}
		}(ci, c)
	}
	wg.Wait()
	cerr := s.close()
	if firstErr != nil {
		return nil, firstErr
	}
	return want, cerr
}

// storeDir is a store directory an earlier server instance wrote for a
// script of `rounds` rounds per client: the store specs, and the answers
// the later instance is checked against.
type storeDir struct {
	dir    string
	want   [][][]byte
	rounds int
}

func writeStoreDir(r *run, name string, rounds int) (*storeDir, error) {
	dir := filepath.Join(r.scratch, fmt.Sprintf("serve-%d-%s", os.Getpid(), name))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	want, err := preload(dir, r.seed, rounds*strings.Count(roundKinds, "S"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &storeDir{dir: dir, want: want, rounds: rounds}, nil
}

// serveEnv is one set-up: the stack under measurement, opened over a
// store directory.
type serveEnv struct {
	st *stack
	*storeDir
}

// openEnv is the serve workload's set-up: a server restart over the
// earlier instance's store and ledger, until /healthz answers.
func openEnv(d *storeDir, traced bool) (*serveEnv, error) {
	st, err := openStack(d.dir, traced)
	if err != nil {
		return nil, err
	}
	resp, err := http.Get(st.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return &serveEnv{st: st, storeDir: d}, nil
}

// finish stops the stack, audits the ledger against the store, and
// removes the directory.
func (e *serveEnv) finish(r *run) error {
	defer os.RemoveAll(e.dir)
	if err := e.st.close(); err != nil {
		return err
	}
	rep, err := ledger.Audit(e.st.store, e.st.lg)
	if err != nil {
		return fmt.Errorf("auditing ledger: %w", err)
	}
	r.check(rep.Err(false, true) == nil, "ledger audit: %v", rep.Err(false, true))
	return nil
}

func discardEnv(e *serveEnv) {
	e.st.close()
	os.RemoveAll(e.dir)
}

// loadStats is what a closed-loop window measured.
type loadStats struct {
	wall      time.Duration
	requests  int
	rounds    []float64 // seconds per client round
	latencies []float64 // ms
	elapsed   []float64 // ms, the status's execution time of fresh requests
	overhead  []float64 // ms, latency minus execution time
	fresh     int
	cycles    float64
	alloc     uint64
}

// drive runs the environment's script on the closed loop and checks every
// answer.
func drive(r *run, e *serveEnv) (*loadStats, error) {
	clients := newClients(e.st.url)
	type clientStats struct {
		loadStats
		bad    int64
		checks int64
		err    error
	}
	per := make([]clientStats, len(clients))
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			cs := &per[ci]
			var history [][]byte // answers to this client's earlier specs
			var specs []serve.Spec
			nextFresh, nextStore := 0, 0
			pick := uint64(specSeed(r.seed, 3, ci, 0))
			for round := 0; round < e.rounds; round++ {
				rt := time.Now()
				for _, k := range roundKinds {
					var spec serve.Spec
					var want []byte
					kind := "repeat"
					switch {
					case k == 'F' || len(history) == 0:
						kind = "fresh"
						spec = simSpec(r.seed, 1, ci, nextFresh)
						nextFresh++
					case k == 'S':
						kind = "store"
						spec = simSpec(r.seed, 2, ci, nextStore)
						want = e.want[ci][nextStore]
						nextStore++
					default:
						pick = pick*6364136223846793005 + 1442695040888963407
						i := int((pick >> 33) % uint64(len(history)))
						spec, want = specs[i], history[i]
					}
					a, err := c.post(spec)
					if err != nil {
						cs.err = err
						return
					}
					cs.requests++
					cs.checks++
					lat := float64(a.latency) / 1e6
					cs.latencies = append(cs.latencies, lat)
					cs.overhead = append(cs.overhead, lat-float64(a.elapsed)/1e6)
					switch {
					case !a.ok:
						cs.bad++
						fmt.Fprintf(os.Stderr, "perfbench: serve: %s request for %s/%s failed\n", kind, spec.Bench, spec.Scheme)
						continue
					case want != nil && !bytes.Equal(a.result, want):
						cs.bad++
						fmt.Fprintf(os.Stderr, "perfbench: serve: %s request for %s/%s returned different bytes\n", kind, spec.Bench, spec.Scheme)
					}
					if kind == "fresh" {
						cs.fresh++
						cs.elapsed = append(cs.elapsed, float64(a.elapsed)/1e6)
						var res serve.SimResult
						if json.Unmarshal(a.result, &res) == nil && res.Report != nil {
							cs.cycles += float64(res.Report.Cycles)
						}
					}
					if kind != "repeat" {
						specs = append(specs, spec)
						history = append(history, a.result)
					}
				}
				cs.rounds = append(cs.rounds, time.Since(rt).Seconds())
			}
		}(ci, c)
	}
	wg.Wait()
	out := &loadStats{wall: time.Since(t0)}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	out.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	for _, cs := range per {
		if cs.err != nil {
			return nil, cs.err
		}
		r.checkN(cs.checks, cs.bad, "serve requests")
		out.requests += cs.requests
		out.rounds = append(out.rounds, cs.rounds...)
		out.latencies = append(out.latencies, cs.latencies...)
		out.elapsed = append(out.elapsed, cs.elapsed...)
		out.overhead = append(out.overhead, cs.overhead...)
		out.fresh += cs.fresh
		out.cycles += cs.cycles
	}
	return out, nil
}

func runServe(r *run) error {
	if err := os.MkdirAll(r.scratch, 0o755); err != nil {
		return err
	}
	rounds := tracedRounds
	if !r.traced {
		rounds = int(r.budget.Seconds()) * serveRoundsPerSecond
	}
	d, err := writeStoreDir(r, "run", rounds)
	if err != nil {
		return err
	}
	env, err := timedSetup(r, func() (*serveEnv, error) { return openEnv(d, false) },
		func(e *serveEnv) { e.st.close() })
	if err != nil {
		os.RemoveAll(d.dir)
		return err
	}
	if !r.traced {
		ls, err := drive(r, env)
		if err != nil {
			discardEnv(env)
			return err
		}
		if err := env.finish(r); err != nil {
			return err
		}
		secs := ls.wall.Seconds()
		r.endToEnd("wall_s", median(ls.rounds))
		r.endToEnd("ops_per_s", float64(ls.requests)/secs)
		r.endToEnd("sim_mcycles_per_s", ls.cycles/secs/1e6)
		r.endToEnd("latency_p50_ms", quantile(ls.latencies, 0.5))
		r.endToEnd("latency_p99_ms", tail(ls.latencies))
		r.endToEnd("alloc_gb", float64(ls.alloc)/float64(len(ls.rounds))/1e9)
		return nil
	}

	// Traced: the same fixed script on the untraced stack, then on a
	// traced stack over a fresh directory.
	ref, err := drive(r, env)
	if err != nil {
		discardEnv(env)
		return err
	}
	if err := env.finish(r); err != nil {
		return err
	}
	td, err := writeStoreDir(r, "traced", tracedRounds)
	if err != nil {
		return err
	}
	tenv, err := openEnv(td, true)
	if err != nil {
		os.RemoveAll(td.dir)
		return err
	}
	st := tenv.st
	storeW0, ledgerW0, ledgerT0 := st.storeFS.written.Load(), st.ledgerFS.written.Load(), st.ledgerFS.busy.Load()
	batch0 := st.batcher.Counters()
	var ls *loadStats
	cpuB, allocB, err := profiled(func() error {
		var err error
		ls, err = drive(r, tenv)
		return err
	})
	if err != nil {
		discardEnv(tenv)
		return err
	}
	hits := st.store.Counters().Hits
	if err := tenv.finish(r); err != nil {
		return err
	}
	batch1 := st.batcher.Counters()
	ledgerBytes := float64(st.ledgerFS.written.Load() - ledgerW0)
	r.layer("serve.requests", float64(ls.requests))
	r.layer("serve.fresh", float64(ls.fresh))
	r.layer("serve.exec_p50_ms", median(ls.elapsed))
	r.layer("serve.overhead_p50_ms", median(ls.overhead))
	r.layer("resultstore.load_p50_ms", median(st.timed.loads()))
	r.layer("resultstore.store_p50_ms", median(st.timed.stores()))
	r.layer("resultstore.hits", float64(hits))
	r.layer("resultstore.bytes_written", float64(st.storeFS.written.Load()-storeW0))
	r.layer("ledger.batches", float64(batch1.Batches-batch0.Batches))
	r.layer("ledger.bytes_written", ledgerBytes)
	if sealed := batch1.Sealed - batch0.Sealed; sealed > 0 {
		r.layer("ledger.bytes_per_leaf", ledgerBytes/float64(sealed))
	}
	r.layer("ledger.fs_s", time.Duration(st.ledgerFS.busy.Load()-ledgerT0).Seconds())
	r.layer("core.sim_cycles", ls.cycles)
	// The engine builds one machine per simulation.
	r.layer("core.systems", float64(st.eng.Counters().Simulated))
	r.engineMetrics(st.clock, ls.wall)
	r.profiledCore(cpuB, allocB)
	r.uncovered(cpuB, ls.wall)
	r.layer("trace.overhead_frac", ls.wall.Seconds()/ref.wall.Seconds()-1)
	r.setShares(cpuB, allocB)
	return nil
}

// timedStore times the engine's calls into the result store: loads that
// hit, and stores.
type timedStore struct {
	inner engine.ResultStore
	mu    sync.Mutex
	load  []float64
	store []float64
}

func (t *timedStore) Load(key string) (*engine.Result, error) {
	t0 := time.Now()
	res, err := t.inner.Load(key)
	if res != nil {
		t.record(&t.load, t0)
	}
	return res, err
}

func (t *timedStore) Store(key string, j engine.Job, res *engine.Result) error {
	t0 := time.Now()
	err := t.inner.Store(key, j, res)
	t.record(&t.store, t0)
	return err
}

func (t *timedStore) record(dst *[]float64, t0 time.Time) {
	ms := float64(time.Since(t0)) / 1e6
	t.mu.Lock()
	*dst = append(*dst, ms)
	t.mu.Unlock()
}

func (t *timedStore) loads() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.load...)
}

func (t *timedStore) stores() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.store...)
}

// countingFS counts the bytes written through a resultstore.FS and the
// time spent in its calls.
type countingFS struct {
	resultstore.FS
	written atomic.Int64
	busy    atomic.Int64 // nanoseconds
}

func (c *countingFS) timed(t0 time.Time) { c.busy.Add(int64(time.Since(t0))) }

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	defer c.timed(time.Now())
	return c.FS.ReadFile(name)
}

func (c *countingFS) MkdirAll(path string, perm os.FileMode) error {
	defer c.timed(time.Now())
	return c.FS.MkdirAll(path, perm)
}

func (c *countingFS) Remove(name string) error {
	defer c.timed(time.Now())
	return c.FS.Remove(name)
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	defer c.timed(time.Now())
	return c.FS.Rename(oldpath, newpath)
}

func (c *countingFS) SyncDir(dir string) error {
	defer c.timed(time.Now())
	return c.FS.SyncDir(dir)
}

func (c *countingFS) CreateTemp(dir, pattern string) (resultstore.File, error) {
	defer c.timed(time.Now())
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	resultstore.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	defer f.fs.timed(time.Now())
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	defer f.fs.timed(time.Now())
	return f.File.Sync()
}

func (f *countingFile) Close() error {
	defer f.fs.timed(time.Now())
	return f.File.Close()
}
