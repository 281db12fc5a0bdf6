package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lapushdb"
	"lapushdb/internal/bench"
	"lapushdb/internal/engine"
	"lapushdb/internal/store"
)

// env is one server set-up: a hermetic in-process lapushd with the
// default server.Config over a durable store (FsyncAlways, default
// checkpoint cadence) seeded with the dataset. attachCopies adds the
// in-process copies of the same data the checks and probes call into.
type env struct {
	sc     Scale
	dir    string
	store  *store.Store
	srv    *httptest.Server
	client *http.Client

	snapshot []byte       // the dataset's persisted bytes
	local    *lapushdb.DB // decoded from snapshot: RankContext reference
	edb      *engine.DB   // decoded from snapshot: direct layer calls

	acked atomic.Uint64 // highest version an ingest reply acknowledged
}

// setup builds an env under dir (which must not exist yet). What it
// does is a server workload's set-up time: dataset generation, store
// open and seeding (a checkpoint of the seed), server start.
func setup(sc Scale, dir string) (*env, error) {
	ds, err := buildDataset(sc)
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	st, err := apiOpenStore(ds, dir, store.FsyncAlways)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	e := &env{sc: sc, dir: dir, store: st}
	e.srv = httptest.NewServer(apiNewServer(st))
	e.client = e.srv.Client()
	return e, nil
}

// attachCopies gives the harness its own copies of the served data and
// asserts, before any timing, that they are the same data. The one
// generator that seeded the server is run again; the copies are decoded
// from its snapshot bytes, which must equal the served version's (rows,
// probabilities, dictionaries), and the fingerprint /healthz reports
// must equal the one computed from the local copy.
func (e *env) attachCopies() error {
	ds, err := buildDataset(e.sc)
	if err != nil {
		return fmt.Errorf("generate dataset: %w", err)
	}
	if e.snapshot, err = snapshotBytes(ds); err != nil {
		return err
	}
	if e.local, err = lapushdb.Load(bytes.NewReader(e.snapshot)); err != nil {
		return fmt.Errorf("decode dataset snapshot: %w", err)
	}
	if e.edb, err = engineDB(e.snapshot); err != nil {
		return err
	}
	served, err := snapshotBytes(e.store.Current().DB)
	if err != nil {
		return err
	}
	if !bytes.Equal(served, e.snapshot) {
		return fmt.Errorf("parity: served version's snapshot differs from the generated dataset's")
	}
	var h struct {
		Fingerprint string `json:"fingerprint"`
	}
	status, body, err := e.get("/healthz")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("parity: healthz status %d: %v", status, err)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return fmt.Errorf("parity: decode healthz: %w", err)
	}
	if want := store.Fingerprint(e.local, 0); h.Fingerprint != want {
		return fmt.Errorf("parity: server fingerprint %s, in-process copy %s", h.Fingerprint, want)
	}
	return nil
}

// scratchStore opens a durable store of its own over a fresh copy of the
// dataset, for the direct Store.Apply calls of the traced pass and the
// store probes.
func (e *env) scratchStore(dir string, fsync store.FsyncPolicy) (*store.Store, error) {
	seed, err := lapushdb.Load(bytes.NewReader(e.snapshot))
	if err != nil {
		return nil, fmt.Errorf("decode dataset snapshot: %w", err)
	}
	st, err := apiOpenStore(seed, dir, fsync)
	if err != nil {
		return nil, fmt.Errorf("open scratch store: %w", err)
	}
	return st, nil
}

// Close stops the server, waits for its connections, closes the store
// and removes the store directory.
func (e *env) Close() {
	e.stopServing()
	_ = os.RemoveAll(e.dir)
}

func (e *env) stopServing() {
	if e.srv != nil {
		e.srv.Close()
		e.srv = nil
	}
	if e.store != nil {
		_ = e.store.Close() // already acknowledged writes are fsynced; nothing left to lose
		e.store = nil
	}
}

// do issues one request and returns the status and the whole body.
func (e *env) do(r request) (int, []byte, error) {
	resp, err := e.client.Post(e.srv.URL+r.Path, "application/json", bytes.NewReader(r.Body))
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

func (e *env) get(path string) (int, []byte, error) {
	resp, err := e.client.Get(e.srv.URL + path)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// checkShape is the check every response of a timed window gets: status
// 200 and a well-formed JSON object of the endpoint's shape. The deep
// checks (bit-identity, interval soundness) run in the check phase, off
// the clock.
func checkShape(r request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", r.Path, status, body)
	}
	want := `{"answers":`
	if r.Kind == opWrite {
		want = `{"version":`
	}
	if !bytes.HasPrefix(body, []byte(want)) || !json.Valid(body) {
		return fmt.Errorf("%s: malformed response: %.200s", r.Path, body)
	}
	return nil
}

// send issues one request and checks the reply's shape; an ingest ack's
// version is remembered for the durability check.
func (e *env) send(r request) (body []byte, lat time.Duration, err error) {
	t0 := time.Now()
	status, body, err := e.do(r)
	lat = time.Since(t0)
	if err == nil {
		err = checkShape(r, status, body)
	}
	if err == nil && r.Kind == opWrite {
		var ack struct {
			Version uint64 `json:"version"`
		}
		if err = json.Unmarshal(body, &ack); err == nil {
			for old := e.acked.Load(); ack.Version > old && !e.acked.CompareAndSwap(old, ack.Version); old = e.acked.Load() {
			}
		}
	}
	return body, lat, err
}

// memCounters is the slice of runtime.MemStats the harness reports.
type memCounters struct{ bytes, mallocs uint64 }

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{bytes: ms.TotalAlloc, mallocs: ms.Mallocs}
}

// window is what one closed-loop phase measured.
type window struct {
	reads, writes bench.Histogram
	attempted     int64
	failed        int64
	respBytes     int64
	elapsed       time.Duration
	allocBytes    uint64
	firstErr      error
}

func (w *window) ok() int64 { return w.attempted - w.failed }

// record files one finished request.
func (w *window) record(r request, body []byte, lat time.Duration, err error) {
	w.attempted++
	switch {
	case err != nil:
		w.failed++
		if w.firstErr == nil {
			w.firstErr = err
		}
	case r.Kind == opWrite:
		w.respBytes += int64(len(body))
		w.writes.Add(lat)
	default:
		w.respBytes += int64(len(body))
		w.reads.Add(lat)
	}
}

// merge adds a client's tally into w.
func (w *window) merge(c *window) {
	w.reads.Merge(&c.reads)
	w.writes.Merge(&c.writes)
	w.attempted += c.attempted
	w.failed += c.failed
	w.respBytes += c.respBytes
	if w.firstErr == nil {
		w.firstErr = c.firstErr
	}
}

// clientCount is the closed loop's width: lapushd's callers each wait
// for their reply, and the load generator shares the machine with the
// server it drives, so it never runs more clients than processors.
func clientCount() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// runWindow drives the stream closed-loop for d: each client sends its
// next request only after the previous reply, all clients pulling
// indices from next so the issued stream is the same whatever the
// scheduling. A request in flight at the deadline is allowed to finish
// and counts; elapsed is measured to the last reply. The phase goes on
// past d until the stream has reached index atLeast (0 for a timed
// window): a warm-up must have filled the caches even when the machine
// is too slow for its time budget to do so.
func (e *env) runWindow(s stream, next *atomic.Int64, clients int, d time.Duration, atLeast int64) *window {
	tallies := make([]window, clients) // one per client, merged after: the loop takes no locks
	mem0 := readMem()
	begin := time.Now()
	deadline := begin.Add(d)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func(t *window) {
			defer wg.Done()
			for time.Now().Before(deadline) || next.Load() < atLeast {
				r := s(next.Add(1) - 1)
				body, lat, err := e.send(r)
				t.record(r, body, lat, err)
			}
		}(&tallies[c])
	}
	wg.Wait()
	w := &window{elapsed: time.Since(begin)}
	w.allocBytes = readMem().bytes - mem0.bytes
	for i := range tallies {
		w.merge(&tallies[i])
	}
	return w
}

// warmAndMeasure is a server workload's warm-up followed by its spans-off
// timed window, with the server's counters scraped on either side of the
// window.
func (e *env) warmAndMeasure(cfg runConfig, s stream, clients int, res *runResult) (w *window, before, after map[string]float64, err error) {
	var next atomic.Int64
	if warm := e.runWindow(s, &next, clients, cfg.warmup(), warmupFloor(cfg.Workload)); warm.firstErr != nil {
		res.problem("warm-up: %v", warm.firstErr)
	}
	if before, err = e.scrape(); err != nil {
		return nil, nil, nil, err
	}
	w = e.runWindow(s, &next, clients, cfg.window(), 0)
	if after, err = e.scrape(); err != nil {
		return nil, nil, nil, err
	}
	res.count(w.attempted, w.failed, w.firstErr)
	return w, before, after, nil
}

// scrape reads the server's /metrics into name → value (labelled series
// keep their label text in the name).
func (e *env) scrape() (map[string]float64, error) {
	status, body, err := e.get("/metrics")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d: %v", status, err)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// hitRatio is hits ÷ (hits + misses) of one cache between two scrapes,
// 0 when it saw no lookups.
func hitRatio(before, after map[string]float64, cache string) float64 {
	hits := after["lapushd_"+cache+"_hits_total"] - before["lapushd_"+cache+"_hits_total"]
	misses := after["lapushd_"+cache+"_misses_total"] - before["lapushd_"+cache+"_misses_total"]
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// pass runs one Opt1-2-3 pass over every cell (plan search included:
// core.SinglePlan is part of what the paper times), returning the
// per-cell results for checking.
func (f *fig5) pass(ctx context.Context) ([]*engine.Result, error) {
	out := make([]*engine.Result, len(f.cells))
	for i, c := range f.cells {
		res, err := apiEvalSinglePlan(ctx, c.DB, c.Q, apiSinglePlan(c.Q, nil))
		if err != nil {
			return nil, fmt.Errorf("fig5 cell %s: %w", c.Name, err)
		}
		out[i] = res
	}
	return out, nil
}

// detPass runs the deterministic (standard SQL) evaluation of the
// same cells: the denominator of the paper's headline ratio.
func (f *fig5) detPass(ctx context.Context) ([]*engine.Result, error) {
	out := make([]*engine.Result, len(f.cells))
	for i, c := range f.cells {
		res, err := apiEvalDeterministic(ctx, c.DB, c.Q)
		if err != nil {
			return nil, fmt.Errorf("fig5 cell %s (deterministic): %w", c.Name, err)
		}
		out[i] = res
	}
	return out, nil
}

// alternate alternates one Opt1-2-3 pass with one deterministic pass
// on one goroutine while more(pairs done) holds, timing each.
func (f *fig5) alternate(ctx context.Context, more func(pairs int) bool) (diss, det bench.Histogram, err error) {
	for n := 0; more(n); n++ {
		t0 := time.Now()
		if _, err = f.pass(ctx); err != nil {
			return
		}
		t1 := time.Now()
		if _, err = f.detPass(ctx); err != nil {
			return
		}
		diss.Add(t1.Sub(t0))
		det.Add(time.Since(t1))
	}
	return
}

// runDir names a fresh directory for one set-up's store under work.
func runDir(work string, n int) string { return filepath.Join(work, "setup"+strconv.Itoa(n)) }
