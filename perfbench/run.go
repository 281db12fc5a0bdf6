package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"lapushdb/internal/bench"
)

// runConfig is one invocation: one workload, one seed, one timed window.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64 // length of the timed window
	Scale    Scale
	Work     string    // scratch directory for store files and the spans file
	Log      io.Writer // progress and tables; never the result line
	// Probes makes a traced run also run the layer probes, whose inputs
	// do not depend on the workload: the suite runs them once.
	Probes bool
}

func (c runConfig) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, "perfbench: "+format+"\n", args...)
	}
}

func (c runConfig) window() time.Duration { return time.Duration(c.Seconds * float64(time.Second)) }

// warmup is the unrecorded phase before the window: caches fill, lazy
// indexes build, the runtime grows its heap. Three seconds at the
// suite's window length, proportionally less for short test windows.
func (c runConfig) warmup() time.Duration {
	if w := c.window() / 4; w < 3*time.Second {
		return w
	}
	return 3 * time.Second
}

// hotWarmupRequests is the least rank_hot's warm-up sends, however slow
// the machine: enough draws for the Zipf pool of 32 to be in the result
// cache but for a sliver of its tail.
const hotWarmupRequests = 512

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run's outcome. The first four fields are the line the
// driver reads; the rest feed the suite report and -compare.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Workload string         `json:"workload"`
	Traced   bool           `json:"traced"`
	Digest   string         `json:"answers_digest,omitempty"`
	Samples  map[string]int `json:"samples,omitempty"` // sample count behind each percentile
	Problems []string       `json:"problems,omitempty"`
}

// driverLine is the one JSON object the benchmark contract asks for.
func (r *runResult) driverLine() []byte {
	return mustJSON(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

func (r *runResult) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// problem records a failed assertion: the run still reports its metrics,
// with correct=false.
func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *runResult) count(attempted, failed int64, err error) {
	r.Attempted += attempted
	r.Failed += failed
	if err != nil {
		r.problem("%v", err)
	}
}

func (r *runResult) finish() {
	r.Correct = r.Failed == 0 && len(r.Problems) == 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func timeMS(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return ms(time.Since(t0)), err
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setups is how often a run sets the system up: one set-up is tens of
// milliseconds of allocation and one checkpoint fsync, too little for a
// single sample to repeat.
const setups = 9

// setupMedian sets up with build several times, dropping all but the
// last, and returns the last with the median set-up time.
func setupMedian[T any](build func(n int) (T, error), drop func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for n := 0; n < setups; n++ {
		if n > 0 {
			drop(last)
		}
		t0 := time.Now()
		var err error
		if last, err = build(n); err != nil {
			return last, 0, fmt.Errorf("set-up %d: %w", n, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return last, median(secs), nil
}

// Thresholds the run asserts about its own shape (ISSUE 11): a workload
// that stops exercising what it was built to exercise is a failed run,
// not a fast one.
const (
	coldMaxResultHits = 0.05
	hotMinResultHits  = 0.95
)

func newResult(cfg runConfig, traced bool) *runResult {
	return &runResult{Workload: cfg.Workload, Traced: traced, Metrics: map[string]metric{}, Samples: map[string]int{}}
}

// runEndToEnd is the --trace 0 run: set-up, warm-up, the timed window
// with harness spans off, the check phase and, on a server workload, the
// durability check.
func runEndToEnd(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := newResult(cfg, false)
	var err error
	if cfg.Workload == wlPaperFig5 {
		err = fig5EndToEnd(ctx, cfg, res)
	} else {
		err = serverEndToEnd(ctx, cfg, res)
	}
	if err != nil {
		return nil, err
	}
	res.set("ok_ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted))
	res.finish()
	return res, nil
}

func serverEndToEnd(ctx context.Context, cfg runConfig, res *runResult) error {
	e, setupS, err := setupMedian(func(n int) (*env, error) { return setup(cfg.Scale, runDir(cfg.Work, n)) }, (*env).Close)
	if err != nil {
		return err
	}
	defer e.Close()
	res.set("setup_s", setupS)
	cfg.logf("%s: set up in %.3fs (median of %d), %d clients", cfg.Workload, setupS, setups, clientCount())
	if err := e.attachCopies(); err != nil {
		return err
	}
	if err := runServerWindow(ctx, cfg, e, res); err != nil {
		return err
	}
	if _, err := e.checkDurability(); err != nil {
		res.problem("%v", err)
	}
	return nil
}

func warmupFloor(workload string) int64 {
	if workload == wlRankHot {
		return hotWarmupRequests
	}
	return 0
}

// runServerWindow is warm-up, window and check phase of a server
// workload.
func runServerWindow(ctx context.Context, cfg runConfig, e *env, res *runResult) error {
	s, err := newStream(cfg.Workload, cfg.Scale, cfg.Seed)
	if err != nil {
		return err
	}
	w, before, after, err := e.warmAndMeasure(cfg, s, clientCount(), res)
	if err != nil {
		return err
	}
	reportWindow(cfg, res, w, &w.reads, w.ok())

	hits := hitRatio(before, after, "result_cache")
	cfg.logf("%s: result cache hit ratio %.3f, plan cache %.3f over the window", cfg.Workload, hits, hitRatio(before, after, "plan_cache"))
	switch {
	case cfg.Workload == wlRankCold && hits > coldMaxResultHits:
		res.problem("rank_cold result-cache hit ratio %.3f exceeds %.2f: the caches are answering a workload built to miss them", hits, coldMaxResultHits)
	case cfg.Workload == wlRankHot && hits < hotMinResultHits:
		res.problem("rank_hot result-cache hit ratio %.3f is below %.2f: the engine is answering a workload built to hit the cache", hits, hotMinResultHits)
	}

	reqs := firstReads(s, cfg.Scale.CheckRequests)
	sum, failed, err := e.checkReads(ctx, cfg.Workload, reqs)
	res.count(int64(len(reqs)), int64(failed), err)
	res.Digest = sum
	return nil
}

// fig5EndToEnd is paper_fig5: set-up (generating the cells), warm-up,
// window and check. One goroutine alternates Opt1-2-3 passes with
// deterministic passes over the Fig. 5 cells.
func fig5EndToEnd(ctx context.Context, cfg runConfig, res *runResult) error {
	f, setupS, err := setupMedian(func(int) (*fig5, error) { return buildFig5(cfg.Scale), nil }, func(*fig5) {})
	if err != nil {
		return err
	}
	res.set("setup_s", setupS)
	cfg.logf("%s: set up in %.3fs (median of %d)", cfg.Workload, setupS, setups)
	if _, _, err := f.alternate(ctx, until(cfg.warmup())); err != nil {
		return err
	}
	mem0 := readMem()
	begin := time.Now()
	diss, det, err := f.alternate(ctx, until(cfg.window()))
	if err != nil {
		return err
	}
	w := &window{elapsed: time.Since(begin), attempted: int64(diss.Len() + det.Len())}
	w.allocBytes = readMem().bytes - mem0.bytes
	res.count(w.attempted, 0, nil)
	reportWindow(cfg, res, w, &diss, int64(diss.Len()))

	sum, failed, err := f.check(ctx)
	res.count(int64(len(f.cells)), int64(failed), err)
	res.Digest = sum
	return nil
}

// until makes a loop condition that holds for d from now, and for the
// first iteration however short d is.
func until(d time.Duration) func(int) bool {
	deadline := time.Now().Add(d)
	return func(n int) bool { return n == 0 || time.Now().Before(deadline) }
}

// reportWindow sets the window's latency, throughput and allocation
// metrics. lat holds the primary operation's latencies (reads; Opt1-2-3
// passes) and ops the successful operations throughput and allocation
// are divided by.
func reportWindow(cfg runConfig, res *runResult, w *window, lat *bench.Histogram, ops int64) {
	if w.attempted < int64(cfg.Scale.MinOps) {
		res.problem("%s completed %d timed operations, fewer than the %d a p95 needs", cfg.Workload, w.attempted, cfg.Scale.MinOps)
	}
	if lat.Len() == 0 || ops == 0 {
		res.problem("%s measured no successful operation", cfg.Workload)
		ops = 1
	}
	res.set("p50_ms", ms(lat.Quantile(0.50)))
	res.set("p95_ms", ms(lat.Quantile(0.95)))
	res.Samples["p50_ms"], res.Samples["p95_ms"] = lat.Len(), lat.Len()
	res.set("ops_per_s", float64(ops)/w.elapsed.Seconds())
	res.set("alloc_kb_per_op", float64(w.allocBytes)/1024/float64(ops))
	cfg.logf("%s: %d timed operations in %.2fs, p50 %.3f ms, p95 %.3f ms (n=%d)",
		cfg.Workload, w.attempted, w.elapsed.Seconds(), ms(lat.Quantile(0.50)), ms(lat.Quantile(0.95)), lat.Len())
}

// validMetrics reports metric values a JSON encoder would refuse.
func validMetrics(r *runResult) error {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}

// workDir makes a fresh scratch directory under the current directory's
// .bench_build, the one place a checkout's build outputs and run files
// may go.
func workDir(workload string, seed int64) (string, error) {
	base := ".bench_build"
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, fmt.Sprintf("run-%s-%d-", workload, seed))
}
