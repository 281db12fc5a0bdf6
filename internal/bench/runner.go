package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// RunConfig tunes one workload run.
type RunConfig struct {
	// BaseURL is the target server ("http://127.0.0.1:8080").
	BaseURL string
	// ReplicaURL, when set, receives requests tagged TargetReplica
	// (setup always goes to BaseURL — replicas refuse ingest). Empty
	// means no replica: tagged requests fall back to BaseURL.
	ReplicaURL string
	// Concurrency is the number of workers pulling from the request
	// stream (default 8).
	Concurrency int
	// Warmup runs the stream without recording (default 1s); Duration
	// is the timed window (default 5s).
	Warmup   time.Duration
	Duration time.Duration
	// Client overrides the HTTP client (tests inject httptest clients).
	Client *http.Client
	// Logf, when non-nil, receives progress lines (setup warnings,
	// per-phase notes).
	Logf func(format string, args ...any)
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Warmup <= 0 {
		c.Warmup = time.Second
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 2 * time.Minute}
	}
	return c
}

func (c RunConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// statusError reports a non-2xx setup response.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("status %d: %s", e.code, e.body)
}

// target picks the base URL a request routes to.
func (c RunConfig) target(r Request) string {
	if r.Target == TargetReplica && c.ReplicaURL != "" {
		return c.ReplicaURL
	}
	return c.BaseURL
}

// call issues one JSON request and returns the HTTP status (0 on
// transport failure). A 200 reply is decoded into out when out is
// non-nil; the rest of the body is drained so connections are reused.
func call(ctx context.Context, client *http.Client, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// do issues one workload request.
func do(ctx context.Context, client *http.Client, base string, r Request) (int, error) {
	return call(ctx, client, r.Method, base+r.Path, r.Body, nil)
}

// Setup issues the seed-data requests sequentially, failing fast on
// any error except a tolerated conflict (re-running against a store
// that already holds the bench relations).
func Setup(ctx context.Context, cfg RunConfig, reqs []Request) error {
	cfg = cfg.withDefaults()
	for i, r := range reqs {
		code, err := doSetup(ctx, cfg.Client, cfg.BaseURL, r)
		if err != nil {
			return fmt.Errorf("bench: setup request %d/%d: %w", i+1, len(reqs), err)
		}
		if code >= 300 {
			if r.TolerateConflict && code == http.StatusBadRequest {
				cfg.logf("setup request %d/%d returned %d (bench relations already exist; reusing them — durable re-runs accumulate no extra data, but numbers are only comparable against the same store state)", i+1, len(reqs), code)
				continue
			}
			return fmt.Errorf("bench: setup request %d/%d to %s failed with status %d", i+1, len(reqs), r.Path, code)
		}
	}
	return nil
}

// doSetup is do, but keeps a snippet of the error body for diagnosis.
func doSetup(ctx context.Context, client *http.Client, base string, r Request) (int, error) {
	req, err := http.NewRequestWithContext(ctx, r.Method, base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 && resp.StatusCode != http.StatusBadRequest {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, &statusError{code: resp.StatusCode, body: string(body)}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// WaitConverged polls the primary's and the replica's /healthz until
// the replica reports the same (version, fingerprint) — the pinned
// snapshot the primary served when polling began, not a moving target,
// so a concurrent writer cannot starve the wait. Called between Setup
// and the timed window of a replica workload: the first replica reads
// must not race the seed-data shipping (an unknown BenchR1 would be a
// query error, not staleness).
func WaitConverged(ctx context.Context, cfg RunConfig) error {
	cfg = cfg.withDefaults()
	if cfg.ReplicaURL == "" {
		return nil
	}
	type health struct {
		Version     uint64 `json:"version"`
		Fingerprint string `json:"fingerprint"`
	}
	get := func(base string) (health, error) {
		var h health
		code, err := call(ctx, cfg.Client, http.MethodGet, base+"/healthz", nil, &h)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("healthz status %d", code)
		}
		return h, err
	}
	want, err := get(cfg.BaseURL)
	if err != nil {
		return fmt.Errorf("bench: primary healthz: %w", err)
	}
	// An unreachable replica fails fast instead of burning the whole
	// wait budget: if it never answers a single healthz within the
	// grace window, the address is wrong or the process is down, and no
	// amount of waiting converges it.
	const unreachableGrace = 3 * time.Second
	begin := time.Now()
	everAnswered := false
	for {
		got, err := get(cfg.ReplicaURL)
		if err == nil {
			everAnswered = true
			if got.Version >= want.Version && (got.Version > want.Version || got.Fingerprint == want.Fingerprint) {
				return nil
			}
		} else if !everAnswered && time.Since(begin) > unreachableGrace {
			return fmt.Errorf("bench: replica at %s is unreachable (no /healthz answer in %s): %w", cfg.ReplicaURL, unreachableGrace, err)
		}
		select {
		case <-ctx.Done():
			if err == nil {
				err = fmt.Errorf("replica at (%d, %s), want (%d, %s)", got.Version, got.Fingerprint, want.Version, want.Fingerprint)
			}
			return fmt.Errorf("bench: replica never converged: %w (last: %v)", ctx.Err(), err)
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// workerStats is a request tally. Run keeps one per worker, private and
// merged after the run so the hot loop takes no locks; RunFailover
// shares one under its mutex.
type workerStats struct {
	hist   Histogram
	status map[string]int64
	ops    int64
	errors int64
}

// record tallies one completed request and reports whether it
// succeeded (2xx, no transport error).
func (ws *workerStats) record(elapsed time.Duration, code int, err error) bool {
	ws.ops++
	ws.hist.Add(elapsed)
	if err != nil || code == 0 {
		ws.errors++
		ws.status["error"]++
		return false
	}
	ws.status[strconv.Itoa(code)]++
	if code < 200 || code >= 300 {
		ws.errors++
		return false
	}
	return true
}

// result turns merged tallies into the named workload's result.
func (ws *workerStats) result(name string, concurrency int, elapsed time.Duration) WorkloadResult {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	res := WorkloadResult{
		Name:        name,
		Concurrency: concurrency,
		DurationMS:  ms(elapsed),
		Ops:         ws.ops,
		Errors:      ws.errors,
		Status:      ws.status,
		P50MS:       ms(ws.hist.Quantile(0.50)),
		P95MS:       ms(ws.hist.Quantile(0.95)),
		P99MS:       ms(ws.hist.Quantile(0.99)),
		MaxMS:       ms(ws.hist.Max()),
	}
	if elapsed > 0 {
		res.OpsPerSec = float64(ws.ops) / elapsed.Seconds()
	}
	return res
}

// Run drives one workload: warmup (unrecorded) then a timed window at
// cfg.Concurrency, all workers pulling indices from one atomic counter
// so the request stream stays deterministic regardless of scheduling.
// Context cancellation stops the run early; whatever was recorded so
// far is returned.
func Run(ctx context.Context, cfg RunConfig, wl Workload) (WorkloadResult, error) {
	cfg = cfg.withDefaults()
	var next atomic.Int64

	phase := func(d time.Duration, record bool) ([]*workerStats, time.Duration) {
		phaseCtx, cancel := context.WithTimeout(ctx, d)
		defer cancel()
		stats := make([]*workerStats, cfg.Concurrency)
		var wg sync.WaitGroup
		begin := time.Now()
		for w := 0; w < cfg.Concurrency; w++ {
			ws := &workerStats{status: make(map[string]int64)}
			stats[w] = ws
			wg.Add(1)
			go func() {
				defer wg.Done()
				for phaseCtx.Err() == nil {
					i := next.Add(1) - 1
					req := wl.Next(i)
					t0 := time.Now()
					code, err := do(phaseCtx, cfg.Client, cfg.target(req), req)
					elapsed := time.Since(t0)
					if phaseCtx.Err() != nil && code == 0 {
						// The phase deadline cut this request off
						// mid-flight; it belongs to no window.
						return
					}
					if record {
						ws.record(elapsed, code, err)
					}
				}
			}()
		}
		wg.Wait()
		return stats, time.Since(begin)
	}

	cfg.logf("workload %s: warmup %s at concurrency %d", wl.Name, cfg.Warmup, cfg.Concurrency)
	phase(cfg.Warmup, false)
	if err := ctx.Err(); err != nil {
		return WorkloadResult{}, err
	}
	cfg.logf("workload %s: timed run %s", wl.Name, cfg.Duration)
	stats, elapsed := phase(cfg.Duration, true)

	total := workerStats{status: make(map[string]int64)}
	for _, ws := range stats {
		total.ops += ws.ops
		total.errors += ws.errors
		total.hist.Merge(&ws.hist)
		for k, v := range ws.status {
			total.status[k] += v
		}
	}
	return total.result(wl.Name, cfg.Concurrency, elapsed), nil
}

// Thresholds are the loose gates a smoke run enforces: high enough
// that scheduler noise cannot trip them, low enough that an
// error-rate or gross latency blowup fails CI.
type Thresholds struct {
	// MaxErrorRate fails the run when Errors/Ops exceeds it (0 disables).
	MaxErrorRate float64
	// MaxP99 fails the run when the p99 latency exceeds it (0 disables).
	MaxP99 time.Duration
	// MinOps fails the run when fewer requests completed (0 disables) —
	// a server that hangs would otherwise pass with zero traffic.
	MinOps int64
}

// Check validates one workload result against the thresholds.
func (t Thresholds) Check(w WorkloadResult) error {
	if t.MinOps > 0 && w.Ops < t.MinOps {
		return fmt.Errorf("bench: workload %s completed %d ops, below the %d minimum", w.Name, w.Ops, t.MinOps)
	}
	if t.MaxErrorRate > 0 && w.ErrorRate() > t.MaxErrorRate {
		return fmt.Errorf("bench: workload %s error rate %.4f (%d/%d) exceeds %.4f (status: %v)",
			w.Name, w.ErrorRate(), w.Errors, w.Ops, t.MaxErrorRate, w.Status)
	}
	if t.MaxP99 > 0 && w.P99MS > float64(t.MaxP99.Microseconds())/1000 {
		return fmt.Errorf("bench: workload %s p99 %.1fms exceeds %s", w.Name, w.P99MS, t.MaxP99)
	}
	return nil
}
