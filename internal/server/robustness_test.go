package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"lapushdb"
	"lapushdb/internal/store"
	"lapushdb/internal/store/errfs"
)

// TestErrorStatusMapping pins the query-path error classification:
// every failure class a handler can see maps to a stable HTTP status
// and machine-readable code, including wrapped errors.
func TestErrorStatusMapping(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		status int
		code   string
	}{
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline_exceeded"},
		{"deadline_wrapped", fmt.Errorf("rank: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, "deadline_exceeded"},
		{"cancelled", context.Canceled, http.StatusServiceUnavailable, "cancelled"},
		{"cancelled_wrapped", fmt.Errorf("rank: %w", context.Canceled), http.StatusServiceUnavailable, "cancelled"},
		{"overloaded", errOverloaded, http.StatusTooManyRequests, "overloaded"},
		{"budget", lapushdb.ErrBudget, http.StatusUnprocessableEntity, "budget_exceeded"},
		{"budget_wrapped", fmt.Errorf("%w: limit 10 rows", lapushdb.ErrBudget), http.StatusUnprocessableEntity, "budget_exceeded"},
		{"read_only", store.ErrReadOnly, http.StatusServiceUnavailable, "read_only"},
		{"durability", store.ErrDurability, http.StatusInternalServerError, "durability_failure"},
		{"durability_wrapped", fmt.Errorf("apply: %w", store.ErrDurability), http.StatusInternalServerError, "durability_failure"},
		{"parse", errors.New("parse error at token 3"), http.StatusBadRequest, "bad_query"},
		{"bad_epsilon", fmt.Errorf("%w, got 1.5", errBadEpsilon), http.StatusBadRequest, "bad_epsilon"},
		{"empty_batch", errEmptyBatch, http.StatusBadRequest, "empty_batch"},
		{"batch_too_large", fmt.Errorf("%w: 1000 queries, limit 64", errBatchTooLarge), http.StatusBadRequest, "batch_too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, code, msg := errorStatus(tc.err)
			if status != tc.status || code != tc.code {
				t.Fatalf("errorStatus(%v) = (%d, %q), want (%d, %q)", tc.err, status, code, tc.status, tc.code)
			}
			if msg == "" {
				t.Fatal("empty message")
			}
		})
	}
}

// TestReleaseSurvivesEvaluationPanic is the regression test for the
// worker-pool leak: a panic between acquire and release used to skip
// the release, permanently shrinking the pool. With Workers=1 a single
// leaked slot deadlocks every later query.
func TestReleaseSurvivesEvaluationPanic(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	var fired atomic.Bool
	s.testHookAfterAcquire = func() {
		if fired.CompareAndSwap(false, true) {
			panic("injected evaluation panic")
		}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/query", map[string]any{"query": testQuery})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking query: status %d, want 500", resp.StatusCode)
	}
	// The slot must have been released: the next query gets it without
	// waiting for the 30s default deadline.
	resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"query": testQuery, "timeout_ms": 2000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after panic: status %d (worker slot leaked?): %s", resp.StatusCode, body)
	}
}

// TestQueryBudgetExceeded drives the per-request row budget end to end:
// an impossible cap fails with 422/budget_exceeded and bumps the
// budget metric; the same query unbudgeted succeeds.
func TestQueryBudgetExceeded(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"query": testQuery, "max_rows": 1})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != "budget_exceeded" {
		t.Fatalf("code %q, want budget_exceeded", e.Code)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/query", map[string]any{"query": testQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unbudgeted query: status %d", resp.StatusCode)
	}
	_, m := getBody(t, ts.URL+"/metrics")
	if got := metricValue(t, string(m), "lapushd_budget_exceeded_total"); got != 1 {
		t.Fatalf("lapushd_budget_exceeded_total = %v, want 1", got)
	}
}

// TestQueryBudgetServerCeiling checks the server-wide -max-rows bound:
// it applies when the request asks for nothing, and a request cannot
// raise its budget above it.
func TestQueryBudgetServerCeiling(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRows: 1})
	resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"query": testQuery})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("default budget: status %d, want 422: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/query", map[string]any{"query": testQuery, "max_rows": 1 << 30})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("raised budget must be clamped to the ceiling: status %d: %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != "budget_exceeded" {
		t.Fatalf("code %q, want budget_exceeded", e.Code)
	}
}

// TestQueryBudgetEveryMethod: "max_rows" bounds every method, so a
// standard-SQL or exact request over its budget fails with 422
// budget_exceeded like a dissociation one.
func TestQueryBudgetEveryMethod(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, method := range []string{"sql", "exact"} {
		resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"query": testQuery, "method": method, "max_rows": 1})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422: %s", method, resp.StatusCode, body)
		}
		if e := decodeErr(t, body); e.Code != "budget_exceeded" {
			t.Fatalf("%s: code %q, want budget_exceeded", method, e.Code)
		}
	}
}

func TestQueryBudgetValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"query": testQuery, "max_rows": -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != "bad_max_rows" {
		t.Fatalf("code %q, want bad_max_rows", e.Code)
	}
}

// TestLoadShedding saturates a one-worker pool and checks that a
// request whose deadline cannot cover the queue-wait estimate is shed
// with 429 + Retry-After instead of queueing into a certain timeout.
func TestLoadShedding(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueWait: time.Hour})
	gate := make(chan struct{})
	occupying := make(chan struct{})
	var first atomic.Bool
	s.testHookAfterAcquire = func() {
		if first.CompareAndSwap(false, true) {
			close(occupying)
			<-gate
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, _ := postJSON(t, ts.URL+"/v1/query", map[string]any{"query": testQuery})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("occupying query: status %d", resp.StatusCode)
		}
	}()
	<-occupying
	resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"query": testQuery})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != "overloaded" {
		t.Fatalf("code %q, want overloaded", e.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response is missing Retry-After")
	}
	close(gate)
	<-done
	_, m := getBody(t, ts.URL+"/metrics")
	if got := metricValue(t, string(m), "lapushd_shed_total"); got != 1 {
		t.Fatalf("lapushd_shed_total = %v, want 1", got)
	}
}

// TestDegradedModeEndToEnd trips the store's breaker through HTTP
// ingestion against a disk whose fsyncs fail, then checks the whole
// degraded-mode surface: 503 + Retry-After on ingest, "degraded" on
// /healthz, the read-only gauge on /metrics, queries still serving the
// pinned version — and recovery once the disk heals.
func TestDegradedModeEndToEnd(t *testing.T) {
	fs := errfs.New(store.OSFS, errfs.Fault{})
	st, err := store.Open(movieDB(t), store.Options{
		Dir:              t.TempDir(),
		FS:               fs,
		Fsync:            store.FsyncAlways,
		BreakerThreshold: 2,
		RetryAttempts:    -1,
		ProbeInterval:    2 * time.Millisecond,
		Logf:             func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := newHTTPServer(t, NewWithStore(st, Config{}))

	batch := map[string]any{"mutations": []store.Mutation{
		{Op: store.OpInsert, Rel: "Fan", Tuple: []string{"stone"}, P: pf(0.5)},
	}}
	fs.SetFault(errfs.Fault{Op: errfs.OpSync, Nth: 1, Err: syscall.ENOSPC, Sticky: true})
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/ingest", batch)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("ingest %d under ENOSPC: status %d, want 500: %s", i, resp.StatusCode, body)
		}
		if e := decodeErr(t, body); e.Code != "durability_failure" {
			t.Fatalf("ingest %d: code %q, want durability_failure", i, e.Code)
		}
	}

	// Breaker tripped: ingest now fails fast with 503 + Retry-After.
	resp, body := postJSON(t, ts.URL+"/v1/ingest", batch)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded ingest: status %d, want 503: %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != "read_only" {
		t.Fatalf("degraded ingest: code %q, want read_only", e.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded ingest response is missing Retry-After")
	}

	// Health reports degraded (still 200: reads keep working).
	resp, body = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", resp.StatusCode)
	}
	if !containsField(body, `"status":"degraded"`) || !containsField(body, `"read_only":true`) {
		t.Fatalf("healthz body does not report degraded read-only state: %s", body)
	}
	_, m := getBody(t, ts.URL+"/metrics")
	if got := metricValue(t, string(m), "lapushd_store_readonly"); got != 1 {
		t.Fatalf("lapushd_store_readonly = %v, want 1", got)
	}

	// Queries still serve the pinned version.
	resp, body = postJSON(t, ts.URL+"/v1/query", map[string]any{"query": testQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query in degraded mode: status %d: %s", resp.StatusCode, body)
	}

	// The disk heals; the probe re-arms the breaker and writes flow.
	fs.Disarm()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ = postJSON(t, ts.URL+"/v1/ingest", batch)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingest still failing %d after the disk healed", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, body = getBody(t, ts.URL+"/healthz")
	if !containsField(body, `"status":"ok"`) {
		t.Fatalf("healthz after recovery: %s", body)
	}
	_ = resp
}

// TestRobustnessMetricsExposed pins the names of the new metrics on a
// fresh server so dashboards can rely on them existing from boot.
func TestRobustnessMetricsExposed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, m := getBody(t, ts.URL+"/metrics")
	for _, name := range []string{
		"lapushd_shed_total",
		"lapushd_budget_exceeded_total",
		"lapushd_store_readonly",
		"lapushd_store_wal_truncations_total",
	} {
		if got := metricValue(t, string(m), name); got != 0 {
			t.Fatalf("%s = %v on a fresh server, want 0", name, got)
		}
	}
}

func containsField(body []byte, sub string) bool {
	s := string(body)
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
