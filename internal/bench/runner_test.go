package bench

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lapushdb"
	"lapushdb/internal/server"
)

// hermeticRunConfig points the runner at an in-process lapushd with
// test-sized phases.
func hermeticRunConfig(t *testing.T) (RunConfig, Config) {
	t.Helper()
	ts := httptest.NewServer(server.New(lapushdb.Open(), server.Config{}))
	t.Cleanup(ts.Close)
	rc := RunConfig{
		BaseURL:     ts.URL,
		Concurrency: 4,
		Warmup:      50 * time.Millisecond,
		Duration:    300 * time.Millisecond,
		Client:      ts.Client(),
		Logf:        t.Logf,
	}
	// Small dataset: the point of the test is the harness plumbing, not
	// the server's throughput.
	cfg := Config{Seed: 9, ChainN: 60, ChainDomain: 25, StarN: 30, StarDomain: 12, Suppliers: 20, Parts: 40}
	return rc, cfg
}

// TestRunnerHermetic is the harness's own end-to-end test: seed the
// dataset through /v1/ingest, run every workload mix briefly, and
// check the results carry ops, status counts, and ordered quantiles.
// This is the same path `make bench-smoke` takes in CI.
func TestRunnerHermetic(t *testing.T) {
	rc, cfg := hermeticRunConfig(t)
	ctx := context.Background()
	if err := Setup(ctx, rc, SetupRequests(cfg)); err != nil {
		t.Fatal(err)
	}
	for _, name := range WorkloadNames() {
		t.Run(name, func(t *testing.T) {
			wl, err := ByName(cfg, name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(ctx, rc, wl)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 {
				t.Fatal("no operations completed")
			}
			if res.Errors != 0 {
				t.Fatalf("errors %d of %d ops, status %v", res.Errors, res.Ops, res.Status)
			}
			if res.Status["200"] != res.Ops {
				t.Fatalf("status map %v does not account for %d ops", res.Status, res.Ops)
			}
			if res.P50MS <= 0 || res.P50MS > res.P95MS || res.P95MS > res.P99MS || res.P99MS > res.MaxMS {
				t.Fatalf("quantiles out of order: p50=%g p95=%g p99=%g max=%g", res.P50MS, res.P95MS, res.P99MS, res.MaxMS)
			}
			if res.OpsPerSec <= 0 || res.DurationMS <= 0 {
				t.Fatalf("missing rate/duration: %+v", res)
			}
			if err := (Thresholds{MaxErrorRate: 0.01, MinOps: 1}).Check(res); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunnerReplicaRouting pins the request routing of a replicated
// run: TargetReplica requests hit ReplicaURL, everything else —
// including all of setup — hits BaseURL, and with no ReplicaURL the
// tagged requests fall back to the primary.
func TestRunnerReplicaRouting(t *testing.T) {
	count := func(m map[string]*atomic.Int64) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			m[r.URL.Path].Add(1)
			w.Write([]byte(`{}`))
		})
	}
	pHits := map[string]*atomic.Int64{"/v1/ingest": {}, "/v1/query": {}}
	rHits := map[string]*atomic.Int64{"/v1/ingest": {}, "/v1/query": {}}
	primary := httptest.NewServer(count(pHits))
	defer primary.Close()
	replica := httptest.NewServer(count(rHits))
	defer replica.Close()

	wl := Workload{Name: "split", Next: func(i int64) Request {
		if i%2 == 0 {
			return Request{Method: "POST", Path: "/v1/ingest", Body: []byte(`{}`)}
		}
		return Request{Method: "POST", Path: "/v1/query", Body: []byte(`{}`), Target: TargetReplica}
	}}
	rc := RunConfig{
		BaseURL:     primary.URL,
		ReplicaURL:  replica.URL,
		Concurrency: 2,
		Warmup:      10 * time.Millisecond,
		Duration:    150 * time.Millisecond,
		Client:      primary.Client(),
	}
	if err := Setup(context.Background(), rc, []Request{{Method: "POST", Path: "/v1/ingest", Target: TargetReplica}}); err != nil {
		t.Fatal(err)
	}
	if got := rHits["/v1/ingest"].Load(); got != 0 {
		t.Fatalf("setup leaked %d requests to the replica", got)
	}
	res, err := Run(context.Background(), rc, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Ops == 0 {
		t.Fatalf("stub run failed: %+v", res)
	}
	if rHits["/v1/query"].Load() == 0 || rHits["/v1/ingest"].Load() != 0 {
		t.Fatalf("replica saw query=%d ingest=%d, want queries only",
			rHits["/v1/query"].Load(), rHits["/v1/ingest"].Load())
	}
	if pHits["/v1/ingest"].Load() == 0 || pHits["/v1/query"].Load() != 0 {
		t.Fatalf("primary saw query=%d ingest=%d, want ingest only",
			pHits["/v1/query"].Load(), pHits["/v1/ingest"].Load())
	}

	// No replica configured: the tagged requests run against the primary
	// instead of erroring out.
	before := pHits["/v1/query"].Load()
	rc.ReplicaURL = ""
	if _, err := Run(context.Background(), rc, wl); err != nil {
		t.Fatal(err)
	}
	if pHits["/v1/query"].Load() == before {
		t.Fatal("fallback run sent no tagged requests to the primary")
	}
}

// TestWaitConvergedErrors pins WaitConverged's refusal paths: no-op
// without a replica, fail fast on an unreachable primary, and report
// the replica's stuck position when the deadline expires.
func TestWaitConvergedErrors(t *testing.T) {
	if err := WaitConverged(context.Background(), RunConfig{BaseURL: "http://127.0.0.1:0"}); err != nil {
		t.Fatalf("no replica configured must be a no-op, got %v", err)
	}

	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"version":1,"fingerprint":"a@1"}`))
	}))
	defer stuck.Close()
	ahead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"version":5,"fingerprint":"b@5"}`))
	}))
	defer ahead.Close()

	dead := stuck.URL[:strings.LastIndex(stuck.URL, ":")] + ":1"
	if err := WaitConverged(context.Background(), RunConfig{BaseURL: dead, ReplicaURL: stuck.URL}); err == nil {
		t.Fatal("unreachable primary did not fail")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	err := WaitConverged(ctx, RunConfig{BaseURL: ahead.URL, ReplicaURL: stuck.URL})
	if err == nil || !strings.Contains(err.Error(), "never converged") {
		t.Fatalf("lagging replica: %v, want a never-converged deadline error", err)
	}

	// A replica that moved past the pinned primary snapshot (writes
	// landed between the two polls) counts as converged.
	if err := WaitConverged(context.Background(), RunConfig{BaseURL: stuck.URL, ReplicaURL: ahead.URL}); err != nil {
		t.Fatalf("replica ahead of the pinned snapshot: %v", err)
	}
}

// TestReplicaReadWorkloadPair runs the replica_read mix against a real
// hermetic primary+replica pair: seed the primary, wait for the
// replica to converge, then rank on the replica while the ingest churn
// rotates the primary's versions. Every request must succeed — replica
// reads may be stale, never failing.
func TestReplicaReadWorkloadPair(t *testing.T) {
	pair, err := server.NewHermeticPair(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	rc := RunConfig{
		BaseURL:     pair.Primary.URL,
		ReplicaURL:  pair.Replica.URL,
		Concurrency: 4,
		Warmup:      50 * time.Millisecond,
		Duration:    300 * time.Millisecond,
		Logf:        t.Logf,
	}
	cfg := Config{Seed: 9, ChainN: 60, ChainDomain: 25, StarN: 30, StarDomain: 12, Suppliers: 20, Parts: 40}
	ctx := context.Background()
	if err := Setup(ctx, rc, SetupRequests(cfg)); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := WaitConverged(wctx, rc); err != nil {
		t.Fatal(err)
	}
	wl, err := ByName(cfg, "replica_read")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ctx, rc, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.Errors != 0 {
		t.Fatalf("errors %d of %d ops, status %v", res.Errors, res.Ops, res.Status)
	}
}

// TestSetupTolerantRerun re-seeds the same server twice: the second
// pass must survive the create_relation conflicts (tolerated 400s) so
// loadgen can rerun against a durable store.
func TestSetupTolerantRerun(t *testing.T) {
	rc, cfg := hermeticRunConfig(t)
	ctx := context.Background()
	if err := Setup(ctx, rc, SetupRequests(cfg)); err != nil {
		t.Fatal(err)
	}
	if err := Setup(ctx, rc, SetupRequests(cfg)); err != nil {
		t.Fatalf("rerun against seeded store: %v", err)
	}
}

// TestRunnerCountsErrors drives the runner against a stub that fails
// every third request with 429 and checks the per-status accounting
// and threshold evaluation.
func TestRunnerCountsErrors(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%3 == 0 {
			http.Error(w, `{"error":{"code":"overloaded"}}`, http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"answers":[]}`))
	}))
	defer ts.Close()
	wl := Workload{Name: "stub", Next: func(i int64) Request {
		return Request{Method: "POST", Path: "/v1/query", Body: []byte(`{"query":"q"}`)}
	}}
	res, err := Run(context.Background(), RunConfig{
		BaseURL:     ts.URL,
		Concurrency: 2,
		Warmup:      20 * time.Millisecond,
		Duration:    200 * time.Millisecond,
		Client:      ts.Client(),
	}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Errors == 0 {
		t.Fatalf("expected traffic with errors, got %+v", res)
	}
	if res.Status["429"] != res.Errors {
		t.Fatalf("429 count %d != errors %d (status %v)", res.Status["429"], res.Errors, res.Status)
	}
	if res.Status["200"]+res.Status["429"] != res.Ops {
		t.Fatalf("status map %v does not sum to ops %d", res.Status, res.Ops)
	}
	// Roughly a third of requests fail; a loose gate must catch it and
	// a looser one must not.
	if err := (Thresholds{MaxErrorRate: 0.05}).Check(res); err == nil {
		t.Fatal("error rate ~0.33 passed a 0.05 gate")
	}
	if err := (Thresholds{MaxErrorRate: 0.9}).Check(res); err != nil {
		t.Fatalf("error rate gate 0.9 tripped: %v", err)
	}
	if err := (Thresholds{MaxP99: time.Nanosecond}).Check(res); err == nil {
		t.Fatal("1ns p99 gate passed")
	}
	if err := (Thresholds{MinOps: res.Ops + 1}).Check(res); err == nil {
		t.Fatal("min-ops gate passed with fewer ops")
	}
}

// TestSetupFailsFast: a non-tolerated failure must abort setup with a
// diagnostic, not limp into a meaningless load run.
func TestSetupFailsFast(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":{"code":"durability_failure","message":"disk on fire"}}`, http.StatusInternalServerError)
	}))
	defer ts.Close()
	err := Setup(context.Background(), RunConfig{BaseURL: ts.URL, Client: ts.Client()},
		[]Request{{Method: "POST", Path: "/v1/ingest", Body: []byte(`{}`)}})
	if err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("want status-500 setup error, got %v", err)
	}
}
