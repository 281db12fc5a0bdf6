package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"lapushdb"
	"lapushdb/internal/bench"
	"lapushdb/internal/replica"
	"lapushdb/internal/store"
)

// readAllFrames drains one /v1/wal response body.
func readAllFrames(t *testing.T, r io.Reader) []replica.Frame {
	t.Helper()
	var frames []replica.Frame
	for {
		f, err := replica.ReadFrame(r)
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		frames = append(frames, f)
	}
}

func TestWALEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		if _, err := s.store.Apply([]store.Mutation{
			{Op: store.OpSetProb, Rel: "Likes", Tuple: []string{"ann", "heat"}, P: pFloat(0.1 + float64(i)/10)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	head := s.store.Current()

	// Happy path, no long poll: three records, the head, a clean end.
	resp, err := http.Get(ts.URL + "/v1/wal?from=0&wait_ms=0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	frames := readAllFrames(t, bytes.NewReader(body))
	if len(frames) != 5 {
		t.Fatalf("got %d frames, want 3 records + head + end: %+v", len(frames), frames)
	}
	for i := 0; i < 3; i++ {
		if frames[i].Type != replica.FrameRecord || frames[i].Seq != uint64(i+1) {
			t.Fatalf("frame %d = %+v", i, frames[i])
		}
	}
	if frames[3].Type != replica.FrameHead || frames[3].Seq != head.Seq || frames[3].Fingerprint != head.Fingerprint {
		t.Fatalf("head frame = %+v, head = (%d, %s)", frames[3], head.Seq, head.Fingerprint)
	}
	if frames[4].Type != replica.FrameEnd {
		t.Fatalf("last frame = %+v, want end", frames[4])
	}

	// Long poll: a record published during the window is streamed
	// before the end frame.
	errCh := make(chan error, 1)
	framesCh := make(chan []replica.Frame, 1)
	go func() {
		resp, err := http.Get(ts.URL + fmt.Sprintf("/v1/wal?from=%d&fp=%s&wait_ms=3000", head.Seq, head.Fingerprint))
		if err != nil {
			errCh <- err
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		framesCh <- readAllFrames(t, bytes.NewReader(b))
		errCh <- nil
	}()
	time.Sleep(100 * time.Millisecond)
	if _, err := s.store.Apply([]store.Mutation{
		{Op: store.OpSetProb, Rel: "Likes", Tuple: []string{"bob", "heat"}, P: pFloat(0.6)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	got := <-framesCh
	var sawRecord bool
	for _, f := range got {
		if f.Type == replica.FrameRecord && f.Seq == head.Seq+1 {
			sawRecord = true
		}
	}
	if !sawRecord {
		t.Fatalf("long poll never shipped the new record: %+v", got)
	}

	// Refusals arrive as statuses before any frame.
	for _, tc := range []struct {
		query string
		code  int
		api   string
	}{
		{fmt.Sprintf("from=%d", head.Seq+10), http.StatusConflict, "diverged"},
		{"from=2&fp=bogus@2", http.StatusConflict, "diverged"},
		{"from=abc", http.StatusBadRequest, "bad_param"},
		{"from=0&wait_ms=-1", http.StatusBadRequest, "bad_param"},
	} {
		resp, body := getBody(t, ts.URL+"/v1/wal?"+tc.query)
		if resp.StatusCode != tc.code {
			t.Fatalf("%s: status %d, want %d (%s)", tc.query, resp.StatusCode, tc.code, body)
		}
		if er := decodeErr(t, body); er.Code != tc.api {
			t.Fatalf("%s: code %q, want %q", tc.query, er.Code, tc.api)
		}
	}
}

func TestWALEndpointTruncated(t *testing.T) {
	st, err := store.Open(movieDB(t), store.Options{LogRetention: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := httptest.NewServer(NewWithStore(st, Config{}))
	defer ts.Close()
	for i := 0; i < 5; i++ {
		if _, err := st.Apply([]store.Mutation{
			{Op: store.OpSetProb, Rel: "Likes", Tuple: []string{"ann", "heat"}, P: pFloat(0.2 + float64(i)/10)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	resp, body := getBody(t, ts.URL+"/v1/wal?from=0")
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("status %d, want 410 (%s)", resp.StatusCode, body)
	}
	if er := decodeErr(t, body); er.Code != "log_truncated" {
		t.Fatalf("code %q, want log_truncated", er.Code)
	}
}

func TestCheckpointEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if _, err := s.store.Apply([]store.Mutation{
		{Op: store.OpSetProb, Rel: "Likes", Tuple: []string{"ann", "heat"}, P: pFloat(0.42)},
	}); err != nil {
		t.Fatal(err)
	}
	want := s.store.Current()

	resp, err := http.Get(ts.URL + "/v1/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	seq, err := strconv.ParseUint(resp.Header.Get("X-Lapushd-Seq"), 10, 64)
	if err != nil || seq != want.Seq {
		t.Fatalf("X-Lapushd-Seq = %q (%v), want %d", resp.Header.Get("X-Lapushd-Seq"), err, want.Seq)
	}
	if fp := resp.Header.Get("X-Lapushd-Fingerprint"); fp != want.Fingerprint {
		t.Fatalf("X-Lapushd-Fingerprint = %q, want %q", fp, want.Fingerprint)
	}
	db, err := lapushdb.Load(resp.Body)
	if err != nil {
		t.Fatalf("Load shipped snapshot: %v", err)
	}
	if got := store.Fingerprint(db, seq); got != want.Fingerprint {
		t.Fatalf("shipped snapshot loads as %q, want %q", got, want.Fingerprint)
	}
}

func TestReplicaRefusesIngest(t *testing.T) {
	st, err := store.Open(movieDB(t), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := httptest.NewServer(NewWithStore(st, Config{ReplicaOf: "http://primary.example:8080"}))
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/ingest", map[string]any{
		"mutations": []map[string]any{{"op": "set_prob", "rel": "Likes", "tuple": []string{"ann", "heat"}, "p": 0.5}},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, body)
	}
	er := decodeErr(t, body)
	if er.Code != "read_only_replica" {
		t.Fatalf("code %q, want read_only_replica", er.Code)
	}
	if !bytes.Contains([]byte(er.Message), []byte("http://primary.example:8080")) {
		t.Fatalf("message %q does not name the primary", er.Message)
	}
	if got := resp.Header.Get("X-Lapushd-Primary"); got != "http://primary.example:8080" {
		t.Fatalf("X-Lapushd-Primary = %q", got)
	}
	// Reads still serve.
	if resp, _ := postJSON(t, ts.URL+"/v1/query", map[string]any{"query": testQuery}); resp.StatusCode != http.StatusOK {
		t.Fatalf("replica refused a read: %d", resp.StatusCode)
	}
}

// waitPairConverged polls both /healthz endpoints until the replica
// publishes the primary's exact (version, fingerprint).
func waitPairConverged(t *testing.T, pair *HermeticPair) {
	t.Helper()
	type health struct {
		Version     uint64 `json:"version"`
		Fingerprint string `json:"fingerprint"`
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var ph, rh health
		_, pb := getBody(t, pair.Primary.URL+"/healthz")
		if err := json.Unmarshal(pb, &ph); err != nil {
			t.Fatal(err)
		}
		_, rb := getBody(t, pair.Replica.URL+"/healthz")
		if err := json.Unmarshal(rb, &rh); err != nil {
			t.Fatal(err)
		}
		if ph.Version == rh.Version && ph.Fingerprint == rh.Fingerprint {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at (%d, %s), primary at (%d, %s)", rh.Version, rh.Fingerprint, ph.Version, ph.Fingerprint)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReplicaHealthzAndMetrics(t *testing.T) {
	pair, err := NewHermeticPair(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	resp, _ := postJSON(t, pair.Primary.URL+"/v1/ingest", map[string]any{
		"mutations": []map[string]any{
			{"op": "create_relation", "rel": "Likes", "cols": []string{"user", "movie"}},
			{"op": "insert", "rel": "Likes", "tuple": []string{"ann", "heat"}, "p": 0.9},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("primary ingest: %d", resp.StatusCode)
	}
	waitPairConverged(t, pair)

	_, pb := getBody(t, pair.Primary.URL+"/healthz")
	var ph map[string]any
	if err := json.Unmarshal(pb, &ph); err != nil {
		t.Fatal(err)
	}
	if ph["role"] != "primary" {
		t.Fatalf("primary healthz role = %v", ph["role"])
	}
	_, rb := getBody(t, pair.Replica.URL+"/healthz")
	var rh map[string]any
	if err := json.Unmarshal(rb, &rh); err != nil {
		t.Fatal(err)
	}
	if rh["role"] != "replica" || rh["primary"] != pair.Primary.URL {
		t.Fatalf("replica healthz = %v", rh)
	}
	if rh["applied_seq"] != float64(1) {
		t.Fatalf("replica healthz applied_seq = %v, want 1", rh["applied_seq"])
	}
	if _, ok := rh["lag_seconds"]; !ok {
		t.Fatalf("replica healthz has no lag_seconds: %v", rh)
	}

	_, mb := getBody(t, pair.Replica.URL+"/metrics")
	for _, metric := range []string{
		"lapushd_replica_lag_seconds",
		"lapushd_replica_applied_seq 1",
		"lapushd_replica_reconnects_total",
		"lapushd_replica_connected 1",
	} {
		if !bytes.Contains(mb, []byte(metric)) {
			t.Fatalf("replica /metrics is missing %q", metric)
		}
	}
	if _, pm := getBody(t, pair.Primary.URL+"/metrics"); bytes.Contains(pm, []byte("lapushd_replica_")) {
		t.Fatal("primary /metrics exposes replica gauges")
	}
}

// benchSetup seeds the bench dataset (chain, star, TPC-H shapes)
// through the primary's HTTP ingest, as the bench harness would.
func benchSetup(t *testing.T, baseURL string) bench.Config {
	t.Helper()
	c := bench.Config{Seed: 7}.WithDefaults()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := bench.Setup(ctx, bench.RunConfig{BaseURL: baseURL}, bench.SetupRequests(c)); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestReplicaDifferential is the parity acceptance test: after an
// ingest burst and lag 0, the replica's /v1/query responses must be
// byte-identical to the primary's — same answers, same scores, same
// order — for the chain, star, and TPC-H shapes.
func TestReplicaDifferential(t *testing.T) {
	pair, err := NewHermeticPair(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	benchSetup(t, pair.Primary.URL)
	waitPairConverged(t, pair)

	queries := []string{
		"q(x0, x3) :- BenchR1(x0, x1), BenchR2(x1, x2), BenchR3(x2, x3)",
		"q(x0, x2) :- BenchR1(x0, x1), BenchR2(x1, x2)",
		"q() :- BenchS1('hub', x1), BenchS2(x2), BenchS0(x1, x2)",
		"q(a) :- BenchSupplier(s, a), BenchPartsupp(s, u), BenchPart(u, n), s <= 50, n like '%red%'",
	}
	for _, q := range queries {
		req := map[string]any{"query": q, "method": "diss"}
		presp, pbody := postJSON(t, pair.Primary.URL+"/v1/query", req)
		rresp, rbody := postJSON(t, pair.Replica.URL+"/v1/query", req)
		if presp.StatusCode != http.StatusOK || rresp.StatusCode != http.StatusOK {
			t.Fatalf("%q: primary %d, replica %d\n%s\n%s", q, presp.StatusCode, rresp.StatusCode, pbody, rbody)
		}
		var pr, rr map[string]json.RawMessage
		if err := json.Unmarshal(pbody, &pr); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(rbody, &rr); err != nil {
			t.Fatal(err)
		}
		// Everything but the runtime-dependent fields must match
		// byte for byte; answers carry the scores, so this pins
		// bit-identical evaluation.
		for _, field := range []string{"answers", "count", "method", "safe"} {
			if !bytes.Equal(pr[field], rr[field]) {
				t.Fatalf("%q: field %s differs\nprimary: %s\nreplica: %s", q, field, pr[field], rr[field])
			}
		}
	}
}

// TestReplicaCacheInvalidation is the regression test for satellite 6:
// a replica must never serve a result-cache hit from a pre-ingest
// version after catching up — its caches key off the applied
// fingerprint exactly as the primary's key off the published one.
func TestReplicaCacheInvalidation(t *testing.T) {
	pair, err := NewHermeticPair(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	resp, _ := postJSON(t, pair.Primary.URL+"/v1/ingest", map[string]any{
		"mutations": []map[string]any{
			{"op": "create_relation", "rel": "Likes", "cols": []string{"user", "movie"}},
			{"op": "insert", "rel": "Likes", "tuple": []string{"ann", "heat"}, "p": 0.5},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}
	waitPairConverged(t, pair)

	query := map[string]any{"query": "q(user) :- Likes(user, movie)", "method": "diss"}
	type qresp struct {
		Answers     json.RawMessage `json:"answers"`
		Count       int             `json:"count"`
		Cache       string          `json:"cache"`
		ResultCache string          `json:"result_cache"`
	}
	ask := func() qresp {
		t.Helper()
		resp, body := postJSON(t, pair.Replica.URL+"/v1/query", query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replica query: %d (%s)", resp.StatusCode, body)
		}
		var out qresp
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	first := ask()
	if first.ResultCache != "miss" || first.Count != 1 {
		t.Fatalf("first read = %+v", first)
	}
	if again := ask(); again.ResultCache != "hit" || again.Cache != "hit" {
		t.Fatalf("repeat read at an unchanged version should hit both caches: %+v", again)
	}

	// The primary moves: a new answer lands. After the replica catches
	// up, the old cache entries are unreachable (stale fingerprint).
	resp, _ = postJSON(t, pair.Primary.URL+"/v1/ingest", map[string]any{
		"mutations": []map[string]any{
			{"op": "insert", "rel": "Likes", "tuple": []string{"bob", "ronin"}, "p": 0.7},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second ingest: %d", resp.StatusCode)
	}
	waitPairConverged(t, pair)

	after := ask()
	if after.ResultCache != "miss" {
		t.Fatalf("replica served a stale cache hit after catching up: %+v", after)
	}
	if after.Count != 2 {
		t.Fatalf("replica answers do not reflect the ingest: %+v", after)
	}
	if bytes.Equal(first.Answers, after.Answers) {
		t.Fatal("post-ingest answers are byte-identical to pre-ingest answers")
	}
}

func pFloat(p float64) *float64 { return &p }
