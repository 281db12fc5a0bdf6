package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// streamBytes flattens the first n requests of a workload (and the
// shared setup stream) into one byte blob for identity comparison.
func streamBytes(t *testing.T, cfg Config, name string, n int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range SetupRequests(cfg) {
		fmt.Fprintf(&buf, "%s %s %v\n", r.Method, r.Path, r.TolerateConflict)
		buf.Write(r.Body)
		buf.WriteByte('\n')
	}
	wl, err := ByName(cfg, name)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		r := wl.Next(i)
		fmt.Fprintf(&buf, "%s %s\n", r.Method, r.Path)
		buf.Write(r.Body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestWorkloadDeterminism pins the reproducibility contract: two
// generations of each workload with the same seed are byte-identical
// (setup stream included), and a different seed actually changes the
// stream. Before/after BENCH comparisons assume both runs issued the
// same requests; this is that assumption.
func TestWorkloadDeterminism(t *testing.T) {
	for _, name := range WorkloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Seed: 42}
			a := streamBytes(t, cfg, name, 500)
			b := streamBytes(t, cfg, name, 500)
			if !bytes.Equal(a, b) {
				t.Fatalf("two generations with seed 42 differ")
			}
			c := streamBytes(t, Config{Seed: 43}, name, 500)
			if bytes.Equal(a, c) {
				t.Fatalf("seed 42 and 43 produced identical streams")
			}
		})
	}
}

// TestWorkloadStreamIndexIndependence checks Next(i) is a pure
// function of i: evaluating out of order or repeatedly yields the same
// request, which is what lets concurrent workers share one atomic
// index counter without coordination.
func TestWorkloadStreamIndexIndependence(t *testing.T) {
	cfg := Config{Seed: 7}
	for _, name := range WorkloadNames() {
		wl, err := ByName(cfg, name)
		if err != nil {
			t.Fatal(err)
		}
		forward := make([][]byte, 50)
		for i := range forward {
			forward[i] = wl.Next(int64(i)).Body
		}
		for i := len(forward) - 1; i >= 0; i-- {
			if got := wl.Next(int64(i)).Body; !bytes.Equal(got, forward[i]) {
				t.Fatalf("%s: Next(%d) out of order differs from in-order generation", name, i)
			}
		}
	}
}

// TestWorkloadRequestsWellFormed checks every generated request is
// valid JSON aimed at a known endpoint with the right top-level shape,
// so a generator bug fails here rather than as mysterious 400s in a
// load run.
func TestWorkloadRequestsWellFormed(t *testing.T) {
	cfg := Config{Seed: 11}
	endpoints := map[string]bool{"/v1/query": true, "/v1/rank_batch": true, "/v1/ingest": true}
	check := func(t *testing.T, r Request) {
		t.Helper()
		if r.Method != "POST" || !endpoints[r.Path] {
			t.Fatalf("unexpected request %s %s", r.Method, r.Path)
		}
		var body map[string]json.RawMessage
		if err := json.Unmarshal(r.Body, &body); err != nil {
			t.Fatalf("body not JSON: %v\n%s", err, r.Body)
		}
		switch r.Path {
		case "/v1/query":
			if _, ok := body["query"]; !ok {
				t.Fatalf("query request without query field: %s", r.Body)
			}
		case "/v1/rank_batch":
			if _, ok := body["queries"]; !ok {
				t.Fatalf("batch request without queries field: %s", r.Body)
			}
		case "/v1/ingest":
			if _, ok := body["mutations"]; !ok {
				t.Fatalf("ingest request without mutations field: %s", r.Body)
			}
		}
	}
	for _, r := range SetupRequests(cfg) {
		check(t, r)
	}
	for _, name := range WorkloadNames() {
		wl, err := ByName(cfg, name)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 200; i++ {
			check(t, wl.Next(i))
		}
	}
	if _, err := ByName(cfg, "nope"); err == nil {
		t.Fatal("unknown workload name should fail")
	}
}

// TestIngestWorkloadNetZero checks the replica_read mix's mutation
// batches are self-contained: every batch that inserts a tuple also
// deletes it, so long runs don't drift the dataset the reads query.
func TestIngestWorkloadNetZero(t *testing.T) {
	wl, err := ByName(Config{Seed: 3}, "replica_read")
	if err != nil {
		t.Fatal(err)
	}
	sawIngest := 0
	for i := int64(0); i < 400; i++ {
		r := wl.Next(i)
		if r.Path != "/v1/ingest" {
			continue
		}
		sawIngest++
		var body struct {
			Mutations []struct {
				Op    string   `json:"op"`
				Tuple []string `json:"tuple"`
			} `json:"mutations"`
		}
		if err := json.Unmarshal(r.Body, &body); err != nil {
			t.Fatal(err)
		}
		inserted := map[string]int{}
		for _, m := range body.Mutations {
			key := fmt.Sprint(m.Tuple)
			switch m.Op {
			case "insert":
				inserted[key]++
			case "delete":
				inserted[key]--
			}
		}
		for key, n := range inserted {
			if n != 0 {
				t.Fatalf("request %d: tuple %s net count %d, want 0\n%s", i, key, n, r.Body)
			}
		}
	}
	if sawIngest == 0 {
		t.Fatal("replica_read mix produced no ingest requests in 400 ops")
	}
}
