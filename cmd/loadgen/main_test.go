package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"lapushdb/internal/bench"
)

// TestRunPrintsOneJSONLinePerWorkload pins the output convention:
// stdout is exactly one bench.WorkloadResult JSON line per workload,
// everything else goes to stderr.
func TestRunPrintsOneJSONLinePerWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-hermetic", "-workloads", "batch", "-c", "2",
		"-warmup", "20ms", "-duration", "200ms", "-scale", "0.2", "-max-error-rate", "0.01", "-min-ops", "1"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("stdout has %d lines, want 1:\n%s", len(lines), stdout.String())
	}
	var res bench.WorkloadResult
	if err := json.Unmarshal([]byte(lines[0]), &res); err != nil {
		t.Fatalf("stdout line is not a WorkloadResult: %v\n%s", err, lines[0])
	}
	if res.Name != "batch" || res.Ops == 0 || res.Errors != 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
	if !strings.Contains(stderr.String(), "loadgen: batch") {
		t.Fatalf("no progress summary on stderr:\n%s", stderr.String())
	}
}

// TestRunRejectsRetiredWorkloads: the cache-hit mixes perfbench
// superseded are gone, and the refusal names what is left.
func TestRunRejectsRetiredWorkloads(t *testing.T) {
	for _, name := range []string{"point", "anytime", "ingest"} {
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), []string{"-hermetic", "-workloads", name}, &stdout, &stderr)
		if err == nil {
			t.Fatalf("-workloads %s accepted", name)
		}
		for _, valid := range []string{"batch", "replica_read", "failover"} {
			if !strings.Contains(err.Error(), valid) {
				t.Fatalf("-workloads %s: error %q does not name %s", name, err, valid)
			}
		}
		if stdout.Len() != 0 {
			t.Fatalf("-workloads %s wrote to stdout: %s", name, stdout.String())
		}
	}
}

// TestRunFailoverReportsAvailabilityMetrics runs the scripted
// crash-failover on a hermetic pair and checks its one JSON line carries
// the four availability metrics and a completed promotion.
func TestRunFailoverReportsAvailabilityMetrics(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-hermetic", "-workloads", "failover", "-c", "4",
		"-warmup", "0ms", "-duration", "1500ms", "-scale", "0.2"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	var res bench.WorkloadResult
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &res); err != nil {
		t.Fatalf("stdout is not one WorkloadResult line: %v\n%s", err, stdout.String())
	}
	if res.Name != "failover" || res.Ops == 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
	for _, name := range []string{"write_gap_ms", "read_gap_ms", "promote_ms", "stranded_acked_writes"} {
		if _, ok := res.Metrics[name]; !ok {
			t.Fatalf("metric %s missing from %v", name, res.Metrics)
		}
	}
	if res.Metrics["promote_ms"] <= 0 || !strings.Contains(stderr.String(), "promoted the replica to epoch 1") {
		t.Fatalf("no promotion happened: metrics %v\n%s", res.Metrics, stderr.String())
	}
	if res.Status["200"] == 0 {
		t.Fatalf("no request succeeded: %v", res.Status)
	}
}
