package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"lapushdb/internal/bench"
)

// report is what -suite writes and -compare reads: every run of one
// suite execution with the facts two reports must share to be comparable.
type report struct {
	SchemaVersion int          `json:"schema_version"`
	Date          string       `json:"date"`
	Go            string       `json:"go"`
	CPU           string       `json:"cpu"`
	Seed          int64        `json:"seed"`
	Seconds       float64      `json:"seconds"`
	Clients       int          `json:"clients"`
	Runs          []*runResult `json:"runs"`
}

// runSuite is the one command of ISSUE 11: the five workloads in order
// with spans off, then the traced pass of each (the layer probes, which
// do not depend on the workload, ride on the first), every metric printed
// by name with its unit; a replay metric is reported where the workload
// has a value for it. It fails if any run was incorrect.
func runSuite(ctx context.Context, seed int64, seconds float64, out string) error {
	rep := &report{SchemaVersion: 1, Date: time.Now().UTC().Format("2006-01-02"), Go: runtime.Version(),
		CPU: bench.CPUModel(), Seed: seed, Seconds: seconds, Clients: clientCount()}
	incorrect := 0
	for _, traced := range []bool{false, true} {
		for i, name := range workloadNames {
			if err := ctx.Err(); err != nil {
				return err
			}
			work, err := workDir(name, seed)
			if err != nil {
				return err
			}
			cfg := runConfig{Workload: name, Seed: seed, Seconds: seconds, Scale: fullScale, Work: work, Log: os.Stderr, Probes: traced && i == 0}
			res, err := run(ctx, cfg, traced)
			if traced && err == nil {
				// Keep the spans file: it is the suite's per-layer evidence.
				kept := filepath.Join(filepath.Dir(work), fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
				if err := os.Rename(filepath.Join(work, "spans.jsonl"), kept); err == nil {
					cfg.logf("%s: spans kept as %s", name, kept)
				}
			}
			os.RemoveAll(work)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			rep.Runs = append(rep.Runs, res)
			if !res.Correct {
				incorrect++
			}
			printRun(os.Stdout, res)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %s\n", out)
	}
	if incorrect > 0 {
		return fmt.Errorf("%d of %d runs were incorrect", incorrect, len(rep.Runs))
	}
	return nil
}

// printRun prints one run's metrics, one per line: workload, name, value,
// unit, and the sample count behind a percentile.
func printRun(w io.Writer, r *runResult) {
	pass := "end-to-end"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "%s (%s): correct=%v attempted=%d failed=%d", r.Workload, pass, r.Correct, r.Attempted, r.Failed)
	if r.Digest != "" {
		fmt.Fprintf(w, " answers_digest=%s", r.Digest)
	}
	fmt.Fprintln(w)
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		name := d.Name
		m, ok := r.Metrics[name]
		if !ok {
			continue
		}
		n := ""
		if c, ok := r.Samples[name]; ok {
			n = fmt.Sprintf("  n=%d", c)
		}
		fmt.Fprintf(w, "  %-14s %-34s %14.4f %-6s%s\n", r.Workload, name, m.Value, m.Unit, n)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// benchmarkSpec is the part of BENCHMARK.json -compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// side is one side of a comparison: the end-to-end runs of one or more
// suite reports of the same code, seed and machine, by workload.
type side map[string][]*runResult

// readSide reads a comma-separated list of suite reports. The first
// report read on either side sets the machine, seed and window all others
// must share: numbers from different ones do not compare.
func readSide(paths string, first **report) (side, error) {
	out := side{}
	for _, path := range strings.Split(paths, ",") {
		var r report
		if err := readJSON(path, &r); err != nil {
			return nil, err
		}
		if *first == nil {
			*first = &r
		}
		if f := *first; f.CPU != r.CPU || f.Go != r.Go || f.Seed != r.Seed || f.Seconds != r.Seconds || f.Clients != r.Clients {
			return nil, fmt.Errorf("reports are not comparable: %s is (cpu %q, %s, seed %d, %gs, %d clients), the first report (cpu %q, %s, seed %d, %gs, %d clients)",
				path, r.CPU, r.Go, r.Seed, r.Seconds, r.Clients, f.CPU, f.Go, f.Seed, f.Seconds, f.Clients)
		}
		for _, run := range r.Runs {
			if !run.Traced {
				out[run.Workload] = append(out[run.Workload], run)
			}
		}
	}
	return out, nil
}

// value is the side's median of an end-to-end metric on a workload; ok is
// false unless every run reports it.
func (s side) value(workload, name string) (v float64, ok bool) {
	var vs []float64
	for _, run := range s[workload] {
		m, has := run.Metrics[name]
		if !has {
			return 0, false
		}
		vs = append(vs, m.Value)
	}
	return median(vs), len(vs) > 0
}

// compareReports gates side B against side A, each one suite report or a
// comma-separated set of them (the median over the set is compared): for
// every workload and end-to-end metric, how much worse B's value is as a
// share of A's, held against the metric's bound in BENCHMARK.json. It
// refuses reports that differ in CPU, Go version, seed, window length or
// client count, and fails on a bound exceeded, a metric a run lacks or
// whose baseline is not a positive number, more failed operations, an
// answers digest that differs between any two runs, or an incorrect run.
func compareReports(w io.Writer, specPath, pathsA, pathsB string) error {
	var spec benchmarkSpec
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	var first *report
	a, err := readSide(pathsA, &first)
	if err != nil {
		return err
	}
	b, err := readSide(pathsB, &first)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %9s %9s  %s\n", "workload", "metric", "A", "B", "worse_by", "bound", "")
	for _, name := range workloadNames {
		if len(a[name]) == 0 || len(b[name]) == 0 {
			return fmt.Errorf("workload %s is missing from a report", name)
		}
		for _, m := range spec.EndToEnd {
			va, inA := a.value(name, m.Name)
			vb, inB := b.value(name, m.Name)
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case !inA || !inB:
				verdict = "MISSING"
			case !(va > 0) || math.IsInf(va, 0) || math.IsNaN(vb):
				verdict = "UNUSABLE"
			case worse > m.Bound:
				verdict = "REGRESSION"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(w, "%-14s %-18s %14.4f %14.4f %+8.1f%% %8.4f%%  %s\n", name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
		var failedA, failedB int64
		digests := map[string]bool{}
		correct := true
		for _, run := range a[name] {
			failedA = max(failedA, run.Failed)
		}
		for _, run := range b[name] {
			failedB = max(failedB, run.Failed)
		}
		for _, run := range append(append([]*runResult(nil), a[name]...), b[name]...) {
			digests[run.Digest] = true
			correct = correct && run.Correct
		}
		if failedB > failedA {
			fmt.Fprintf(w, "%-14s failed operations A=%d B=%d  MORE FAILURES\n", name, failedA, failedB)
			bad++
		}
		if len(digests) != 1 {
			fmt.Fprintf(w, "%-14s %d different answers digests  MISMATCH\n", name, len(digests))
			bad++
		}
		if !correct {
			fmt.Fprintf(w, "%-14s a run was incorrect  INCORRECT\n", name)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons failed", bad)
	}
	return nil
}
