package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var serverWorkloads = []string{wlRankCold, wlRankHot, wlAnytimeCold, wlMixedRW}

// tinyScale runs every phase of the suite in seconds. Its numbers mean
// nothing; the shape assertions that need the suite's size are off.
var tinyScale = Scale{
	Suppliers: 200, Parts: 300,
	ChainN: 400, ChainDomain: 130, ChainEnds: 8,
	AnytimeX0: 1, AnytimeX1Lo: 20, AnytimeX1Span: 20,
	Fig5Div:       10,
	CheckRequests: 6, TraceRequests: 8, ProbeReps: 2,
	MinOps: 1,
}

// TestStreamsReproducible: a stream is a pure function of (seed, index) —
// the same seed gives byte-identical requests, another seed does not.
func TestStreamsReproducible(t *testing.T) {
	for _, name := range serverWorkloads {
		render := func(seed int64) []byte {
			s, err := newStream(name, fullScale, seed)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			// Out of order on purpose: concurrent clients pull indices in
			// whatever order the scheduler hands them out.
			for _, i := range []int64{5, 0, 3, 499, 1, 4, 2, traceOffset, 64} {
				r := s(i)
				buf.WriteString(r.Path)
				buf.Write(r.Body)
				buf.WriteByte('\n')
			}
			return buf.Bytes()
		}
		if !bytes.Equal(render(7), render(7)) {
			t.Errorf("%s: two generations with one seed differ", name)
		}
		if bytes.Equal(render(7), render(8)) {
			t.Errorf("%s: seeds 7 and 8 generate the same requests", name)
		}
	}
}

// TestColdFamilyAndHotPool: rank_cold draws from at least 16 384 distinct
// normalized queries (far beyond the 256-entry plan cache and the
// 512-entry result cache), and rank_hot's pool is 32 distinct members of
// that family.
func TestColdFamilyAndHotPool(t *testing.T) {
	for _, sc := range []Scale{fullScale, tinyScale} {
		f := newColdFamily(sc)
		distinct := make(map[string]bool, f.Size())
		for i := 0; i < f.Size(); i++ {
			q, err := apiParse(f.Member(i))
			if err != nil {
				t.Fatalf("member %d: %v", i, err)
			}
			distinct[q.String()] = true
		}
		if len(distinct) < 16384 {
			t.Errorf("rank_cold family has %d distinct normalized queries, want at least 16384", len(distinct))
		}
		if len(distinct) != f.Size() {
			t.Errorf("family enumerates %d members but only %d are distinct", f.Size(), len(distinct))
		}
		pool := hotPool(sc)
		seen := map[string]bool{}
		for _, query := range pool {
			q, err := apiParse(query)
			if err != nil {
				t.Fatal(err)
			}
			if !distinct[q.String()] {
				t.Errorf("hot pool member %q is not in the rank_cold family", query)
			}
			seen[q.String()] = true
		}
		if len(pool) != 32 || len(seen) != 32 {
			t.Errorf("hot pool has %d members, %d distinct, want 32", len(pool), len(seen))
		}
	}
}

// benchmarkJSON is the whole of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	var spec benchmarkJSON
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSuiteMatchesBenchmarkJSON runs the whole suite — five workloads,
// end to end and traced, as the benchmark driver runs them — at the tiny
// scale and holds what it emits against BENCHMARK.json: the same
// workloads in the same order, the same metric names, each with the unit
// and direction the file gives it.
func TestSuiteMatchesBenchmarkJSON(t *testing.T) {
	spec := readBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the suite %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the suite", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the suite defines %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in the suite", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the suite", i, m, d)
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "perfbench" {
		t.Errorf("paths = %v, want [perfbench]", spec.Paths)
	}

	units := map[string]string{}
	for _, m := range spec.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, traced := range []bool{false, true} {
		for _, name := range workloadNames {
			// As the driver runs it: a traced run with the probes.
			cfg := runConfig{Workload: name, Seed: 7, Seconds: 0.12, Scale: tinyScale, Work: t.TempDir(), Probes: traced}
			res, err := run(context.Background(), cfg, traced)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s (traced=%v): incorrect: %v", name, traced, res.Problems)
			}
			for _, metricName := range wanted(cfg, traced) {
				if got := res.Metrics[metricName]; got.Unit == "" || got.Unit != units[metricName] {
					t.Errorf("%s (traced=%v): metric %s has unit %q, BENCHMARK.json %q", name, traced, metricName, got.Unit, units[metricName])
				}
			}
			want := len(spec.EndToEnd)
			if traced {
				want = len(spec.PerLayer)
				for _, m := range spec.PerLayer {
					if m.Name == "engine.eval_plans_w1_ms" && res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: the probes did not run", name)
					}
				}
			}
			line := struct {
				Metrics map[string]metric `json:"metrics"`
			}{}
			fillMissing(res)
			if err := json.Unmarshal(res.driverLine(), &line); err != nil || len(line.Metrics) != want {
				t.Errorf("%s (traced=%v): driver line has %d metrics (%v), BENCHMARK.json lists %d", name, traced, len(line.Metrics), err, want)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(res.driverLine(), &keys); err != nil || len(keys) != 4 {
				t.Errorf("%s: driver line has %d keys (%v), want correct/attempted/failed/metrics", name, len(keys), err)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.Work, "spans.jsonl")); err != nil {
					t.Errorf("%s: traced pass left no spans file: %v", name, err)
				}
			}
		}
	}
}

// TestMetricsWhereDefined: a traced run measures a replay metric only
// where its workload has a value for it, and the probes only when asked.
func TestMetricsWhereDefined(t *testing.T) {
	has := func(names []string, name string) bool {
		for _, n := range names {
			if n == name {
				return true
			}
		}
		return false
	}
	for _, name := range workloadNames {
		if len(wanted(runConfig{Workload: name}, false)) != len(endToEnd) {
			t.Errorf("%s does not report every end-to-end metric", name)
		}
		replay := wanted(runConfig{Workload: name}, true)
		if got, want := has(replay, "write_p95_ms"), name == wlMixedRW; got != want {
			t.Errorf("%s reports write_p95_ms: %v, want %v", name, got, want)
		}
		if got, want := has(replay, "diss_over_det"), name == wlPaperFig5; got != want {
			t.Errorf("%s reports diss_over_det: %v, want %v", name, got, want)
		}
		if got, want := has(replay, "server.overhead_ms"), name != wlPaperFig5; got != want {
			t.Errorf("%s reports server.overhead_ms: %v, want %v", name, got, want)
		}
		if has(replay, "engine.eval_plans_w1_ms") {
			t.Errorf("%s: a traced run without probes reports a probe metric", name)
		}
	}
	// The suite's traced passes after the first: no probes.
	for _, name := range []string{wlMixedRW, wlPaperFig5} {
		cfg := runConfig{Workload: name, Seed: 7, Seconds: 0.12, Scale: tinyScale, Work: t.TempDir()}
		res, err := run(context.Background(), cfg, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s: incorrect: %v", name, res.Problems)
		}
	}
}

// TestDigestRepeats: the answers digest is a function of the seed alone.
func TestDigestRepeats(t *testing.T) {
	digest := func(name string, seed int64) string {
		cfg := runConfig{Workload: name, Seed: seed, Seconds: 0.1, Scale: tinyScale, Work: t.TempDir()}
		res, err := runEndToEnd(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Digest == "" {
			t.Fatalf("%s: empty digest", name)
		}
		return res.Digest
	}
	for _, name := range []string{wlRankCold, wlAnytimeCold} {
		a, b, c := digest(name, 3), digest(name, 3), digest(name, 4)
		if a != b {
			t.Errorf("%s: two runs of seed 3 digest to %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 digest alike (%s)", name, a)
		}
	}
}

// TestCompare: -compare passes equal reports, fails a regression beyond
// the bound, a single failed operation, a zero baseline, a metric one
// side lacks and a changed digest, and refuses reports of different seeds.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	base := func() *report {
		r := &report{SchemaVersion: 1, Go: "go", CPU: "cpu", Seed: 1, Seconds: 15, Clients: 2}
		for _, name := range workloadNames {
			run := &runResult{Workload: name, Correct: true, Attempted: 1, Digest: "d", Metrics: map[string]metric{}}
			for _, d := range endToEnd {
				run.Metrics[d.Name] = metric{Value: 10, Unit: d.Unit}
			}
			r.Runs = append(r.Runs, run)
		}
		return r
	}
	write := func(name string, r *report) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, mustJSON(r), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	a := write("a.json", base())
	// worse is the base value 10 made worse by the given share of the
	// metric's bound (a negative share makes it better).
	worse := func(name string, share float64) metric {
		for _, d := range endToEnd {
			if d.Name == name {
				if d.Better == "higher" {
					share = -share
				}
				return metric{Value: 10 * (1 + share*d.Bound), Unit: d.Unit}
			}
		}
		t.Fatalf("no metric %s", name)
		return metric{}
	}

	within := base()
	within.Runs[0].Metrics["p50_ms"] = worse("p50_ms", 0.9)
	within.Runs[0].Metrics["ops_per_s"] = worse("ops_per_s", -2)
	within.Runs[1].Metrics["alloc_kb_per_op"] = worse("alloc_kb_per_op", -5)
	if err := compareReports(&bytes.Buffer{}, spec, a, write("within.json", within)); err != nil {
		t.Errorf("changes within the bounds were rejected: %v", err)
	}

	slower := base()
	slower.Runs[2].Metrics["p50_ms"] = worse("p50_ms", 1.1)
	var table bytes.Buffer
	if err := compareReports(&table, spec, a, write("slower.json", slower)); err == nil {
		t.Error("a p50 regression of 1.1 bounds passed")
	} else if !strings.Contains(table.String(), "REGRESSION") {
		t.Errorf("table does not mark the regression:\n%s", table.String())
	}

	fewer := base()
	fewer.Runs[3].Metrics["ops_per_s"] = worse("ops_per_s", 1.1)
	if err := compareReports(&bytes.Buffer{}, spec, a, write("fewer.json", fewer)); err == nil {
		t.Error("a throughput loss of 1.1 bounds passed")
	}

	oneFailure := base()
	oneFailure.Runs[1].Attempted, oneFailure.Runs[1].Failed = 250000, 1
	oneFailure.Runs[1].Metrics["ok_ratio"] = metric{Value: 10 * (1 - 1.0/250000), Unit: "ratio"}
	if err := compareReports(&bytes.Buffer{}, spec, a, write("onefailure.json", oneFailure)); err == nil {
		t.Error("one failed operation in 250 000 passed")
	}

	zero := base()
	zero.Runs[0].Metrics["p95_ms"] = metric{Unit: "ms"}
	table.Reset()
	if err := compareReports(&table, spec, write("zero.json", zero), a); err == nil || !strings.Contains(table.String(), "UNUSABLE") {
		t.Errorf("a zero baseline passed (%v):\n%s", err, table.String())
	}

	lacking := base()
	delete(lacking.Runs[3].Metrics, "p95_ms")
	if err := compareReports(&bytes.Buffer{}, spec, a, write("lacking.json", lacking)); err == nil {
		t.Error("a report lacking mixed_rw's p95_ms passed")
	}

	// Sets compare by their medians: one slow run out of three is not a
	// regression, two are.
	if err := compareReports(&bytes.Buffer{}, spec, a, a+","+write("slower.json", slower)+","+a); err != nil {
		t.Errorf("a set whose median is within the bounds was rejected: %v", err)
	}
	if err := compareReports(&bytes.Buffer{}, spec, a, a+","+write("slower.json", slower)+","+write("slower2.json", slower)); err == nil {
		t.Error("a set whose median regressed passed")
	}

	changed := base()
	changed.Runs[4].Digest = "other"
	if err := compareReports(&bytes.Buffer{}, spec, a, write("changed.json", changed)); err == nil {
		t.Error("a changed answers digest passed")
	}

	other := base()
	other.Seed = 2
	if err := compareReports(&bytes.Buffer{}, spec, a, write("other.json", other)); err == nil || !strings.Contains(err.Error(), "not comparable") {
		t.Errorf("reports of different seeds were compared: %v", err)
	}
}
