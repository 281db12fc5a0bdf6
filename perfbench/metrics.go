package main

import "fmt"

// metricDef is one metric of the suite. BENCHMARK.json lists the same
// names, units and directions; TestSuiteMatchesBenchmarkJSON holds the
// two against each other.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only: share of the parent's median it may worsen by
	// Replay marks the per-layer metrics that describe the traced
	// workload's own traffic; the others come from the layer probes,
	// whose inputs do not depend on the workload.
	Replay bool
}

// The end-to-end metrics, every one measured by every workload's timed
// window. BENCHMARK.json's bounds are the ones -compare and the benchmark
// driver gate with.
//
//   - p50_ms, p95_ms: latency of the workload's primary operation — a
//     /v1/query reply (reads only on mixed_rw), or one Opt1-2-3 pass over
//     the Fig. 5 cells on paper_fig5.
//   - ops_per_s: successful operations per second of the timed window.
//   - ok_ratio: operations that returned 200 and passed every check, over
//     operations attempted; 1 − fail_ratio, because a gated metric may
//     never read 0. Its bound is below one failure in a million
//     operations, more than any run attempts: any failure trips it.
//   - alloc_kb_per_op: runtime.MemStats.TotalAlloc of the whole hermetic
//     process (server, client and harness) over the window, per operation.
//   - setup_s: median time of one set-up (see setupMedian).
//
// ISSUE 11's write_p50_ms, write_p95_ms (mixed_rw) and diss_over_det
// (paper_fig5) are per-layer metrics here: README.md says why.
var endToEnd = []metricDef{
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "ok_ratio", Unit: "ratio", Better: "higher", Bound: 0.000001},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// The per-layer metrics of the traced pass, layer by layer. The layers
// are the repository's modules. README.md says which end-to-end metric
// each is predicted to move, and on which workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "cq.parse_us", Unit: "us", Better: "lower"},
		{Name: "core.minimal_plans_us", Unit: "us", Better: "lower"},
		{Name: "core.single_plan_ms", Unit: "ms", Better: "lower"},
		{Name: "core.plans_per_query", Unit: "count", Better: "lower"},
		{Name: "lapushdb.prepare_us", Unit: "us", Better: "lower"},
		{Name: "lapushdb.rank_prepared_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.semijoin_reduce_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.eval_plans_w1_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.eval_plans_w2_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.eval_single_plan_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.eval_all_plans_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.eval_deterministic_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.eval_lineage_ms", Unit: "ms", Better: "lower"},
	}
	for k := 2; k <= 8; k++ {
		defs = append(defs, metricDef{Name: fig5dName(k), Unit: "ms", Better: "lower"})
	}
	return append(defs, []metricDef{
		{Name: "engine.allocs_per_eval", Unit: "count", Better: "lower"},
		{Name: "engine.kb_per_eval", Unit: "KiB", Better: "lower"},
		{Name: "engine.partitions_per_query", Unit: "count", Better: "lower"},
		{Name: "engine.answers_per_query", Unit: "count", Better: "lower"},
		{Name: "anytime.evaluate_ms", Unit: "ms", Better: "lower"},
		{Name: "anytime.stage_plans_ms", Unit: "ms", Better: "lower"},
		{Name: "anytime.stage_mc_ms", Unit: "ms", Better: "lower"},
		{Name: "anytime.stage_exact_ms", Unit: "ms", Better: "lower"},
		{Name: "anytime.plans_evaluated_per_query", Unit: "count", Better: "lower"},
		{Name: "anytime.mc_samples_per_query", Unit: "count", Better: "lower"},
		{Name: "anytime.converged_ratio", Unit: "ratio", Better: "higher"},
		{Name: "anytime.width_p50", Unit: "prob", Better: "lower"},
		{Name: "mc.karp_luby_us_per_ksample", Unit: "us", Better: "lower"},
		{Name: "exact.prob_ms", Unit: "ms", Better: "lower"},
		{Name: "store.apply_ms", Unit: "ms", Better: "lower"},
		{Name: "store.apply_nofsync_ms", Unit: "ms", Better: "lower"},
		{Name: "store.wal_bytes_per_batch", Unit: "B/B", Better: "lower"},
		{Name: "store.checkpoint_ms", Unit: "ms", Better: "lower"},
		{Name: "store.checkpoints", Unit: "count", Better: "lower", Replay: true},
		{Name: "store.reopen_ms", Unit: "ms", Better: "lower", Replay: true},
		{Name: "server.healthz_us", Unit: "us", Better: "lower"},
		{Name: "server.hit_path_us", Unit: "us", Better: "lower"},
		{Name: "server.encode_us_per_answer", Unit: "us", Better: "lower"},
		{Name: "server.overhead_ms", Unit: "ms", Better: "lower", Replay: true},
		{Name: "server.result_cache_hit_ratio", Unit: "ratio", Better: "higher", Replay: true},
		{Name: "server.plan_cache_hit_ratio", Unit: "ratio", Better: "higher", Replay: true},
		{Name: "server.response_kb", Unit: "KiB", Better: "lower", Replay: true},
		{Name: "server.request_p99_ms", Unit: "ms", Better: "lower", Replay: true},
		{Name: "bench.ops", Unit: "count", Better: "higher", Replay: true},
		{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower", Replay: true},
		{Name: "write_p50_ms", Unit: "ms", Better: "lower", Replay: true},
		{Name: "write_p95_ms", Unit: "ms", Better: "lower", Replay: true},
		{Name: "diss_over_det", Unit: "ratio", Better: "lower", Replay: true},
	}...)
}()

func fig5dName(k int) string { return fmt.Sprintf("engine.fig5d_k%d_ms", k) }

// replayOn reports whether a workload's traced pass has a value for the
// replay metric: the write latencies need mixed_rw's ingest acks, the
// pass ratio paper_fig5's passes, and paper_fig5, which has no server,
// has none of the server's.
func replayOn(name, workload string) bool {
	switch name {
	case "write_p50_ms", "write_p95_ms":
		return workload == wlMixedRW
	case "diss_over_det":
		return workload == wlPaperFig5
	case "server.request_p99_ms", "bench.ops", "bench.trace_overhead_ratio":
		return true
	}
	return workload != wlPaperFig5
}

// wanted lists, in print order, the metrics a run measures: an
// end-to-end run all of its pass, a traced run the replay metrics its
// workload has a value for, and the probes' when it ran them.
func wanted(cfg runConfig, traced bool) []string {
	var out []string
	if !traced {
		for _, d := range endToEnd {
			out = append(out, d.Name)
		}
		return out
	}
	for _, d := range perLayer {
		if d.Replay && replayOn(d.Name, cfg.Workload) || !d.Replay && cfg.Probes {
			out = append(out, d.Name)
		}
	}
	return out
}

// unitOf is the unit a metric is defined with; set panics on a name the
// suite does not define, so a typo cannot add a metric.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("perfbench: undefined metric " + name)
}
