// Package bench is what cmd/loadgen runs: deterministic seeded request
// mixes over the paper's chain/star/TPC-H shapes for the two things the
// repository's benchmark (perfbench/, BENCHMARK.json) has no workload
// for — the /v1/rank_batch envelope and the primary+replica topology
// (replica reads under live WAL shipping, scripted crash-failover) — a
// warmup→timed concurrent runner that drives a lapushd over HTTP, and
// latency histograms with exact quantile semantics (perfbench imports
// Histogram and CPUModel). A run yields one WorkloadResult per mix;
// performance claims and the BENCH_<rev>.json trajectory belong to
// perfbench, not to this package.
package bench

// WorkloadResult is one workload mix's measurement; loadgen prints it
// as one JSON line.
type WorkloadResult struct {
	Name        string `json:"name"`
	Concurrency int    `json:"concurrency"`
	// DurationMS is the timed window's wall-clock length (warmup
	// excluded).
	DurationMS float64 `json:"duration_ms"`
	// Ops counts requests completed inside the timed window; Errors is
	// the subset that returned a non-2xx status or failed at the
	// transport layer.
	Ops    int64 `json:"ops"`
	Errors int64 `json:"errors"`
	// Status counts completed requests by HTTP status code ("200",
	// "422", "429", "503", ...). Transport-layer failures count under
	// "error".
	Status    map[string]int64 `json:"status"`
	OpsPerSec float64          `json:"ops_per_sec"`
	// Latency quantiles over the timed window, in milliseconds.
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
	// Metrics carries workload-specific extra measurements (the failover
	// workload's write_gap_ms / read_gap_ms availability gaps, for
	// example).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// ErrorRate is Errors/Ops (0 for an empty run).
func (w WorkloadResult) ErrorRate() float64 {
	if w.Ops == 0 {
		return 0
	}
	return float64(w.Errors) / float64(w.Ops)
}
