package server

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"lapushdb/internal/replica"
	"lapushdb/internal/store"
)

// metrics is a hand-rolled, dependency-free registry rendering in the
// Prometheus text exposition format: per-endpoint request counts by
// status code, per-endpoint latency histograms, in-flight gauges, and
// the plan cache's hit/miss/eviction counters.
type metrics struct {
	endpoints map[string]*endpointMetrics

	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheEvictions atomic.Int64
	cacheEntries   func() int // reads the cache size at render time

	resultCacheHits      atomic.Int64
	resultCacheMisses    atomic.Int64
	resultCacheEvictions atomic.Int64
	resultCacheEntries   func() int // reads the result cache size at render time

	batchQueriesTotal atomic.Int64 // queries received via /v1/rank_batch
	sharedSubplanHits atomic.Int64 // cross-query subplan reuses within batches

	anytimeConverged atomic.Int64   // anytime responses whose every interval met epsilon
	anytimeDegraded  atomic.Int64   // anytime responses served best-so-far after deadline/budget/shed
	anytimeWidth     widthHistogram // interval width of every served anytime response

	queriesCancelled atomic.Int64
	panicsRecovered  atomic.Int64
	requestsRejected atomic.Int64 // worker-pool admission failures
	shedTotal        atomic.Int64 // requests shed at admission (deadline < queue wait)
	budgetExceeded   atomic.Int64 // queries aborted by their row budget

	fencedTotal atomic.Int64 // primary→fenced transitions (0 or 1 per process)

	storeStats func() store.Stats // reads the store's counters at render time

	// replicaStatus, when non-nil, reads the replica tailer's state at
	// render time; the lapushd_replica_* family is emitted only then.
	replicaStatus func() replica.Status

	// serverRole, when non-nil, reads the failover role ("primary",
	// "replica", "fenced") at render time.
	serverRole func() string
}

// latencyBuckets are the histogram upper bounds in seconds.
var latencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// widthBuckets are the interval-width histogram upper bounds. A width
// is a probability difference, so 1 is the natural +Inf-adjacent bound.
var widthBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}

// widthHistogram records the achieved interval width of every served
// anytime response: the operational view of how tight the bounds the
// server is actually handing out are.
type widthHistogram struct {
	mu      sync.Mutex
	buckets [10]int64 // one per widthBuckets entry
	sum     float64
	count   int64
}

func (h *widthHistogram) observe(w float64) {
	h.mu.Lock()
	for i, ub := range widthBuckets {
		if w <= ub {
			h.buckets[i]++
			break
		}
	}
	h.sum += w
	h.count++
	h.mu.Unlock()
}

type endpointMetrics struct {
	inFlight atomic.Int64

	mu      sync.Mutex
	byCode  map[int]int64
	buckets []int64 // one per latencyBuckets entry, cumulative at render
	sum     float64
	count   int64
}

func newMetrics(endpoints []string, cacheEntries func() int) *metrics {
	m := &metrics{endpoints: make(map[string]*endpointMetrics, len(endpoints)), cacheEntries: cacheEntries}
	for _, e := range endpoints {
		m.endpoints[e] = &endpointMetrics{
			byCode:  map[int]int64{},
			buckets: make([]int64, len(latencyBuckets)),
		}
	}
	return m
}

// observe records one finished request.
func (m *metrics) observe(endpoint string, code int, seconds float64) {
	e := m.endpoints[endpoint]
	if e == nil {
		return
	}
	e.mu.Lock()
	e.byCode[code]++
	for i, ub := range latencyBuckets {
		if seconds <= ub {
			e.buckets[i]++
			break
		}
	}
	e.sum += seconds
	e.count++
	e.mu.Unlock()
}

func (m *metrics) enter(endpoint string) {
	if e := m.endpoints[endpoint]; e != nil {
		e.inFlight.Add(1)
	}
}

func (m *metrics) exit(endpoint string) {
	if e := m.endpoints[endpoint]; e != nil {
		e.inFlight.Add(-1)
	}
}

// render writes the whole registry in Prometheus text format with
// stable ordering.
func (m *metrics) render(b *strings.Builder) {
	names := make([]string, 0, len(m.endpoints))
	for n := range m.endpoints {
		names = append(names, n)
	}
	sort.Strings(names)

	b.WriteString("# TYPE lapushd_requests_total counter\n")
	for _, n := range names {
		e := m.endpoints[n]
		e.mu.Lock()
		codes := make([]int, 0, len(e.byCode))
		for c := range e.byCode {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(b, "lapushd_requests_total{endpoint=%q,code=%q} %d\n", n, strconv.Itoa(c), e.byCode[c])
		}
		e.mu.Unlock()
	}

	b.WriteString("# TYPE lapushd_request_duration_seconds histogram\n")
	for _, n := range names {
		e := m.endpoints[n]
		e.mu.Lock()
		cum := int64(0)
		for i, ub := range latencyBuckets {
			cum += e.buckets[i]
			fmt.Fprintf(b, "lapushd_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n", n, formatFloat(ub), cum)
		}
		fmt.Fprintf(b, "lapushd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", n, e.count)
		fmt.Fprintf(b, "lapushd_request_duration_seconds_sum{endpoint=%q} %s\n", n, formatFloat(e.sum))
		fmt.Fprintf(b, "lapushd_request_duration_seconds_count{endpoint=%q} %d\n", n, e.count)
		e.mu.Unlock()
	}

	b.WriteString("# TYPE lapushd_in_flight_requests gauge\n")
	for _, n := range names {
		fmt.Fprintf(b, "lapushd_in_flight_requests{endpoint=%q} %d\n", n, m.endpoints[n].inFlight.Load())
	}

	b.WriteString("# TYPE lapushd_plan_cache_hits_total counter\n")
	fmt.Fprintf(b, "lapushd_plan_cache_hits_total %d\n", m.cacheHits.Load())
	b.WriteString("# TYPE lapushd_plan_cache_misses_total counter\n")
	fmt.Fprintf(b, "lapushd_plan_cache_misses_total %d\n", m.cacheMisses.Load())
	b.WriteString("# TYPE lapushd_plan_cache_evictions_total counter\n")
	fmt.Fprintf(b, "lapushd_plan_cache_evictions_total %d\n", m.cacheEvictions.Load())
	b.WriteString("# TYPE lapushd_plan_cache_entries gauge\n")
	fmt.Fprintf(b, "lapushd_plan_cache_entries %d\n", m.cacheEntries())

	b.WriteString("# TYPE lapushd_result_cache_hits_total counter\n")
	fmt.Fprintf(b, "lapushd_result_cache_hits_total %d\n", m.resultCacheHits.Load())
	b.WriteString("# TYPE lapushd_result_cache_misses_total counter\n")
	fmt.Fprintf(b, "lapushd_result_cache_misses_total %d\n", m.resultCacheMisses.Load())
	b.WriteString("# TYPE lapushd_result_cache_evictions_total counter\n")
	fmt.Fprintf(b, "lapushd_result_cache_evictions_total %d\n", m.resultCacheEvictions.Load())
	if m.resultCacheEntries != nil {
		b.WriteString("# TYPE lapushd_result_cache_entries gauge\n")
		fmt.Fprintf(b, "lapushd_result_cache_entries %d\n", m.resultCacheEntries())
	}

	b.WriteString("# TYPE lapushd_batch_queries_total counter\n")
	fmt.Fprintf(b, "lapushd_batch_queries_total %d\n", m.batchQueriesTotal.Load())
	b.WriteString("# TYPE lapushd_shared_subplan_hits_total counter\n")
	fmt.Fprintf(b, "lapushd_shared_subplan_hits_total %d\n", m.sharedSubplanHits.Load())

	b.WriteString("# TYPE lapushd_queries_cancelled_total counter\n")
	fmt.Fprintf(b, "lapushd_queries_cancelled_total %d\n", m.queriesCancelled.Load())
	b.WriteString("# TYPE lapushd_panics_recovered_total counter\n")
	fmt.Fprintf(b, "lapushd_panics_recovered_total %d\n", m.panicsRecovered.Load())
	b.WriteString("# TYPE lapushd_requests_rejected_total counter\n")
	fmt.Fprintf(b, "lapushd_requests_rejected_total %d\n", m.requestsRejected.Load())
	b.WriteString("# TYPE lapushd_shed_total counter\n")
	fmt.Fprintf(b, "lapushd_shed_total %d\n", m.shedTotal.Load())
	b.WriteString("# TYPE lapushd_budget_exceeded_total counter\n")
	fmt.Fprintf(b, "lapushd_budget_exceeded_total %d\n", m.budgetExceeded.Load())

	b.WriteString("# TYPE lapushd_anytime_converged_total counter\n")
	fmt.Fprintf(b, "lapushd_anytime_converged_total %d\n", m.anytimeConverged.Load())
	b.WriteString("# TYPE lapushd_anytime_degraded_total counter\n")
	fmt.Fprintf(b, "lapushd_anytime_degraded_total %d\n", m.anytimeDegraded.Load())
	b.WriteString("# TYPE lapushd_anytime_interval_width histogram\n")
	m.anytimeWidth.mu.Lock()
	cumW := int64(0)
	for i, ub := range widthBuckets {
		cumW += m.anytimeWidth.buckets[i]
		fmt.Fprintf(b, "lapushd_anytime_interval_width_bucket{le=%q} %d\n", formatFloat(ub), cumW)
	}
	fmt.Fprintf(b, "lapushd_anytime_interval_width_bucket{le=\"+Inf\"} %d\n", m.anytimeWidth.count)
	fmt.Fprintf(b, "lapushd_anytime_interval_width_sum %s\n", formatFloat(m.anytimeWidth.sum))
	fmt.Fprintf(b, "lapushd_anytime_interval_width_count %d\n", m.anytimeWidth.count)
	m.anytimeWidth.mu.Unlock()

	if m.storeStats != nil {
		st := m.storeStats()
		b.WriteString("# TYPE lapushd_store_version gauge\n")
		fmt.Fprintf(b, "lapushd_store_version %d\n", st.Seq)
		b.WriteString("# TYPE lapushd_store_mutations_total counter\n")
		fmt.Fprintf(b, "lapushd_store_mutations_total %d\n", st.MutationsTotal)
		b.WriteString("# TYPE lapushd_store_wal_bytes gauge\n")
		fmt.Fprintf(b, "lapushd_store_wal_bytes %d\n", st.WALBytes)
		b.WriteString("# TYPE lapushd_store_checkpoints_total counter\n")
		fmt.Fprintf(b, "lapushd_store_checkpoints_total %d\n", st.Checkpoints)
		b.WriteString("# TYPE lapushd_store_wal_truncations_total counter\n")
		fmt.Fprintf(b, "lapushd_store_wal_truncations_total %d\n", st.WALTruncations)
		b.WriteString("# TYPE lapushd_store_readonly gauge\n")
		fmt.Fprintf(b, "lapushd_store_readonly %d\n", boolGauge(st.ReadOnly))
		b.WriteString("# TYPE lapushd_store_epoch gauge\n")
		fmt.Fprintf(b, "lapushd_store_epoch %d\n", st.Epoch)
	}

	if m.serverRole != nil {
		role := m.serverRole()
		b.WriteString("# TYPE lapushd_role gauge\n")
		for _, r := range []string{"primary", "replica", "fenced"} {
			fmt.Fprintf(b, "lapushd_role{role=%q} %d\n", r, boolGauge(r == role))
		}
		b.WriteString("# TYPE lapushd_fenced_total counter\n")
		fmt.Fprintf(b, "lapushd_fenced_total %d\n", m.fencedTotal.Load())
	}

	if m.replicaStatus != nil {
		rs := m.replicaStatus()
		b.WriteString("# TYPE lapushd_replica_lag_seconds gauge\n")
		fmt.Fprintf(b, "lapushd_replica_lag_seconds %s\n", formatFloat(rs.LagSeconds))
		b.WriteString("# TYPE lapushd_replica_applied_seq gauge\n")
		fmt.Fprintf(b, "lapushd_replica_applied_seq %d\n", rs.AppliedSeq)
		b.WriteString("# TYPE lapushd_replica_head_seq gauge\n")
		fmt.Fprintf(b, "lapushd_replica_head_seq %d\n", rs.HeadSeq)
		b.WriteString("# TYPE lapushd_replica_connected gauge\n")
		fmt.Fprintf(b, "lapushd_replica_connected %d\n", boolGauge(rs.Connected))
		b.WriteString("# TYPE lapushd_replica_reconnects_total counter\n")
		fmt.Fprintf(b, "lapushd_replica_reconnects_total %d\n", rs.Reconnects)
		b.WriteString("# TYPE lapushd_replica_bootstraps_total counter\n")
		fmt.Fprintf(b, "lapushd_replica_bootstraps_total %d\n", rs.Bootstraps)
		b.WriteString("# TYPE lapushd_replica_last_contact_seconds gauge\n")
		fmt.Fprintf(b, "lapushd_replica_last_contact_seconds %s\n", formatFloat(rs.LastContactSeconds))
		b.WriteString("# TYPE lapushd_replica_primary_epoch gauge\n")
		fmt.Fprintf(b, "lapushd_replica_primary_epoch %d\n", rs.PrimaryEpoch)
	}
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}
