package bench

// The failover workload: a scripted crash-failover over a live
// primary+replica pair, measuring availability rather than throughput.
// Read workers rank on the replica and write workers ingest on the
// primary; mid-run the harness kills the primary abruptly, promotes the
// replica through POST /v1/promote (with the min_seq guard at the
// highest acknowledged write), re-points the writers at the promoted
// node, and keeps going. The headline numbers land in the result's
// Metrics map:
//
//	write_gap_ms  longest wall-clock gap between consecutive
//	              successful writes (the write-unavailability window
//	              spanning kill -> promote -> first accepted write)
//	read_gap_ms   the same gap for replica reads, which should stay
//	              near the inter-request idle time — reads ride
//	              through the failover
//	promote_ms    kill-to-promotion latency, including min_seq retries
//	stranded_acked_writes  acked writes the dead primary never shipped
//	              (recoverable only by the runbook's restart path; the
//	              harness then promotes without them and reports it)
//
// The pair itself is injected through FailoverHooks so this package
// needs no dependency on internal/server: cmd/loadgen passes the
// hermetic pair's URLs and its KillPrimary hook.

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lapushdb/internal/store"
)

// FailoverHooks is what RunFailover needs from the deployment under
// test beyond RunConfig's URLs.
type FailoverHooks struct {
	// Kill abruptly terminates the primary (connections cut, listener
	// closed) — the hermetic pair's KillPrimary.
	Kill func()
	// KillAfter is how far into the timed window the kill fires
	// (default: a third of RunConfig.Duration).
	KillAfter time.Duration
}

// failoverSample is one request's outcome on the availability timeline.
type failoverSample struct {
	at time.Time
	ok bool
}

// maxGap returns the longest gap between consecutive successes, in
// milliseconds, over [begin, end].
func maxGap(samples []failoverSample, begin, end time.Time) float64 {
	last := begin
	var widest time.Duration
	for _, s := range samples {
		if !s.ok {
			continue
		}
		if d := s.at.Sub(last); d > widest {
			widest = d
		}
		last = s.at
	}
	if d := end.Sub(last); d > widest {
		widest = d
	}
	return float64(widest.Microseconds()) / 1000
}

// RunFailover drives the failover workload over an already-seeded pair
// (the caller runs Setup and WaitConverged first, as for any replica
// workload). It returns a WorkloadResult named "failover" whose
// Metrics carry the availability gaps.
func RunFailover(ctx context.Context, cfg RunConfig, hooks FailoverHooks) (WorkloadResult, error) {
	cfg = cfg.withDefaults()
	if cfg.ReplicaURL == "" {
		return WorkloadResult{}, fmt.Errorf("bench: the failover workload needs a replica (RunConfig.ReplicaURL)")
	}
	if hooks.Kill == nil {
		return WorkloadResult{}, fmt.Errorf("bench: the failover workload needs a Kill hook")
	}
	if hooks.KillAfter <= 0 {
		hooks.KillAfter = cfg.Duration / 3
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	var (
		mu     sync.Mutex
		writes []failoverSample
		reads  []failoverSample
		tally  = workerStats{status: make(map[string]int64)}
	)
	record := func(kind *[]failoverSample, t0 time.Time, code int, err error) {
		elapsed := time.Since(t0)
		mu.Lock()
		defer mu.Unlock()
		ok := tally.record(elapsed, code, err)
		*kind = append(*kind, failoverSample{at: time.Now(), ok: ok})
	}

	// writeTarget swings from the primary to the promoted replica.
	var writeTarget atomic.Value
	writeTarget.Store(cfg.BaseURL)
	// maxAcked is the highest version any writer saw acknowledged — the
	// min_seq the promotion must preserve.
	var maxAcked atomic.Uint64

	begin := time.Now()
	var wg sync.WaitGroup

	// Write workers: net-zero ingest churn, each acked response
	// advancing maxAcked.
	writeWorkers := cfg.Concurrency / 2
	if writeWorkers < 1 {
		writeWorkers = 1
	}
	for w := 0; w < writeWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); runCtx.Err() == nil; i++ {
				p := 0.4
				tuple := []string{"f", fmt.Sprintf("fo-%d-%d", w, i)}
				body := mustJSON(ingestBody{Mutations: []store.Mutation{
					{Op: store.OpInsert, Rel: "BenchR2", Tuple: tuple, P: &p},
					{Op: store.OpDelete, Rel: "BenchR2", Tuple: tuple},
				}})
				t0 := time.Now()
				var ack struct {
					Version uint64 `json:"version"`
				}
				code, err := call(runCtx, cfg.Client, http.MethodPost, writeTarget.Load().(string)+"/v1/ingest", body, &ack)
				if runCtx.Err() != nil && code == 0 {
					return
				}
				record(&writes, t0, code, err)
				if err == nil && code == http.StatusOK {
					for {
						cur := maxAcked.Load()
						if ack.Version <= cur || maxAcked.CompareAndSwap(cur, ack.Version) {
							break
						}
					}
				}
			}
		}(w)
	}

	// Read workers: point ranks on the replica throughout — the node
	// being promoted keeps serving reads.
	readWorkers := cfg.Concurrency - writeWorkers
	if readWorkers < 1 {
		readWorkers = 1
	}
	readBody := mustJSON(queryBody{Query: chainPrefixQuery, Method: "diss"})
	for w := 0; w < readWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for runCtx.Err() == nil {
				t0 := time.Now()
				code, err := do(runCtx, cfg.Client, cfg.ReplicaURL, Request{Method: "POST", Path: "/v1/query", Body: readBody})
				if runCtx.Err() != nil && code == 0 {
					return
				}
				record(&reads, t0, code, err)
			}
		}()
	}

	// The failover script: kill, then promote with the min_seq guard,
	// retrying while the replica drains what it already received. If the
	// dead primary stranded acked-but-unshipped writes, report them and
	// promote without them — they live on in its WAL for the runbook's
	// restart path; silently blocking the bench forever helps no one.
	var promoteMS, strandedWrites float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-runCtx.Done():
			return
		case <-time.After(hooks.KillAfter):
		}
		cfg.logf("failover: killing the primary")
		hooks.Kill()
		killedAt := time.Now()
		minSeq := maxAcked.Load()
		guard := minSeq
		for attempt := 0; runCtx.Err() == nil; attempt++ {
			var promoted struct {
				Epoch uint64 `json:"epoch"`
			}
			code, err := call(runCtx, cfg.Client, http.MethodPost, cfg.ReplicaURL+"/v1/promote",
				[]byte(fmt.Sprintf(`{"min_seq":%d}`, guard)), &promoted)
			if err == nil && code == http.StatusOK {
				promoteMS = float64(time.Since(killedAt).Microseconds()) / 1000
				writeTarget.Store(cfg.ReplicaURL)
				cfg.logf("failover: promoted the replica to epoch %d after %.1fms (min_seq %d)", promoted.Epoch, promoteMS, guard)
				return
			}
			if code == http.StatusConflict && attempt >= 20 && guard != 0 {
				// Persistently behind: the dead primary never shipped some
				// acked writes. Record the shortfall and promote anyway.
				var applied struct {
					Version uint64 `json:"version"`
				}
				if _, err := call(runCtx, cfg.Client, http.MethodGet, cfg.ReplicaURL+"/healthz", nil, &applied); err == nil && minSeq > applied.Version {
					strandedWrites = float64(minSeq - applied.Version)
				}
				cfg.logf("failover: %.0f acked writes stranded on the dead primary; promoting without them", strandedWrites)
				guard = 0
				continue
			}
			if err != nil && runCtx.Err() != nil {
				return
			}
			select {
			case <-runCtx.Done():
				return
			case <-time.After(25 * time.Millisecond):
			}
		}
	}()

	wg.Wait()
	end := time.Now()

	res := tally.result("failover", cfg.Concurrency, end.Sub(begin))
	res.Metrics = map[string]float64{
		"write_gap_ms":          maxGap(writes, begin, end),
		"read_gap_ms":           maxGap(reads, begin, end),
		"promote_ms":            promoteMS,
		"stranded_acked_writes": strandedWrites,
	}
	return res, nil
}
