package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"lapushdb"
	"lapushdb/internal/store"
)

// POST /v1/rank_batch: evaluate several queries against one pinned
// store version. The batch shares three things a loop of /v1/query
// calls cannot:
//
//   - one snapshot — every query sees the same version, so the answers
//     are mutually consistent even under concurrent ingestion;
//   - one evaluation memo — canonicalized subplan results are reused
//     across the batch's queries (the cross-query extension of the
//     paper's Opt2), with one deadline and one intermediate-row budget
//     spanning the whole batch; and
//   - the result cache — queries already answered at this version are
//     served without taking a worker slot at all.
//
// Queries fail independently: a parse error, budget exhaustion, or
// deadline in one query yields an error object in that slot of the 200
// envelope, never a batch-wide 5xx. Only batch-level problems (empty
// or oversized batch, invalid shared options, admission failure before
// any evaluation) fail the whole request.

// errEmptyBatch and errBatchTooLarge are batch admission failures,
// mapped by errorStatus like every other request-level error.
var (
	errEmptyBatch    = errors.New(`server: field "queries" must hold at least one query`)
	errBatchTooLarge = errors.New("server: batch exceeds the configured query limit")
)

// batchQueryJSON is one query of a batch. Everything but the query
// text and its top-k cutoff is shared batch-wide: per-query methods or
// seeds would defeat subplan sharing and are deliberately absent.
type batchQueryJSON struct {
	Query string `json:"query"`
	Top   int    `json:"top"`
}

type batchRequest struct {
	Queries      []batchQueryJSON `json:"queries"`
	Method       string           `json:"method"`
	Samples      int              `json:"samples"`
	Seed         int64            `json:"seed"`
	TimeoutMS    int64            `json:"timeout_ms"`
	IgnoreSchema bool             `json:"ignore_schema"`
	// MaxRows bounds the intermediate rows the whole batch may
	// materialize — one budget across all queries, not one per query.
	MaxRows int `json:"max_rows"`
	// Epsilon switches the whole batch to anytime evaluation (method
	// "diss" only), exactly as on /v1/query: per-tuple [lower, upper]
	// intervals refined to the target width, sharing the batch memo and
	// row budget across queries and refinement stages alike.
	Epsilon *float64 `json:"epsilon"`
}

// slotJSON is one query's slot in the response after its leading
// "answers" array, in wire order: answers on success (with "cache"
// reporting whether the result cache served them), or an error object
// with the same codes /v1/query would map to an HTTP status. "answers"
// is omitted from a slot that has none.
type slotJSON struct {
	Count int       `json:"count"`
	Safe  bool      `json:"safe"`
	Cache string    `json:"cache,omitempty"` // result cache: "hit" or "miss"
	Error *apiError `json:"error,omitempty"`
	// Anytime fields, present only when the batch carried an epsilon;
	// per-query, since refinement may converge for one query and be cut
	// short for its neighbor. See queryTail for the semantics.
	Converged *bool    `json:"converged,omitempty"`
	Degraded  string   `json:"degraded,omitempty"`
	Width     *float64 `json:"width,omitempty"`
}

// batchTail is a /v1/rank_batch response after its leading "results"
// array, in wire order.
type batchTail struct {
	Count       int    `json:"count"`
	Version     uint64 `json:"version"`
	Fingerprint string `json:"fingerprint"`
	// SharedSubplanHits counts subplan evaluations served from another
	// query's memoized work within this batch.
	SharedSubplanHits int64   `json:"shared_subplan_hits"`
	ElapsedMS         float64 `json:"elapsed_ms"`
}

func (s *Server) handleRankBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		s.writeQueryError(w, errEmptyBatch)
		return
	}
	if len(req.Queries) > s.cfg.MaxBatchQueries {
		s.writeQueryError(w, fmt.Errorf("%w: %d queries, limit %d",
			errBatchTooLarge, len(req.Queries), s.cfg.MaxBatchQueries))
		return
	}
	sp, ok := s.resolveSpec(w, req.Method, req.Samples, req.Seed, req.TimeoutMS,
		req.IgnoreSchema, req.MaxRows, req.Epsilon)
	if !ok {
		return
	}
	s.metrics.batchQueriesTotal.Add(int64(len(req.Queries)))
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	// Pin one version for the whole batch; its fingerprint scopes both
	// cache lookups, so every answer — cached or evaluated — reflects
	// exactly this snapshot.
	v := s.store.Current()
	begin := time.Now()

	results := make([]rendered, len(req.Queries))
	defer func() {
		for i := range results {
			results[i].release()
		}
	}()
	// Pass 1, before taking a worker slot: validate each query, then try
	// the result cache. A batch whose queries were all answered at this
	// version responds without ever entering the admission queue.
	type pending struct {
		i               int // index into the request's queries / results
		normalized, key string
	}
	var todo []pending
	for i, bq := range req.Queries {
		if strings.TrimSpace(bq.Query) == "" {
			results[i] = slotError("missing_query", `field "query" is required`)
			continue
		}
		if bq.Top < 0 {
			results[i] = slotError("bad_top", `field "top" must be >= 0`)
			continue
		}
		normalized, key, c, err := s.lookup(v, &sp, bq.Query)
		if err != nil {
			results[i] = s.batchErrResult(err)
		} else if c != nil {
			results[i] = s.render(&sp, c, bq.Top, "hit", "")
		} else {
			todo = append(todo, pending{i, normalized, key})
		}
	}

	var sharedHits int64
	if len(todo) > 0 {
		// Pass 2 evaluates the misses under one worker slot. One
		// lapushdb.Batch spans all of them, so subplan results flow across
		// queries and one row budget covers the batch.
		err := s.admitted(ctx, func() error {
			batch := v.DB.NewBatch(&sp.opts)
			for _, pq := range todo {
				results[pq.i] = s.batchSlot(ctx, v, &sp, batch, req.Queries[pq.i], pq.normalized, pq.key)
			}
			sharedHits = batch.Stats().SharedSubplanHits
			s.metrics.sharedSubplanHits.Add(sharedHits)
			return nil
		})
		if err != nil {
			// Nothing was evaluated; fail the whole request the same way
			// /v1/query would (429/504), rather than faking per-query
			// results that are really one admission failure.
			s.writeQueryError(w, err)
			return
		}
	}

	body := getJSONBuf()
	defer putJSONBuf(body)
	body.b = append(body.b, `{"results":[`...)
	done := 0
	for i := range results {
		if i > 0 {
			body.b = append(body.b, ',')
		}
		res := &results[i]
		if res.Error == nil {
			done++
		}
		if res.Count == 0 { // an error, or no answers: "answers" is omitted
			body.encode(&res.slotJSON)
		} else {
			body.appendAnswers(res.answers, &res.slotJSON)
		}
	}
	body.closeArray(&batchTail{
		Count:             done,
		Version:           v.Seq,
		Fingerprint:       v.Fingerprint,
		SharedSubplanHits: sharedHits,
		ElapsedMS:         float64(time.Since(begin).Microseconds()) / 1000,
	})
	writeFramed(w, body)
}

// slotError is a slot that failed with the given error object.
func slotError(code, msg string) rendered {
	return rendered{slotJSON: slotJSON{Error: &apiError{Code: code, Message: msg}}}
}

// batchSlot fills the slot of one query that missed the result cache in
// pass 1, inside the batch's worker slot. Queries fail and degrade
// independently: an error lands in this slot only, and an anytime
// deadline or budget exhaustion mid-refinement yields a non-converged
// interval (Degraded set) rather than an error — the remaining slots
// still run, and may be served from already-memoized subplans even with
// the budget gone.
func (s *Server) batchSlot(ctx context.Context, v *store.Version, sp *querySpec, batch *lapushdb.Batch, bq batchQueryJSON, normalized, key string) rendered {
	// A duplicate earlier in the batch (or a concurrent request) may
	// have filled the entry since pass 1.
	if c := s.hit(sp, key); c != nil {
		return s.render(sp, c, bq.Top, "hit", "")
	}
	s.metrics.resultCacheMisses.Add(1)
	p, _, err := s.preparedNorm(ctx, v, sp.method, bq.Query, normalized, &sp.opts)
	if err != nil {
		return s.batchErrResult(err)
	}
	c, degraded, err := s.evaluate(ctx, sp, batch, p, key)
	if err != nil {
		return s.batchErrResult(err)
	}
	return s.render(sp, c, bq.Top, "miss", degraded)
}

// batchErrResult maps one query's failure into its in-envelope error
// object. The batch responds 200 with partial results, so the
// per-query code carries what a standalone request would put in the
// HTTP status; the per-class metrics are maintained identically.
func (s *Server) batchErrResult(err error) rendered {
	_, code, msg := errorStatus(err)
	s.noteQueryError(code)
	return slotError(code, msg)
}
