package server

import (
	"context"
	"fmt"
	"net/http"

	"lapushdb"
	"lapushdb/internal/store"
)

// Request pipeline. /v1/query and /v1/rank_batch answer a query through
// the same steps: resolve the request's spec once, then per query lookup,
// admit on a miss, evaluate, store, render. Plain ranking is the
// pipeline with no epsilon — "anytime" is data on the spec, not a second
// path — and what the endpoints do differently stays with the handler
// that owns it (DESIGN.md "Request pipeline" has the step × caller table).

// querySpec is one request's evaluation spec, validated and resolved
// against the server's limits once; every query of the request runs
// under it.
type querySpec struct {
	// method is the request's method label ("diss" when omitted). It
	// scopes the plan cache — for anytime requests too: a Prepared is
	// method-independent and anytime refines the same minimal plans.
	method string
	// opts carries the plain-ranking knobs, and the prepare and batch
	// options of every request. Held by value so a spec, and a request
	// that ends at a cache hit, stays off the heap.
	opts lapushdb.Options
	// anytime is non-nil when the request carried an epsilon: the
	// evaluation is interval refinement, a cache entry is a hit only at
	// width <= Epsilon, stores keep the tighter entry, and responses
	// carry the anytime fields.
	anytime *lapushdb.AnytimeOptions
}

// resolveSpec validates the evaluation fields /v1/query and
// /v1/rank_batch requests share, writing the 400 response and returning
// ok=false on the first invalid one. The error codes match /v1/query's
// historical responses.
func (s *Server) resolveSpec(w http.ResponseWriter, methodLabel string, samples int, seed, timeoutMS int64,
	ignoreSchema bool, maxRows int, epsilon *float64) (querySpec, bool) {
	if methodLabel == "" {
		methodLabel = "diss"
	}
	method, err := lapushdb.MethodFromString(methodLabel)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_method", err.Error())
		return querySpec{}, false
	}
	if samples < 0 || samples > s.cfg.MaxSamples {
		writeError(w, http.StatusBadRequest, "bad_samples",
			fmt.Sprintf("field \"samples\" must be in [0, %d]", s.cfg.MaxSamples))
		return querySpec{}, false
	}
	if timeoutMS < 0 {
		writeError(w, http.StatusBadRequest, "bad_timeout", "field \"timeout_ms\" must be >= 0")
		return querySpec{}, false
	}
	if maxRows < 0 {
		writeError(w, http.StatusBadRequest, "bad_max_rows", "field \"max_rows\" must be >= 0")
		return querySpec{}, false
	}
	// The optional epsilon: absent means a plain request; present, it
	// passes the library's own check.
	if epsilon != nil {
		if err := lapushdb.ValidateEpsilon(*epsilon); err != nil {
			s.writeQueryError(w, fmt.Errorf("%w: %v", errBadEpsilon, err))
			return querySpec{}, false
		}
		if methodLabel != "diss" {
			writeError(w, http.StatusBadRequest, "bad_method",
				`field "epsilon" requires method "diss" (anytime refinement of the dissociation bounds)`)
			return querySpec{}, false
		}
	}
	// Resolve the sample-count default here, before the value reaches
	// both evaluation and the result-cache key: an explicit
	// samples=DefaultMCSamples and an omitted samples field are the same
	// request and must share a cache entry.
	mcSamples := samples
	if mcSamples == 0 {
		mcSamples = lapushdb.DefaultMCSamples
	}
	// The request's row bound may only tighten -max-rows.
	if maxRows == 0 || (s.cfg.MaxRows > 0 && maxRows > s.cfg.MaxRows) {
		maxRows = s.cfg.MaxRows
	}
	sp := querySpec{
		method: methodLabel,
		opts: lapushdb.Options{
			Method:              method,
			MCSamples:           mcSamples,
			Seed:                seed,
			IgnoreSchema:        ignoreSchema,
			MaxIntermediateRows: maxRows,
		},
	}
	if epsilon != nil {
		sp.anytime = &lapushdb.AnytimeOptions{
			Epsilon:             *epsilon,
			IgnoreSchema:        ignoreSchema,
			MaxIntermediateRows: maxRows,
			MCMaxSamples:        anytimeMCMax(samples),
			Seed:                seed,
		}
	}
	return sp, true
}

// lookup normalizes one query, derives its result-cache key and tests
// the cache. A nil entry is a miss the caller evaluates (and counts —
// the handlers differ in when a miss becomes final).
func (s *Server) lookup(v *store.Version, sp *querySpec, query string) (normalized, key string, c *cachedResult, err error) {
	if normalized, err = v.DB.NormalizeQuery(query); err != nil {
		return "", "", nil, err
	}
	// An anytime entry is keyed by its resolved sample cap and
	// deliberately not by epsilon: one entry per query serves every
	// epsilon at or above its achieved width.
	label, samples := sp.method, sp.opts.MCSamples
	if sp.anytime != nil {
		label, samples = "anytime", sp.anytime.MCMaxSamples
	}
	key = resultCacheKey(v.Fingerprint, label, normalized, sp.opts.IgnoreSchema, samples, sp.opts.Seed)
	return normalized, key, s.hit(sp, key), nil
}

// hit returns the entry that answers the request from the result cache,
// counting the hit, or nil: an anytime request is served only by an
// interval already at or under its epsilon.
func (s *Server) hit(sp *querySpec, key string) *cachedResult {
	c, ok := s.results.get(key)
	if !ok || (sp.anytime != nil && !(c.anytime && c.width <= sp.anytime.Epsilon)) {
		return nil
	}
	s.metrics.resultCacheHits.Add(1)
	return c
}

// ranker is whoever holds the evaluation state a query ranks through:
// the pinned version's DB for /v1/query (dbRanker), the request's
// *lapushdb.Batch — shared subplan memo, one row budget — for
// /v1/rank_batch.
type ranker interface {
	RankPrepared(ctx context.Context, p *lapushdb.Prepared) ([]lapushdb.Answer, error)
	RankAnytimePrepared(ctx context.Context, p *lapushdb.Prepared, opts *lapushdb.AnytimeOptions) (*lapushdb.AnytimeResult, error)
}

// dbRanker ranks standalone against a pinned DB under fixed options.
type dbRanker struct {
	db   *lapushdb.DB
	opts lapushdb.Options
}

func (r dbRanker) RankPrepared(ctx context.Context, p *lapushdb.Prepared) ([]lapushdb.Answer, error) {
	return r.db.RankPrepared(ctx, p, &r.opts)
}

func (r dbRanker) RankAnytimePrepared(ctx context.Context, p *lapushdb.Prepared, opts *lapushdb.AnytimeOptions) (*lapushdb.AnytimeResult, error) {
	return r.db.RankAnytimePrepared(ctx, p, opts)
}

// evaluate answers one result-cache miss while the caller holds a
// worker slot: rank (or refine) the prepared query through rk, build
// the cache entry, store it. It returns the entry and, for an anytime
// evaluation cut short after its first stage, the degrade label; an
// error means nothing was computed or stored.
func (s *Server) evaluate(ctx context.Context, sp *querySpec, rk ranker, p *lapushdb.Prepared, key string) (*cachedResult, string, error) {
	if sp.anytime != nil {
		res, err := rk.RankAnytimePrepared(ctx, p, sp.anytime)
		if err != nil {
			return nil, "", err
		}
		entry := anytimeEntry(res, p.Safe())
		s.putTighter(key, entry)
		return entry, res.Degraded, nil
	}
	answers, err := rk.RankPrepared(ctx, p)
	if err != nil {
		return nil, "", err
	}
	entry := &cachedResult{answers: toAnswerJSON(answers), safe: p.Safe()}
	s.results.put(key, entry)
	return entry, "", nil
}

// rendered is one query's served result: its answers, encoded, and the
// per-query fields both endpoints report — a batch slot's members, which
// /v1/query copies into its own envelope. A slot that failed carries
// only Error.
type rendered struct {
	slotJSON
	// answers is the JSON of the served answers as array elements, ready
	// to be framed.
	answers []byte
	// buf holds answers when the render encoded them for this response;
	// nil when answers alias the cache entry.
	buf *jsonBuf
}

// release returns a per-response answer buffer to the pool once the
// response holding it is written.
func (r *rendered) release() {
	if r.buf != nil {
		putJSONBuf(r.buf)
		r.buf = nil
	}
}

// render serves the first top answers of an entry — fresh, hit or
// stale alike. The anytime fields stay nil/"" on a plain request, which
// omits them on the wire. A plain request is served the entry's own
// encoded prefix. For an anytime request, per-answer and overall
// convergence are recomputed against the requested epsilon, so its
// answers are encoded per response; and this is the one place the
// anytime metrics are maintained: once per served response, whichever
// path produced the entry.
func (s *Server) render(sp *querySpec, c *cachedResult, top int, cache, degraded string) rendered {
	if sp.anytime == nil {
		n := len(c.top(top))
		return rendered{
			slotJSON: slotJSON{Count: n, Safe: c.safe, Cache: cache},
			answers:  c.answerBytes(n),
		}
	}
	answers, all := c.anytimeTop(top, sp.anytime.Epsilon)
	converged := all && degraded == ""
	if converged {
		s.metrics.anytimeConverged.Add(1)
	}
	if degraded != "" {
		s.metrics.anytimeDegraded.Add(1)
	}
	s.metrics.anytimeWidth.observe(c.width)
	buf := getJSONBuf()
	buf.encodeAnswers(answers, len(answers))
	return rendered{
		slotJSON: slotJSON{
			Count:     len(answers),
			Safe:      c.safe,
			Cache:     cache,
			Converged: &converged,
			Degraded:  degraded,
			Width:     &c.width,
		},
		answers: buf.b,
		buf:     buf,
	}
}
