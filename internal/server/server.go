// Package server is lapushd's HTTP/JSON query service: a concurrent
// front end over a versioned store.Store with a bounded LRU plan cache,
// a worker-pool executor with per-request deadlines, hand-rolled
// Prometheus-format metrics, and defensive middleware (request size
// limits, structured JSON errors, panic recovery).
//
// Endpoints:
//
//	POST /v1/query      {"query", "method", "top", "samples", "seed", "timeout_ms", "ignore_schema"}
//	POST /v1/rank_batch {"queries": [{"query", "top"}, ...], "method", "samples", "seed", "timeout_ms", ...}
//	POST /v1/explain    {"query", "ignore_schema", "timeout_ms"}
//	POST /v1/ingest     {"mutations": [{"op", "rel", ...}, ...]}
//	GET  /v1/relations
//	GET  /v1/store
//	GET  /healthz
//	GET  /metrics
//
// Every read request pins the store version that is current when it
// starts and uses it throughout (snapshot isolation): concurrent
// ingestion never changes a query's result mid-flight, and results are
// bit-identical to evaluating the pinned version standalone. Plan-cache
// keys are scoped by the pinned version's fingerprint, so mutations
// invalidate stale plans naturally.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lapushdb"
	"lapushdb/internal/replica"
	"lapushdb/internal/store"
)

// Config tunes the server. Zero values select the documented defaults.
type Config struct {
	// Workers bounds the number of queries evaluating concurrently
	// (default 8). Requests beyond the bound wait in line, still subject
	// to their deadline.
	Workers int
	// CacheSize bounds the plan cache's entry count (default 256).
	CacheSize int
	// ResultCacheSize bounds the result cache's entry count (default
	// 512). The result cache serves repeated identical requests against
	// an unchanged store version without re-evaluation; ingestion
	// invalidates it naturally because keys embed the version
	// fingerprint.
	ResultCacheSize int
	// MaxBatchQueries caps the number of queries one /v1/rank_batch
	// request may carry (default 64).
	MaxBatchQueries int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts (default 5m).
	MaxTimeout time.Duration
	// MaxBodyBytes limits request body size (default 1 MiB).
	MaxBodyBytes int64
	// MaxSamples caps Monte Carlo sample counts (default 10,000,000).
	MaxSamples int
	// MaxRows bounds the intermediate rows one query may materialize
	// (and is the ceiling for the per-request "max_rows" field). A query
	// exceeding its budget fails with 422. 0 disables the server-wide
	// bound; requests may still opt into one with "max_rows".
	MaxRows int
	// QueueWait is the estimated time a request spends waiting for a
	// worker slot when the pool is saturated. Requests whose remaining
	// deadline is below the estimate are shed immediately with 429
	// instead of queueing toward a certain timeout. 0 disables shedding.
	QueueWait time.Duration
	// ReplicaOf, when non-empty, runs the server as a read replica of
	// the primary at that base URL: /v1/ingest is refused with 503
	// (code "read_only_replica", the primary's address in the message
	// and the X-Lapushd-Primary header), and /healthz reports the
	// replica role. The tailer itself lives in internal/replica; the
	// server only serves the role.
	ReplicaOf string
	// ReplicaStatus supplies the tailer's status for /healthz and the
	// lapushd_replica_* metrics. Required when ReplicaOf is set.
	ReplicaStatus func() replica.Status
	// StopTailer, on a replica, stops the WAL tailer; POST /v1/promote
	// invokes it before bumping the store's epoch so the new primary
	// never races its own old primary's log.
	StopTailer func() error
	// Peers are base URLs of other lapushd nodes in the same cluster
	// (typically the replicas, from the primary's point of view). The
	// fence watcher polls their /healthz for promotion epochs: a peer on
	// a higher epoch means this node was failed over while it was down
	// or partitioned, and it fences itself instead of accepting writes
	// on the stale lineage.
	Peers []string
	// FencePollInterval is the fence watcher's polling period (default
	// 2s; only used when Peers is non-empty).
	FencePollInterval time.Duration
	// WALStreamWindow caps one /v1/wal long-poll window: a tail stream
	// is cleanly ended (frame "end") at most this long after it opened,
	// whatever wait_ms the client asked for (default 20s).
	WALStreamWindow time.Duration
	// Logf receives operational log lines (role transitions, fencing).
	// Nil selects the standard logger.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 512
	}
	if c.MaxBatchQueries <= 0 {
		c.MaxBatchQueries = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 10_000_000
	}
	if c.WALStreamWindow <= 0 {
		c.WALStreamWindow = 20 * time.Second
	}
	if c.FencePollInterval <= 0 {
		c.FencePollInterval = 2 * time.Second
	}
	return c
}

// Server serves queries over the versions a store publishes.
type Server struct {
	store   *store.Store
	cfg     Config
	cache   *planCache
	results *lruCache[*cachedResult]
	sem     chan struct{} // worker-pool slots
	metrics *metrics
	mux     *http.ServeMux
	start   time.Time

	// Failover role state (see promote.go). role holds a role value;
	// promoteMu serializes transitions; fencedBy holds the base URL of
	// the higher-epoch node a fenced server observed ("" when unknown).
	role       atomic.Int32
	promoteMu  sync.Mutex
	fencedBy   atomic.Value
	peerClient *http.Client
	fenceStop  chan struct{}
	fenceDone  chan struct{}
	closeOnce  sync.Once

	// testHookAfterAcquire, when non-nil, runs while a worker slot is
	// held, between acquire and evaluation. Tests use it to inject a
	// panic and assert the slot is still released.
	testHookAfterAcquire func()
}

// New builds a server over a fixed database: db is wrapped in an
// ephemeral store, so ingestion works (versioned, snapshot-isolated)
// but nothing is persisted. The caller must not mutate db directly
// after handing it over; all mutation goes through /v1/ingest.
func New(db *lapushdb.DB, cfg Config) *Server {
	st, err := store.Open(db, store.Options{})
	if err != nil {
		// Ephemeral Open only fails on invalid options; zero options are
		// valid by construction.
		panic(fmt.Sprintf("server: open ephemeral store: %v", err))
	}
	return NewWithStore(st, cfg)
}

// NewWithStore builds a server over an already-open store (typically a
// durable one with a WAL). The server owns the request path only; the
// caller keeps ownership of the store and closes it after shutdown.
func NewWithStore(st *store.Store, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		store:   st,
		cfg:     cfg,
		cache:   newPlanCache(cfg.CacheSize),
		results: newLRU[*cachedResult](cfg.ResultCacheSize),
		sem:     make(chan struct{}, cfg.Workers),
		start:   time.Now(),
	}
	if cfg.ReplicaOf != "" {
		s.role.Store(int32(roleReplica))
	}
	s.peerClient = &http.Client{Timeout: cfg.FencePollInterval}
	s.metrics = newMetrics([]string{"query", "rank_batch", "explain", "ingest", "relations", "store", "healthz", "metrics", "wal", "checkpoint", "promote"}, s.cache.len)
	s.metrics.storeStats = st.Stats
	s.metrics.replicaStatus = cfg.ReplicaStatus
	s.metrics.serverRole = func() string { return s.currentRole().String() }
	s.metrics.resultCacheEntries = s.results.len
	s.cache.onEvict = func() { s.metrics.cacheEvictions.Add(1) }
	s.results.onEvict = func() { s.metrics.resultCacheEvictions.Add(1) }
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/query", s.instrument("query", http.MethodPost, s.handleQuery))
	s.mux.HandleFunc("/v1/rank_batch", s.instrument("rank_batch", http.MethodPost, s.handleRankBatch))
	s.mux.HandleFunc("/v1/explain", s.instrument("explain", http.MethodPost, s.handleExplain))
	s.mux.HandleFunc("/v1/ingest", s.instrument("ingest", http.MethodPost, s.handleIngest))
	s.mux.HandleFunc("/v1/relations", s.instrument("relations", http.MethodGet, s.handleRelations))
	s.mux.HandleFunc("/v1/store", s.instrument("store", http.MethodGet, s.handleStore))
	s.mux.HandleFunc("/healthz", s.instrument("healthz", http.MethodGet, s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.instrument("metrics", http.MethodGet, s.handleMetrics))
	s.mux.HandleFunc("/v1/wal", s.instrument("wal", http.MethodGet, s.handleWAL))
	s.mux.HandleFunc("/v1/checkpoint", s.instrument("checkpoint", http.MethodGet, s.handleCheckpoint))
	s.mux.HandleFunc("/v1/promote", s.instrument("promote", http.MethodPost, s.handlePromote))
	if len(cfg.Peers) > 0 {
		s.fenceStop = make(chan struct{})
		s.fenceDone = make(chan struct{})
		go s.fenceWatcher()
	}
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// apiError is the JSON error envelope: {"error": {"code", "message"}}.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorResponse struct {
	Error apiError `json:"error"`
}

// statusRecorder captures the status code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streaming handlers
// (/v1/wal) can push frames through the instrument wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with method filtering, body size limits,
// panic recovery, and request metrics.
func (s *Server) instrument(endpoint, method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		s.metrics.enter(endpoint)
		begin := time.Now()
		defer func() {
			s.metrics.exit(endpoint)
			if p := recover(); p != nil {
				s.metrics.panicsRecovered.Add(1)
				// The handler may have written nothing yet; best effort.
				writeError(rec, http.StatusInternalServerError, "internal", fmt.Sprintf("internal error: %v", p))
				debug.PrintStack()
			}
			s.metrics.observe(endpoint, rec.code, time.Since(begin).Seconds())
		}()
		if r.Method != method {
			rec.Header().Set("Allow", method)
			writeError(rec, http.StatusMethodNotAllowed, "method_not_allowed", fmt.Sprintf("%s requires %s", r.URL.Path, method))
			return
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(rec, r.Body, s.cfg.MaxBodyBytes)
		}
		h(rec, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// jsonBuf is a byte buffer that encoding/json appends to, configured as
// writeJSON configures its encoder, so every byte it encodes is the byte
// writeJSON would have written. The answer envelopes of /v1/query and
// /v1/rank_batch are framed in one: answers arrive pre-encoded (a cache
// entry's prefix, or a per-response anytime encoding) and the remaining
// fields are encoded as a struct whose members are spliced in after them.
type jsonBuf struct {
	b []byte
	// ends[i] is the offset in b where answer i's encoding ends, as
	// encodeAnswers recorded it.
	ends []int
	enc  *json.Encoder
}

func (j *jsonBuf) Write(p []byte) (int, error) {
	j.b = append(j.b, p...)
	return len(p), nil
}

// encode appends v's encoding, without the newline Encode ends it with.
func (j *jsonBuf) encode(v any) {
	if j.enc == nil {
		j.enc = json.NewEncoder(j)
		j.enc.SetEscapeHTML(false)
	}
	if err := j.enc.Encode(v); err != nil {
		// Only a NaN or infinite float fails to encode, and no score,
		// bound or timing the server reports is one.
		panic(fmt.Sprintf("server: encode response: %v", err))
	}
	j.b = j.b[:len(j.b)-1]
}

// closeArray ends an array the caller opened as an object's first
// member, then appends the members of rest — a struct, which encoding/json
// encodes as an object — and closes the object: rest's opening brace
// becomes the comma after the array.
func (j *jsonBuf) closeArray(rest any) {
	j.b = append(j.b, ']')
	mark := len(j.b)
	j.encode(rest)
	j.b[mark] = ','
}

// appendAnswers appends the object {"answers":[answers], rest's members…}.
func (j *jsonBuf) appendAnswers(answers []byte, rest any) {
	j.b = append(j.b, `{"answers":[`...)
	j.b = append(j.b, answers...)
	j.closeArray(rest)
}

// jsonBufs pools the per-response buffers: the framed envelope, and the
// answers of an anytime render.
var jsonBufs = sync.Pool{New: func() any { return new(jsonBuf) }}

// maxPooledJSONBuf bounds the buffers returned to the pool, so one huge
// response does not stay resident as every later response's scratch.
const maxPooledJSONBuf = 1 << 20

func getJSONBuf() *jsonBuf {
	j := jsonBufs.Get().(*jsonBuf)
	j.b, j.ends = j.b[:0], j.ends[:0]
	return j
}

func putJSONBuf(j *jsonBuf) {
	if cap(j.b) <= maxPooledJSONBuf {
		jsonBufs.Put(j)
	}
}

// writeFramed writes a framed envelope as writeJSON writes a 200: the
// same header and body bytes, the newline included.
func writeFramed(w http.ResponseWriter, j *jsonBuf) {
	j.b = append(j.b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(j.b)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorResponse{Error: apiError{Code: code, Message: msg}})
}

// decodeBody parses a JSON request body strictly (unknown fields are
// rejected) and reports oversized bodies distinctly.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, "bad_json", fmt.Sprintf("malformed request body: %v", err))
		return false
	}
	return true
}

// requestContext applies the request's timeout (or the default, capped
// at MaxTimeout) on top of the connection context.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return context.WithTimeout(r.Context(), d)
}

// errOverloaded marks a request shed at admission: the worker pool was
// saturated and the remaining deadline could not cover the estimated
// queue wait, so queueing would only burn a slot's time on a request
// already doomed to 504.
var errOverloaded = errors.New("server: worker pool saturated and remaining deadline below the queue-wait estimate")

// errBadEpsilon marks an invalid anytime epsilon field.
var errBadEpsilon = errors.New(`server: bad field "epsilon"`)

// acquire takes a worker-pool slot, giving up when ctx expires first.
// With QueueWait configured, a request that finds the pool saturated
// and cannot possibly get a slot in time is shed immediately.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if s.cfg.QueueWait > 0 {
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < s.cfg.QueueWait {
			s.metrics.shedTotal.Add(1)
			s.metrics.requestsRejected.Add(1)
			return errOverloaded
		}
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		s.metrics.requestsRejected.Add(1)
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

// admitted runs fn while holding a worker slot, releasing it by defer:
// a panic during evaluation is recovered by instrument, and without the
// defer the slot would leak, silently shrinking the pool for the life of
// the process. An admission failure (shed, or the deadline firing in
// line) is returned before fn runs; otherwise fn's error is.
func (s *Server) admitted(ctx context.Context, fn func() error) error {
	if err := s.acquire(ctx); err != nil {
		return err
	}
	defer s.release()
	if s.testHookAfterAcquire != nil {
		s.testHookAfterAcquire()
	}
	return fn()
}

// cacheKey scopes a normalized query by method, schema-use flag, and
// the pinned version's fingerprint. The fingerprint combines the schema
// fingerprint with the version sequence number, so every mutation batch
// invalidates stale plans naturally; keying by method keeps one
// method's traffic from evicting another's entries even though Prepared
// values are method-independent.
func (s *Server) cacheKey(v *store.Version, method, normalized string, ignoreSchema bool) string {
	flag := "s"
	if ignoreSchema {
		flag = "n"
	}
	return method + "\x00" + flag + "\x00" + v.Fingerprint + "\x00" + normalized
}

// preparedNorm resolves a query through the plan cache against the
// pinned version, preparing and inserting on miss. Returns the statement
// and whether it was a hit. Callers normalize first: the query path
// normalizes once for the result-cache key and reuses it here.
func (s *Server) preparedNorm(ctx context.Context, v *store.Version, methodLabel, query, normalized string, opts *lapushdb.Options) (*lapushdb.Prepared, bool, error) {
	key := s.cacheKey(v, methodLabel, normalized, opts.IgnoreSchema)
	if p, ok := s.cache.get(key); ok {
		s.metrics.cacheHits.Add(1)
		return p, true, nil
	}
	s.metrics.cacheMisses.Add(1)
	p, err := v.DB.PrepareContext(ctx, query, opts)
	if err != nil {
		return nil, false, err
	}
	s.cache.put(key, p)
	return p, false, nil
}

type queryRequest struct {
	Query        string `json:"query"`
	Method       string `json:"method"`
	Top          int    `json:"top"`
	Samples      int    `json:"samples"`
	Seed         int64  `json:"seed"`
	TimeoutMS    int64  `json:"timeout_ms"`
	IgnoreSchema bool   `json:"ignore_schema"`
	// MaxRows caps the intermediate rows this query may materialize
	// (0 = the server's -max-rows setting), capped at that setting when
	// it is configured. Exceeding the budget fails the query with 422.
	MaxRows int `json:"max_rows"`
	// Epsilon, when present, switches the request to anytime evaluation
	// (method "diss" only): the answer is a [lower, upper] interval per
	// tuple, refined until upper − lower <= epsilon or the deadline
	// fires. Must be in [0, 1). With epsilon set, deadline/budget/shed
	// failures degrade to a 200 carrying the best-so-far intervals
	// whenever any bounds were computed, and "samples" caps the Monte
	// Carlo refinement samples per answer instead of being a direct
	// sample count.
	Epsilon *float64 `json:"epsilon"`
}

// intervalJSON is an anytime answer's probability interval. Upper is
// always a guaranteed bound (dissociation, or the exact probability).
// Lower is guaranteed too unless lower_kind is "statistical": then Monte
// Carlo refinement last raised it, and it is a one-sided normal-tail
// confidence bound (z = 6, see internal/anytime.DefaultMCZ) — the true
// probability lies above it with overwhelming statistical confidence, not
// with certainty. lower_kind is omitted for a certain bound.
type intervalJSON struct {
	Lower     float64 `json:"lower"`
	Upper     float64 `json:"upper"`
	Converged bool    `json:"converged"`
	LowerKind string  `json:"lower_kind,omitempty"`
}

type answerJSON struct {
	Values []string `json:"values"`
	Score  float64  `json:"score"`
	// Interval is present on anytime responses; Score echoes the upper
	// bound.
	Interval *intervalJSON `json:"interval,omitempty"`
}

// queryTail is a /v1/query response after its leading "answers" array,
// in wire order: the envelope is {"answers":[…], then these members.
type queryTail struct {
	Count  int    `json:"count"`
	Method string `json:"method"`
	Safe   bool   `json:"safe"`
	Cache  string `json:"cache"` // plan cache: "hit" or "miss"
	// ResultCache reports whether the fully evaluated answer list was
	// served from the result cache ("hit") or computed ("miss").
	ResultCache string  `json:"result_cache"`
	ElapsedMS   float64 `json:"elapsed_ms"`

	// Anytime fields, present only when the request carried an epsilon.
	// Converged reports whether every answer's interval reached the
	// requested width; Degraded is "" normally and "deadline",
	// "budget", or "shed" when refinement was cut short but best-so-far
	// bounds were still served; Width is the widest answer interval;
	// Epsilon echoes the request.
	Converged *bool    `json:"converged,omitempty"`
	Degraded  string   `json:"degraded,omitempty"`
	Width     *float64 `json:"width,omitempty"`
	Epsilon   *float64 `json:"epsilon,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, "missing_query", "field \"query\" is required")
		return
	}
	if req.Top < 0 {
		writeError(w, http.StatusBadRequest, "bad_top", "field \"top\" must be >= 0")
		return
	}
	sp, ok := s.resolveSpec(w, req.Method, req.Samples, req.Seed, req.TimeoutMS,
		req.IgnoreSchema, req.MaxRows, req.Epsilon)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	// Pin the current version for the whole request: the query sees one
	// consistent snapshot no matter how many batches land meanwhile.
	v := s.store.Current()
	begin := time.Now()
	normalized, key, c, err := s.lookup(v, &sp, req.Query)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	// The plan cache is resolved even when the result cache already hit,
	// so the plan-cache metrics keep their meaning (a normalized query's
	// plans were or weren't cached) and each cache reports in its own
	// response field.
	p, planHit, err := s.preparedNorm(ctx, v, sp.method, req.Query, normalized, &sp.opts)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	// A repeat of this exact request against an unchanged version is
	// served without a worker slot or re-evaluation.
	resultCache, degraded := "hit", ""
	if c == nil {
		s.metrics.resultCacheMisses.Add(1)
		resultCache = "miss"
		err := s.admitted(ctx, func() (err error) {
			c, degraded, err = s.evaluate(ctx, &sp, dbRanker{v.DB, sp.opts}, p, key)
			return err
		})
		if err != nil {
			// Shed or out of deadline before any work, or refinement died
			// (deadline, row budget) before its first stage completed: a
			// stale loose interval beats discarding an anytime request —
			// the bounds are valid for this store version, just wider than
			// asked.
			_, code, _ := errorStatus(err)
			if degraded = degradeLabels[code]; sp.anytime != nil && degraded != "" {
				c, _ = s.results.get(key)
			}
			if c == nil {
				s.writeQueryError(w, err)
				return
			}
			resultCache = "stale"
		}
	}
	out := s.render(&sp, c, req.Top, resultCache, degraded)
	defer out.release()
	tail := queryTail{
		Count:       out.Count,
		Method:      sp.method,
		Safe:        out.Safe,
		Cache:       cacheLabel(planHit),
		ResultCache: resultCache,
		ElapsedMS:   float64(time.Since(begin).Microseconds()) / 1000,
		Converged:   out.Converged,
		Degraded:    out.Degraded,
		Width:       out.Width,
	}
	if sp.anytime != nil {
		tail.Epsilon = &sp.anytime.Epsilon
	}
	body := getJSONBuf()
	defer putJSONBuf(body)
	body.appendAnswers(out.answers, &tail)
	writeFramed(w, body)
}

func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// retryAfterSeconds is the Retry-After hint attached to responses that
// reject work the client should simply resubmit: shed requests (the
// pool may drain within a second) and degraded-mode ingestion (the
// store probes its directory about once a second).
const retryAfterSeconds = "1"

// errorStatus classifies a query-path error into its HTTP status,
// machine-readable code, and message. Pure so the mapping is testable
// without a server.
func errorStatus(err error) (status int, code, msg string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded", "query deadline exceeded"
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "cancelled", "query cancelled"
	case errors.Is(err, errOverloaded):
		return http.StatusTooManyRequests, "overloaded", err.Error()
	case errors.Is(err, errEmptyBatch):
		return http.StatusBadRequest, "empty_batch", err.Error()
	case errors.Is(err, errBatchTooLarge):
		return http.StatusBadRequest, "batch_too_large", err.Error()
	case errors.Is(err, errBadEpsilon):
		return http.StatusBadRequest, "bad_epsilon", err.Error()
	case errors.Is(err, lapushdb.ErrBudget):
		return http.StatusUnprocessableEntity, "budget_exceeded", err.Error()
	case errors.Is(err, store.ErrReadOnly):
		return http.StatusServiceUnavailable, "read_only", err.Error()
	case errors.Is(err, store.ErrDurability):
		return http.StatusInternalServerError, "durability_failure", err.Error()
	default:
		return http.StatusBadRequest, "bad_query", err.Error()
	}
}

// noteQueryError maintains the per-class failure metrics for one
// query's error code, whether it surfaces as an HTTP status or as an
// in-envelope error object in a batch response.
func (s *Server) noteQueryError(code string) {
	switch code {
	case "deadline_exceeded", "cancelled":
		s.metrics.queriesCancelled.Add(1)
	case "budget_exceeded":
		s.metrics.budgetExceeded.Add(1)
	}
}

// writeQueryError maps an evaluation error through errorStatus,
// maintaining the per-class metrics and retry hints.
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	status, code, msg := errorStatus(err)
	s.noteQueryError(code)
	if code == "overloaded" {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeError(w, status, code, msg)
}

type explainRequest struct {
	Query        string `json:"query"`
	IgnoreSchema bool   `json:"ignore_schema"`
	TimeoutMS    int64  `json:"timeout_ms"`
}

type explainResponse struct {
	Safe          bool     `json:"safe"`
	Plans         []string `json:"plans"`
	Dissociations []string `json:"dissociations"`
	SinglePlan    string   `json:"single_plan"`
	Cache         string   `json:"cache"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req explainRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, "missing_query", "field \"query\" is required")
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	v := s.store.Current()
	opts := &lapushdb.Options{IgnoreSchema: req.IgnoreSchema}
	normalized, err := v.DB.NormalizeQuery(req.Query)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	p, hit, err := s.preparedNorm(ctx, v, "explain", req.Query, normalized, opts)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	ex := p.Explanation()
	writeJSON(w, http.StatusOK, explainResponse{
		Safe:          ex.Safe,
		Plans:         ex.Plans,
		Dissociations: ex.Dissociations,
		SinglePlan:    ex.SinglePlan,
		Cache:         cacheLabel(hit),
	})
}

type relationJSON struct {
	Name          string   `json:"name"`
	Cols          []string `json:"cols"`
	Deterministic bool     `json:"deterministic"`
	Key           []string `json:"key,omitempty"`
	Tuples        int      `json:"tuples"`
}

func (s *Server) handleRelations(w http.ResponseWriter, r *http.Request) {
	v := s.store.Current()
	infos := v.DB.RelationInfos()
	rels := make([]relationJSON, len(infos))
	for i, ri := range infos {
		rels[i] = relationJSON{
			Name:          ri.Name,
			Cols:          ri.Cols,
			Deterministic: ri.Deterministic,
			Key:           ri.Key,
			Tuples:        ri.Tuples,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"relations":   rels,
		"version":     v.Seq,
		"fingerprint": v.Fingerprint,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	v := s.store.Current()
	tuples := 0
	infos := v.DB.RelationInfos()
	for _, ri := range infos {
		tuples += ri.Tuples
	}
	// A read-only store is degraded, not down: queries keep serving the
	// last published version, so the endpoint stays 200 (a probe that
	// evicted the instance would lose the surviving read capacity) and
	// reports the state in the body instead. The same goes for a fenced
	// ex-primary: its reads are still good, only writes are refused.
	ro := s.currentRole()
	status := "ok"
	readOnly := s.store.ReadOnly()
	if readOnly || ro == roleFenced {
		status = "degraded"
	}
	body := map[string]any{
		"status":      status,
		"role":        ro.String(),
		"read_only":   readOnly,
		"uptime_s":    time.Since(s.start).Seconds(),
		"relations":   len(infos),
		"tuples":      tuples,
		"version":     v.Seq,
		"fingerprint": v.Fingerprint,
		"epoch":       v.Epoch,
	}
	if ro == roleFenced {
		if p := s.fencedPrimary(); p != "" {
			body["primary"] = p
		}
	}
	if ro == roleReplica {
		body["primary"] = s.cfg.ReplicaOf
		if s.cfg.ReplicaStatus != nil {
			rs := s.cfg.ReplicaStatus()
			body["replica"] = rs
			body["applied_seq"] = rs.AppliedSeq
			body["lag_seconds"] = rs.LagSeconds
			body["last_contact_seconds"] = rs.LastContactSeconds
			body["primary_epoch"] = rs.PrimaryEpoch
		}
	}
	writeJSON(w, http.StatusOK, body)
}

type ingestRequest struct {
	Mutations []store.Mutation `json:"mutations"`
}

type ingestResponse struct {
	Version     uint64  `json:"version"`
	Fingerprint string  `json:"fingerprint"`
	Mutations   int     `json:"mutations"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

// handleIngest applies one mutation batch atomically. On success the
// response carries the new version's sequence number and fingerprint;
// under the store's FsyncAlways policy a 200 means the batch is
// durable. Validation failures leave the store untouched and return
// 400; durability failures (the WAL itself failing) return 500; a store
// that has tripped into read-only mode returns 503 with a Retry-After
// hint while its probe works on re-arming the breaker.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	switch s.currentRole() {
	case roleReplica:
		// Replicas are read-only until promoted: a write accepted here
		// would fork the replica's history away from the log it tails.
		w.Header().Set("X-Lapushd-Primary", s.cfg.ReplicaOf)
		writeError(w, http.StatusServiceUnavailable, "read_only_replica",
			fmt.Sprintf("this lapushd is a read replica; send writes to the primary at %s", s.cfg.ReplicaOf))
		return
	case roleFenced:
		// A fenced ex-primary observed a newer promotion epoch: a write
		// here would land on a lineage the cluster has moved past.
		msg := "this lapushd is fenced (a newer promotion epoch exists); send writes to the promoted primary"
		if p := s.fencedPrimary(); p != "" {
			w.Header().Set("X-Lapushd-Primary", p)
			msg = fmt.Sprintf("this lapushd is fenced (a newer promotion epoch exists); send writes to the promoted primary at %s", p)
		}
		writeError(w, http.StatusServiceUnavailable, "fenced", msg)
		return
	}
	var req ingestRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Mutations) == 0 {
		writeError(w, http.StatusBadRequest, "empty_batch", "field \"mutations\" must hold at least one mutation")
		return
	}
	begin := time.Now()
	v, err := s.store.Apply(req.Mutations)
	if err != nil {
		switch {
		case errors.Is(err, store.ErrFenced):
			// The store observed a newer epoch between the role check above
			// and the commit; same contract as the fenced role path.
			if p := s.fencedPrimary(); p != "" {
				w.Header().Set("X-Lapushd-Primary", p)
			}
			writeError(w, http.StatusServiceUnavailable, "fenced", err.Error())
		case errors.Is(err, store.ErrReadOnly):
			w.Header().Set("Retry-After", retryAfterSeconds)
			writeError(w, http.StatusServiceUnavailable, "read_only", err.Error())
		case errors.Is(err, store.ErrDurability):
			writeError(w, http.StatusInternalServerError, "durability_failure", err.Error())
		default:
			writeError(w, http.StatusBadRequest, "bad_mutation", err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{
		Version:     v.Seq,
		Fingerprint: v.Fingerprint,
		Mutations:   len(req.Mutations),
		ElapsedMS:   float64(time.Since(begin).Microseconds()) / 1000,
	})
}

// handleStore reports the store's durability state: version, WAL size,
// checkpoint progress, fsync policy.
func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	s.metrics.render(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
