package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"lapushdb"
)

// Tests for the shared request pipeline (pipeline.go): the two
// endpoints that drive it must agree answer for answer, their framed
// envelopes must be the bytes encoding/json wrote before framing, and
// the result-cache hit — the path rank_hot measures — must not grow.

// queryResponse, batchResultJSON and batchResponse are the response
// envelopes as encoding/json encoded them (through writeJSON) before the
// answers were framed from pre-encoded bytes: the reference the framed
// bodies are compared with byte for byte, and the shape the other tests
// decode responses into.
type queryResponse struct {
	Answers     []answerJSON `json:"answers"`
	Count       int          `json:"count"`
	Method      string       `json:"method"`
	Safe        bool         `json:"safe"`
	Cache       string       `json:"cache"`
	ResultCache string       `json:"result_cache"`
	ElapsedMS   float64      `json:"elapsed_ms"`
	Converged   *bool        `json:"converged,omitempty"`
	Degraded    string       `json:"degraded,omitempty"`
	Width       *float64     `json:"width,omitempty"`
	Epsilon     *float64     `json:"epsilon,omitempty"`
}

type batchResultJSON struct {
	Answers   []answerJSON `json:"answers,omitempty"`
	Count     int          `json:"count"`
	Safe      bool         `json:"safe"`
	Cache     string       `json:"cache,omitempty"`
	Error     *apiError    `json:"error,omitempty"`
	Converged *bool        `json:"converged,omitempty"`
	Degraded  string       `json:"degraded,omitempty"`
	Width     *float64     `json:"width,omitempty"`
}

type batchResponse struct {
	Results           []batchResultJSON `json:"results"`
	Count             int               `json:"count"`
	Version           uint64            `json:"version"`
	Fingerprint       string            `json:"fingerprint"`
	SharedSubplanHits int64             `json:"shared_subplan_hits"`
	ElapsedMS         float64           `json:"elapsed_ms"`
}

// refSlot is render as it was before framing: the served answers as
// []answerJSON for encoding/json, convergence recomputed per request.
func refSlot(sp *querySpec, c *cachedResult, top int, cache string) batchResultJSON {
	if sp.anytime == nil {
		answers := c.top(top)
		return batchResultJSON{Answers: answers, Count: len(answers), Safe: c.safe, Cache: cache}
	}
	answers, converged := c.anytimeTop(top, sp.anytime.Epsilon)
	return batchResultJSON{Answers: answers, Count: len(answers), Safe: c.safe, Cache: cache,
		Converged: &converged, Width: &c.width}
}

// refBody is the body writeJSON writes for v.
func refBody(v any) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	return rec.Body.Bytes()
}

var elapsedField = regexp.MustCompile(`"elapsed_ms":[^,}]+`)

// assertSameBody compares two response bodies byte for byte, with the
// timing field masked.
func assertSameBody(t testing.TB, what string, got, want []byte) {
	t.Helper()
	mask := func(b []byte) []byte { return elapsedField.ReplaceAll(b, []byte(`"elapsed_ms":0`)) }
	if g, w := mask(got), mask(want); !bytes.Equal(g, w) {
		t.Errorf("%s: framed body differs from encoding/json's\n got: %s\nwant: %s", what, g, w)
	}
}

// lookupTestQuery resolves the default spec under epsilon (plain when
// nil) and looks testQuery up in the result cache.
func lookupTestQuery(t testing.TB, s *Server, epsilon *float64) (sp querySpec, normalized, key string, c *cachedResult) {
	t.Helper()
	sp, ok := s.resolveSpec(httptest.NewRecorder(), "", 0, 0, 0, false, 0, epsilon)
	if !ok {
		t.Fatal("resolveSpec refused the default spec")
	}
	normalized, key, c, err := s.lookup(s.store.Current(), &sp, testQuery)
	if err != nil {
		t.Fatal(err)
	}
	return sp, normalized, key, c
}

// seedEntry stores c as the result-cache entry testQuery hits under
// epsilon, and warms the plan cache without touching the result cache,
// so every /v1/query after it reports "cache":"hit".
func seedEntry(t testing.TB, s *Server, epsilon *float64, c *cachedResult) querySpec {
	t.Helper()
	sp, normalized, key, _ := lookupTestQuery(t, s, epsilon)
	if _, _, err := s.preparedNorm(context.Background(), s.store.Current(), sp.method, testQuery, normalized, &sp.opts); err != nil {
		t.Fatal(err)
	}
	s.results.put(key, c)
	return sp
}

// envelopeCase is one request for testQuery at top served from a seeded
// entry, and the body encoding/json wrote for it before framing. The
// batch carries a second, failing slot.
type envelopeCase struct {
	path, body string
	want       []byte
}

func envelopeCases(s *Server, sp *querySpec, c *cachedResult, top int) [2]envelopeCase {
	var eps string
	if sp.anytime != nil {
		eps = fmt.Sprintf(`, "epsilon": %v`, sp.anytime.Epsilon)
	}
	slot := refSlot(sp, c, top, "hit")
	q := queryResponse{Answers: slot.Answers, Count: slot.Count, Method: sp.method, Safe: slot.Safe,
		Cache: "hit", ResultCache: "hit", Converged: slot.Converged, Width: slot.Width}
	if sp.anytime != nil {
		q.Epsilon = &sp.anytime.Epsilon
	}
	v := s.store.Current()
	missing := batchResultJSON{Error: &apiError{Code: "missing_query", Message: `field "query" is required`}}
	b := batchResponse{Results: []batchResultJSON{slot, missing}, Count: 1, Version: v.Seq, Fingerprint: v.Fingerprint}
	return [2]envelopeCase{
		{"/v1/query", fmt.Sprintf(`{"query": %q, "top": %d%s}`, testQuery, top, eps), refBody(q)},
		{"/v1/rank_batch", fmt.Sprintf(`{"queries": [{"query": %q, "top": %d}, {"query": " "}]%s}`, testQuery, top, eps), refBody(b)},
	}
}

func serve(s *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// oddValues are strings encoding/json escapes, or leaves alone only
// because HTML escaping is off.
var oddValues = []string{`<a href="x">&amp;</a>`, `quote" back\slash`, "ctl\x01\x1f\t", "sep\u2028\u2029", "bad\xffutf8\xc3"}

// TestEnvelopeBytesMatchEncodingJSON: the framed /v1/query and
// /v1/rank_batch bodies are the bytes encoding/json wrote for the same
// response, for plain and anytime entries (one epsilon below an answer's
// width, one above every width), every kind of top, empty entries, an
// error slot, and values that need escaping.
func TestEnvelopeBytesMatchEncodingJSON(t *testing.T) {
	eps := func(e float64) *float64 { return &e }
	plain := func() *cachedResult {
		return &cachedResult{safe: true, answers: []answerJSON{
			{Values: oddValues[:2], Score: 0.9},
			{Values: oddValues[2:], Score: 0.1 + 0.2},
			{Values: []string{""}, Score: 1e-7},
			{Values: []string{"zero"}, Score: 0},
		}}
	}
	anytime := func() *cachedResult {
		return &cachedResult{anytime: true, width: 0.05, answers: []answerJSON{
			{Values: oddValues[:1], Score: 0.9, Interval: &intervalJSON{Lower: 0.88, Upper: 0.9, Converged: true}},
			{Values: oddValues[1:], Score: 0.7, Interval: &intervalJSON{Lower: 0.4, Upper: 0.7, LowerKind: "statistical"}},
			{Values: []string{"tiny"}, Score: 2.5e-8, Interval: &intervalJSON{Upper: 2.5e-8}},
		}}
	}
	for _, tc := range []struct {
		name    string
		epsilon *float64
		entry   func() *cachedResult
	}{
		{"plain", nil, plain},
		{"plain/empty", nil, func() *cachedResult { return &cachedResult{answers: []answerJSON{}} }},
		{"anytime/eps=0.1", eps(0.1), anytime}, // below the second answer's width 0.3
		{"anytime/eps=0.5", eps(0.5), anytime}, // above every width
		{"anytime/empty", eps(0.1), func() *cachedResult { return &cachedResult{anytime: true, answers: []answerJSON{}} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(movieDB(t), Config{})
			c := tc.entry()
			sp := seedEntry(t, s, tc.epsilon, c)
			// top=1 first, so the plain prefix is extended, not encoded
			// whole; then again, once more answers are encoded than it serves.
			for _, top := range []int{1, len(c.answers) + 3, 0, 1, len(c.answers)} {
				for _, ec := range envelopeCases(s, &sp, c, top) {
					rec := serve(s, ec.path, ec.body)
					if rec.Code != http.StatusOK {
						t.Fatalf("%s top=%d: status %d: %s", ec.path, top, rec.Code, rec.Body)
					}
					assertSameBody(t, fmt.Sprintf("%s top=%d", ec.path, top), rec.Body.Bytes(), ec.want)
				}
			}
		})
	}
}

// TestEnvelopeBytesOnMiss: a response that evaluates its entry — plain
// or anytime, on either endpoint — frames the bytes encoding/json wrote.
func TestEnvelopeBytesOnMiss(t *testing.T) {
	eps := 0.05
	for _, epsilon := range []*float64{nil, &eps} {
		var field string
		if epsilon != nil {
			field = fmt.Sprintf(`, "epsilon": %v`, *epsilon)
		}
		stored := func(s *Server) (querySpec, *cachedResult) {
			sp, _, _, c := lookupTestQuery(t, s, epsilon)
			if c == nil {
				t.Fatalf("the miss%s stored no entry", field)
			}
			return sp, c
		}

		s := New(movieDB(t), Config{})
		got := serve(s, "/v1/query", fmt.Sprintf(`{"query": %q, "top": 1%s}`, testQuery, field)).Body.Bytes()
		sp, c := stored(s)
		slot := refSlot(&sp, c, 1, "miss")
		assertSameBody(t, "/v1/query"+field, got, refBody(queryResponse{
			Answers: slot.Answers, Count: slot.Count, Method: sp.method, Safe: slot.Safe, Cache: "miss",
			ResultCache: "miss", Converged: slot.Converged, Width: slot.Width, Epsilon: epsilon}))

		s = New(movieDB(t), Config{})
		got = serve(s, "/v1/rank_batch", fmt.Sprintf(`{"queries": [{"query": %q}]%s}`, testQuery, field)).Body.Bytes()
		var br batchResponse
		if err := json.Unmarshal(got, &br); err != nil {
			t.Fatalf("batch response: %v\n%s", err, got)
		}
		sp, c = stored(s)
		v := s.store.Current()
		assertSameBody(t, "/v1/rank_batch"+field, got, refBody(batchResponse{
			Results: []batchResultJSON{refSlot(&sp, c, 0, "miss")}, Count: 1, Version: v.Seq,
			Fingerprint: v.Fingerprint, SharedSubplanHits: br.SharedSubplanHits}))
	}
}

// TestResultCacheConcurrentPrefix: goroutines that serve one fresh
// 400-answer entry at random tops, through both endpoints, extend its
// encoded prefix concurrently and each read the bytes encoding/json
// writes. Run under the race detector (make race).
func TestResultCacheConcurrentPrefix(t *testing.T) {
	s := New(movieDB(t), Config{})
	c := &cachedResult{safe: true, answers: make([]answerJSON, 400)}
	for i := range c.answers {
		c.answers[i] = answerJSON{Values: []string{fmt.Sprintf("user%03d", i), oddValues[i%len(oddValues)]},
			Score: 0.999 * math.Pow(0.99, float64(i))}
	}
	sp := seedEntry(t, s, nil, c)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				top := rng.Intn(len(c.answers) + 10)
				ec := envelopeCases(s, &sp, c, top)[i%2]
				assertSameBody(t, fmt.Sprintf("%s top=%d", ec.path, top), serve(s, ec.path, ec.body).Body.Bytes(), ec.want)
			}
		}(rand.New(rand.NewSource(int64(g))))
	}
	wg.Wait()
}

// parityView is the part of a response both endpoints report for one
// query: what the shared renderer fills.
type parityView struct {
	answers   []answerJSON
	safe      bool
	converged *bool
	degraded  string
	width     *float64
	cache     string // result cache: "hit" or "miss"
}

func queryView(t *testing.T, url string, req map[string]any) parityView {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/query", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/query status %d: %s", resp.StatusCode, body)
	}
	qr := decodeQuery(t, body)
	return parityView{qr.Answers, qr.Safe, qr.Converged, qr.Degraded, qr.Width, qr.ResultCache}
}

// batchView sends req as a one-query /v1/rank_batch: the query and top
// move into the slot, every other field is batch-wide.
func batchView(t *testing.T, url string, req map[string]any) parityView {
	t.Helper()
	breq := map[string]any{}
	slot := map[string]any{}
	for k, v := range req {
		if k == "query" || k == "top" {
			slot[k] = v
		} else {
			breq[k] = v
		}
	}
	breq["queries"] = []map[string]any{slot}
	resp, body := postJSON(t, url+"/v1/rank_batch", breq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/rank_batch status %d: %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("batch response: %v\n%s", err, body)
	}
	if len(br.Results) != 1 || br.Results[0].Error != nil {
		t.Fatalf("want one successful slot, got %s", body)
	}
	r := br.Results[0]
	return parityView{r.Answers, r.Safe, r.Converged, r.Degraded, r.Width, r.Cache}
}

func assertParity(t *testing.T, what string, q, b parityView) {
	t.Helper()
	if len(q.answers) == 0 || len(q.answers) != len(b.answers) {
		t.Fatalf("%s: %d query answers vs %d batch answers", what, len(q.answers), len(b.answers))
	}
	for i := range q.answers {
		qa, ba := q.answers[i], b.answers[i]
		if !slices.Equal(qa.Values, ba.Values) {
			t.Fatalf("%s: answer %d values %v vs %v", what, i, qa.Values, ba.Values)
		}
		if math.Float64bits(qa.Score) != math.Float64bits(ba.Score) {
			t.Fatalf("%s: answer %d score %v vs %v", what, i, qa.Score, ba.Score)
		}
		if (qa.Interval == nil) != (ba.Interval == nil) {
			t.Fatalf("%s: answer %d interval presence differs", what, i)
		}
		if qa.Interval != nil && *qa.Interval != *ba.Interval {
			t.Fatalf("%s: answer %d interval %+v vs %+v", what, i, *qa.Interval, *ba.Interval)
		}
	}
	if q.safe != b.safe || q.degraded != b.degraded {
		t.Fatalf("%s: safe/degraded %v/%q vs %v/%q", what, q.safe, q.degraded, b.safe, b.degraded)
	}
	if (q.converged == nil) != (b.converged == nil) || (q.converged != nil && *q.converged != *b.converged) {
		t.Fatalf("%s: converged differs", what)
	}
	if (q.width == nil) != (b.width == nil) ||
		(q.width != nil && math.Float64bits(*q.width) != math.Float64bits(*b.width)) {
		t.Fatalf("%s: width differs", what)
	}
}

// TestQueryBatchParity: /v1/query and a one-query /v1/rank_batch are the
// same pipeline behind two envelopes — identical answers and outcome
// fields cold and on the hit, and each endpoint's evaluation fills the
// cache entry the other then hits.
func TestQueryBatchParity(t *testing.T) {
	cases := map[string]map[string]any{
		"diss":    {"query": testQuery},
		"mc":      {"query": testQuery, "method": "mc", "samples": 3000, "seed": 11},
		"epsilon": {"query": testQuery, "epsilon": 0.05, "seed": 5},
		"top":     {"query": testQuery, "epsilon": 0.05, "top": 1},
	}
	for name, req := range cases {
		t.Run(name, func(t *testing.T) {
			_, viaQuery := newTestServer(t, Config{})
			_, viaBatch := newTestServer(t, Config{})
			q, b := queryView(t, viaQuery.URL, req), batchView(t, viaBatch.URL, req)
			if q.cache != "miss" || b.cache != "miss" {
				t.Fatalf("cold: result cache %q / %q, want miss / miss", q.cache, b.cache)
			}
			assertParity(t, "cold", q, b)
			if name == "top" && len(q.answers) != 1 {
				t.Fatalf("top=1 served %d answers", len(q.answers))
			}

			// Crossed: the batch now reads the entry /v1/query stored, and
			// /v1/query the one the batch stored.
			qHit, bHit := queryView(t, viaBatch.URL, req), batchView(t, viaQuery.URL, req)
			if qHit.cache != "hit" || bHit.cache != "hit" {
				t.Fatalf("crossed: result cache %q / %q, want hit / hit", qHit.cache, bHit.cache)
			}
			assertParity(t, "hit", qHit, bHit)
			assertParity(t, "cold vs hit", q, bHit)
		})
	}
}

// TestParallelismRefused: the retired "parallelism" request field is an
// unknown field to the strict decoder on both endpoints, a 400 bad_json,
// while the same request without it is a 200.
func TestParallelismRefused(t *testing.T) {
	for path, format := range map[string]string{
		"/v1/query":      `{"query": "` + testQuery + `"%s}`,
		"/v1/rank_batch": `{"queries": [{"query": "` + testQuery + `"}]%s}`,
	} {
		for _, field := range []string{"", `, "parallelism": 4`, `, "parallelism": -1`} {
			body := strings.Replace(format, "%s", field, 1)
			rec := httptest.NewRecorder()
			New(movieDB(t), Config{}).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			switch {
			case field == "" && rec.Code != http.StatusOK:
				t.Errorf("POST %s %s: status %d, want 200: %s", path, body, rec.Code, rec.Body)
			case field != "" && rec.Code != http.StatusBadRequest:
				t.Errorf("POST %s %s: status %d, want 400: %s", path, body, rec.Code, rec.Body)
			case field != "":
				if e := decodeErr(t, rec.Body.Bytes()); e.Code != "bad_json" {
					t.Errorf("POST %s %s: error %+v, want bad_json", path, body, e)
				}
			}
		}
	}
}

// fanDB is movieDB's schema with n users who each like the one movie:
// testQuery ranks n answers, with distinct scores.
func fanDB(tb testing.TB, n int) *lapushdb.DB {
	tb.Helper()
	db := lapushdb.Open()
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	likes, err := db.CreateRelation("Likes", "user", "movie")
	must(err)
	stars, err := db.CreateRelation("Stars", "movie", "actor")
	must(err)
	fan, err := db.CreateRelation("Fan", "actor")
	must(err)
	for i := 0; i < n; i++ {
		must(likes.Insert(0.05+0.9*float64(i)/float64(n), fmt.Sprintf("user%03d", i), "heat"))
	}
	must(stars.Insert(0.8, "heat", "deniro"))
	must(fan.Insert(0.6, "deniro"))
	return db
}

const plainHitBody = `{"query": "` + testQuery + `"}`

// TestResultHitAllocGate pins what a result-cache hit on /v1/query may
// allocate, request decode to response write, so tier-1 sees a change
// that would move alloc_kb_per_op@rank_hot. A plain hit copies its
// entry's encoded answers, so it allocates the same at 2 answers as at
// 400. Ceilings are the measured counts (71 plain at either length, 77
// anytime) plus ~10%.
func TestResultHitAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	readings := map[string]float64{}
	for _, tc := range []struct {
		name    string
		answers int
		body    string
		ceiling float64
	}{
		{"plain", 2, plainHitBody, 78},
		{"plain/400", 400, plainHitBody, 78},
		{"anytime", 2, `{"query": "` + testQuery + `", "epsilon": 0.05}`, 85},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(fanDB(t, tc.answers), Config{})
			do := func() *httptest.ResponseRecorder { return serve(s, "/v1/query", tc.body) }
			do() // fill the cache
			if qr := decodeQuery(t, do().Body.Bytes()); qr.ResultCache != "hit" || qr.Count != tc.answers {
				t.Fatalf("warm request should be a %d-answer hit: %+v", tc.answers, qr)
			}
			allocs := testing.AllocsPerRun(200, func() { do() })
			readings[tc.name] = allocs
			t.Logf("%s result-cache hit: %.0f allocs/op", tc.name, allocs)
			if allocs > tc.ceiling {
				t.Errorf("%s hit path allocations %.0f exceed pinned ceiling %.0f", tc.name, allocs, tc.ceiling)
			}
		})
	}
	if readings["plain"] != readings["plain/400"] {
		t.Errorf("a plain hit allocates %.0f times at 2 answers but %.0f at 400: the hit encodes per answer",
			readings["plain"], readings["plain/400"])
	}
}

// BenchmarkResultHit times a plain result-cache hit on /v1/query through
// ServeHTTP, request decode to response write, at a short and at
// rank_hot's answer-list length.
func BenchmarkResultHit(b *testing.B) {
	for _, n := range []int{2, 400} {
		b.Run(fmt.Sprintf("answers=%d", n), func(b *testing.B) {
			s := New(fanDB(b, n), Config{})
			serve(s, "/v1/query", plainHitBody) // fill the cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(s, "/v1/query", plainHitBody)
			}
		})
	}
}

// TestAnytimeTopServesPrefix: top truncates what is served (and copied),
// not what "all converged" is computed over, and never writes through
// to the immutable cache entry.
func TestAnytimeTopServesPrefix(t *testing.T) {
	c := &cachedResult{anytime: true, width: 0.3, answers: []answerJSON{
		{Values: []string{"a"}, Score: 0.9, Interval: &intervalJSON{Lower: 0.85, Upper: 0.9}},
		{Values: []string{"b"}, Score: 0.7, Interval: &intervalJSON{Lower: 0.4, Upper: 0.7}},
	}}
	got, all := c.anytimeTop(1, 0.1)
	if len(got) != 1 || !got[0].Interval.Converged {
		t.Fatalf("top=1 at eps 0.1: want the one converged answer, got %+v", got)
	}
	if all {
		t.Fatal("the unserved second answer is wider than epsilon: not all converged")
	}
	if c.answers[0].Interval.Converged {
		t.Fatal("rendering wrote through to the cached entry")
	}
	if got, all = c.anytimeTop(0, 0.3); len(got) != 2 || !all {
		t.Fatalf("top=0 at eps 0.3: want both answers, all converged; got %+v all=%v", got, all)
	}
}
