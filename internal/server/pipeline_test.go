package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// Tests for the shared request pipeline (pipeline.go): the two
// endpoints that drive it must agree answer for answer, and the
// result-cache hit — the path rank_hot measures — must not grow.

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

// TestParallelismAcceptedAndIgnored is the wire-compatibility contract
// for the retired "parallelism" request field: the strict decoder still
// knows it, so an old client's request is a 200 — whatever integer it
// carries — with answers byte-identical to a request without it, on
// both endpoints.
func TestParallelismAcceptedAndIgnored(t *testing.T) {
	answersOf := func(path, body string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		New(movieDB(t), Config{}).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s %s: status %d: %s", path, body, rec.Code, rec.Body)
		}
		var resp struct {
			Answers json.RawMessage `json:"answers"`
			Results []struct {
				Answers json.RawMessage `json:"answers"`
			} `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) == 1 {
			resp.Answers = resp.Results[0].Answers
		}
		if len(resp.Answers) < len(`[{}]`) {
			t.Fatalf("POST %s %s: no answers in %s", path, body, rec.Body)
		}
		return string(resp.Answers)
	}
	for path, format := range map[string]string{
		"/v1/query":      `{"query": "` + testQuery + `"%s}`,
		"/v1/rank_batch": `{"queries": [{"query": "` + testQuery + `"}]%s}`,
	} {
		want := answersOf(path, strings.Replace(format, "%s", "", 1))
		for _, field := range []string{`, "parallelism": 4`, `, "parallelism": -1`} {
			if got := answersOf(path, strings.Replace(format, "%s", field, 1)); got != want {
				t.Errorf("%s with%s: answers %s, without it %s", path, field, got, want)
			}
		}
	}
}

// TestResultHitAllocGate pins what a result-cache hit on /v1/query may
// allocate, request decode to response encode, so tier-1 sees a change
// that would move alloc_kb_per_op@rank_hot. Ceilings are the measured
// counts (71 plain, 77 anytime) plus ~10%.
func TestResultHitAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	for _, tc := range []struct {
		name    string
		body    string
		ceiling float64
	}{
		{"plain", `{"query": "` + testQuery + `"}`, 78},
		{"anytime", `{"query": "` + testQuery + `", "epsilon": 0.05}`, 85},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(movieDB(t), Config{})
			do := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(tc.body)))
				return rec
			}
			do() // fill the cache
			if qr := decodeQuery(t, do().Body.Bytes()); qr.ResultCache != "hit" || qr.Count != 2 {
				t.Fatalf("warm request should be a 2-answer hit: %+v", qr)
			}
			allocs := testing.AllocsPerRun(200, func() { do() })
			t.Logf("%s result-cache hit: %.0f allocs/op", tc.name, allocs)
			if allocs > tc.ceiling {
				t.Errorf("%s hit path allocations %.0f exceed pinned ceiling %.0f", tc.name, allocs, tc.ceiling)
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
