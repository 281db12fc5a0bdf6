package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lapushdb/internal/anytime"
)

// decodeQuery decodes a /v1/query response body.
func decodeQuery(t *testing.T, body []byte) queryResponse {
	t.Helper()
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("bad query response: %v\n%s", err, body)
	}
	return qr
}

// checkIntervals asserts the anytime answer invariants: every answer
// carries a well-formed interval, Score echoes the upper bound, and
// answers are ranked by it.
func checkIntervals(t *testing.T, answers []answerJSON) {
	t.Helper()
	if len(answers) == 0 {
		t.Fatal("no answers")
	}
	for i, a := range answers {
		if a.Interval == nil {
			t.Fatalf("answer %d has no interval: %+v", i, a)
		}
		iv := a.Interval
		if iv.Lower < 0 || iv.Upper > 1 || iv.Lower > iv.Upper {
			t.Fatalf("answer %d: malformed interval [%g, %g]", i, iv.Lower, iv.Upper)
		}
		if a.Score != iv.Upper {
			t.Fatalf("answer %d: score %g != upper %g", i, a.Score, iv.Upper)
		}
		if i > 0 && answers[i-1].Interval.Upper < iv.Upper {
			t.Fatalf("answers not ranked by upper bound at %d", i)
		}
	}
}

func TestAnytimeQueryHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := map[string]any{"query": testQuery, "epsilon": 0.05}
	resp, body := postJSON(t, ts.URL+"/v1/query", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	qr := decodeQuery(t, body)
	if qr.Converged == nil || !*qr.Converged || qr.Degraded != "" {
		t.Fatalf("want converged, got %+v", qr)
	}
	if qr.Width == nil || *qr.Width > 0.05 || qr.Epsilon == nil || *qr.Epsilon != 0.05 {
		t.Fatalf("width/epsilon fields wrong: %+v", qr)
	}
	if qr.ResultCache != "miss" || qr.Count != 2 {
		t.Fatalf("want fresh 2-answer response, got %+v", qr)
	}
	checkIntervals(t, qr.Answers)

	// The identical request is a width-tagged cache hit.
	resp, body = postJSON(t, ts.URL+"/v1/query", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp.StatusCode, body)
	}
	if qr := decodeQuery(t, body); qr.ResultCache != "hit" || qr.Converged == nil || !*qr.Converged {
		t.Fatalf("repeat should hit the result cache converged: %+v", qr)
	}

	_, m := getBody(t, ts.URL+"/metrics")
	if got := metricValue(t, string(m), "lapushd_anytime_converged_total"); got < 2 {
		t.Fatalf("lapushd_anytime_converged_total = %v, want >= 2", got)
	}
	if got := metricValue(t, string(m), "lapushd_anytime_interval_width_count"); got < 2 {
		t.Fatalf("lapushd_anytime_interval_width_count = %v, want >= 2", got)
	}
}

func TestAnytimeEpsilonValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, eps := range []float64{-0.1, 1, 1.5} {
		resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"query": testQuery, "epsilon": eps})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("epsilon %v: status %d, want 400: %s", eps, resp.StatusCode, body)
		}
		if e := decodeErr(t, body); e.Code != "bad_epsilon" {
			t.Fatalf("epsilon %v: code %q, want bad_epsilon", eps, e.Code)
		}
	}
	// Epsilon demands the dissociation method: its plans are what anytime
	// refines.
	resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"query": testQuery, "epsilon": 0.1, "method": "mc"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mc+epsilon: status %d, want 400: %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != "bad_method" {
		t.Fatalf("mc+epsilon: code %q, want bad_method", e.Code)
	}
	// Same contract on the batch endpoint.
	resp, body = postJSON(t, ts.URL+"/v1/rank_batch", map[string]any{
		"queries": []map[string]any{{"query": testQuery}}, "epsilon": 2.0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch epsilon 2: status %d: %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != "bad_epsilon" {
		t.Fatalf("batch epsilon 2: code %q, want bad_epsilon", e.Code)
	}
}

// TestAnytimeBudgetDegradesE2E is the acceptance path: bisect the row
// budget to the smallest value at which the first refinement stage
// completes, and assert the response there is HTTP 200 carrying valid
// non-converged intervals with degraded="budget" — not the 422 the
// plain query path returns. Each probe uses a distinct seed so the
// width-tagged result cache never serves an earlier probe's answer.
func TestAnytimeBudgetDegradesE2E(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	seed := int64(0)
	probe := func(budget int) (int, queryResponse, apiError) {
		seed++
		resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{
			"query": testQuery, "epsilon": 0.001, "max_rows": budget, "seed": seed})
		if resp.StatusCode == http.StatusOK {
			return resp.StatusCode, decodeQuery(t, body), apiError{}
		}
		return resp.StatusCode, queryResponse{}, decodeErr(t, body)
	}
	if code, _, e := probe(1); code != http.StatusUnprocessableEntity || e.Code != "budget_exceeded" {
		t.Fatalf("budget 1: status %d code %q, want 422 budget_exceeded", code, e.Code)
	}
	lo, hi := 1, 4096
	if code, qr, _ := probe(hi); code != http.StatusOK || qr.Degraded != "" {
		t.Fatalf("budget %d: status %d degraded %q, want clean 200", hi, code, qr.Degraded)
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if code, _, _ := probe(mid); code != http.StatusOK {
			lo = mid
		} else {
			hi = mid
		}
	}
	code, qr, _ := probe(hi)
	if code != http.StatusOK {
		t.Fatalf("minimal viable budget %d: status %d", hi, code)
	}
	if qr.Degraded != "budget" || qr.Converged == nil || *qr.Converged {
		t.Fatalf("minimal viable budget %d: want degraded budget non-converged, got %+v", hi, qr)
	}
	checkIntervals(t, qr.Answers)
	_, m := getBody(t, ts.URL+"/metrics")
	if got := metricValue(t, string(m), "lapushd_anytime_degraded_total"); got < 1 {
		t.Fatalf("lapushd_anytime_degraded_total = %v, want >= 1", got)
	}
}

// newWideServer serves movieDB plus one user, cy, whose lineage under
// testQuery is wider than the anytime first exact pass admits: 50 movies
// with 3 of 10 fanned actors each. Small lineages collapse to a point in
// that pass whatever the epsilon; cy's goes to Monte Carlo, so a
// loose-epsilon run stops with a non-degenerate width — which the
// refine-on-tighter-epsilon and stale-serve contracts need.
func newWideServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	db := movieDB(t)
	insert := func(rel string, p float64, vals ...any) {
		t.Helper()
		if err := db.Relation(rel).Insert(p, vals...); err != nil {
			t.Fatal(err)
		}
	}
	for a := 0; a < 10; a++ {
		insert("Fan", 0.3+0.05*float64(a), fmt.Sprintf("actor%d", a))
	}
	for m := 0; m < 50; m++ {
		movie := fmt.Sprintf("movie%d", m)
		insert("Likes", 0.1+0.01*float64(m), "cy", movie)
		for j := 0; j < 3; j++ {
			insert("Stars", 0.2+0.1*float64(j), movie, fmt.Sprintf("actor%d", (m+3*j)%10))
		}
	}
	infos, err := db.LineageContext(context.Background(), testQuery)
	if err != nil {
		t.Fatal(err)
	}
	wide := 0
	for _, info := range infos {
		wide = max(wide, info.Size)
	}
	if wide <= anytime.FirstPassMaxClauses {
		t.Fatalf("widest lineage has %d clauses, want more than the first pass admits (%d)", wide, anytime.FirstPassMaxClauses)
	}
	s := New(db, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// TestAnytimeTighterEpsilonRefines pins the width-tagged cache
// contract: a cached interval serves only requests whose epsilon it
// already meets; a tighter request re-refines, and the refined entry
// then serves the original loose epsilon too.
func TestAnytimeTighterEpsilonRefines(t *testing.T) {
	_, ts := newWideServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"query": testQuery, "epsilon": 0.4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.StatusCode, body)
	}
	warm := decodeQuery(t, body)
	if warm.Width == nil || *warm.Width <= 0 {
		t.Fatalf("warm run should leave a non-degenerate width: %+v", warm)
	}
	w1 := *warm.Width
	// The width that is left belongs to the sampled answer, and says so.
	for _, a := range warm.Answers {
		sampled := a.Interval.Upper > a.Interval.Lower
		if stat := a.Interval.LowerKind == "statistical"; stat != sampled {
			t.Fatalf("answer %v: interval [%g, %g] with lower_kind %q", a.Values, a.Interval.Lower, a.Interval.Upper, a.Interval.LowerKind)
		}
	}

	// Tighter than the cached width: must re-refine, not serve stale.
	tighter := w1 / 2
	resp, body = postJSON(t, ts.URL+"/v1/query", map[string]any{"query": testQuery, "epsilon": tighter})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tighter: status %d: %s", resp.StatusCode, body)
	}
	refined := decodeQuery(t, body)
	if refined.ResultCache != "miss" {
		t.Fatalf("tighter epsilon must re-refine, got result_cache %q", refined.ResultCache)
	}
	if refined.Converged == nil || !*refined.Converged || *refined.Width > tighter {
		t.Fatalf("tighter run did not converge: %+v", refined)
	}

	// The loose epsilon is now served by the tighter entry.
	resp, body = postJSON(t, ts.URL+"/v1/query", map[string]any{"query": testQuery, "epsilon": 0.4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("loose repeat: status %d: %s", resp.StatusCode, body)
	}
	if qr := decodeQuery(t, body); qr.ResultCache != "hit" || *qr.Width > tighter {
		t.Fatalf("loose repeat should hit the refined entry: %+v", qr)
	}
}

// TestPutTighter pins the cache replacement rule directly: a wider
// recomputation never overwrites a tighter cached interval.
func TestPutTighter(t *testing.T) {
	s := New(movieDB(t), Config{})
	key := "k"
	s.putTighter(key, &cachedResult{anytime: true, width: 0.5})
	s.putTighter(key, &cachedResult{anytime: true, width: 0.2})
	if c, _ := s.results.get(key); c.width != 0.2 {
		t.Fatalf("tighter entry should replace: width %g", c.width)
	}
	s.putTighter(key, &cachedResult{anytime: true, width: 0.4})
	if c, _ := s.results.get(key); c.width != 0.2 {
		t.Fatalf("wider entry must not overwrite: width %g", c.width)
	}

	// The width comparison and the insert are one atomic step (putIf):
	// however two concurrent evaluations of the same key interleave, a
	// wide degraded interval can never overwrite a tight one — once the
	// tight entry lands, it must still be there after both writers stop.
	key2 := "k2"
	var wg sync.WaitGroup
	for _, w := range []float64{0.05, 0.9} {
		wg.Add(1)
		go func(w float64) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.putTighter(key2, &cachedResult{anytime: true, width: w})
			}
		}(w)
	}
	wg.Wait()
	if c, _ := s.results.get(key2); c.width != 0.05 {
		t.Fatalf("concurrent wider writer overwrote the tighter entry: width %g", c.width)
	}
}

// TestAnytimeShedServesStale exercises the degraded-200 shed path: with
// the worker pool saturated and the deadline below the queue-wait
// estimate, an anytime request that cannot be admitted is served the
// cached interval — any width — as a degraded response instead of 429.
func TestAnytimeShedServesStale(t *testing.T) {
	s, ts := newWideServer(t, Config{Workers: 1, QueueWait: 10 * time.Second})

	// Warm the cache with a loose interval.
	resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"query": testQuery, "epsilon": 0.4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.StatusCode, body)
	}
	w1 := *decodeQuery(t, body).Width
	if w1 <= 0 {
		t.Fatal("warm width is degenerate; cannot force a cache miss")
	}

	// Saturate the single worker slot with a request parked in the hook.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookAfterAcquire = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A distinct query misses the result cache and takes the slot.
		// Plain http.Post: t.Fatal is not goroutine-safe.
		body := strings.NewReader(`{"query": "q(a) :- Fan(a)", "method": "exact"}`)
		r, err := http.Post(ts.URL+"/v1/query", "application/json", body)
		if err == nil {
			r.Body.Close()
		}
	}()
	t.Cleanup(func() { close(release); wg.Wait() })
	<-entered

	degradedTotal := func() float64 {
		_, m := getBody(t, ts.URL+"/metrics")
		return metricValue(t, string(m), "lapushd_anytime_degraded_total")
	}
	before := degradedTotal()

	// Tighter epsilon misses the cache; the short deadline sheds it at
	// admission; the stale loose interval comes back as a degraded 200.
	resp, body = postJSON(t, ts.URL+"/v1/query", map[string]any{
		"query": testQuery, "epsilon": w1 / 2, "timeout_ms": 500})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shed request: status %d, want degraded 200: %s", resp.StatusCode, body)
	}
	qr := decodeQuery(t, body)
	if qr.Degraded != "shed" || qr.Converged == nil || *qr.Converged {
		t.Fatalf("want degraded=shed non-converged, got %+v", qr)
	}
	if qr.ResultCache != "stale" || *qr.Width != w1 {
		t.Fatalf("want the stale cached width %g, got %+v", w1, qr)
	}
	checkIntervals(t, qr.Answers)
	// One degraded response, counted once.
	if delta := degradedTotal() - before; delta != 1 {
		t.Fatalf("lapushd_anytime_degraded_total moved by %v for one stale-served response, want 1", delta)
	}
}

// TestAnytimeBatch drives epsilon through /v1/rank_batch: per-slot
// intervals and convergence, and width-tagged cache hits on repeat.
func TestAnytimeBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := map[string]any{
		"queries": []map[string]any{
			{"query": testQuery},
			{"query": "q(a) :- Fan(a)", "top": 1},
		},
		"epsilon": 0.05,
	}
	resp, body := postJSON(t, ts.URL+"/v1/rank_batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Count != 2 || len(br.Results) != 2 {
		t.Fatalf("want 2 results, got %+v", br)
	}
	for i, res := range br.Results {
		if res.Error != nil {
			t.Fatalf("slot %d errored: %+v", i, res.Error)
		}
		if res.Converged == nil || !*res.Converged || res.Degraded != "" {
			t.Fatalf("slot %d not converged: %+v", i, res)
		}
		if res.Cache != "miss" {
			t.Fatalf("slot %d: want cache miss, got %q", i, res.Cache)
		}
		checkIntervals(t, res.Answers)
	}
	if len(br.Results[1].Answers) != 1 {
		t.Fatalf("top=1 not applied: %+v", br.Results[1])
	}

	// Repeat: both slots served from the width-tagged cache.
	resp, body = postJSON(t, ts.URL+"/v1/rank_batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	for i, res := range br.Results {
		if res.Cache != "hit" || res.Converged == nil || !*res.Converged {
			t.Fatalf("repeat slot %d: want converged hit, got %+v", i, res)
		}
	}
}
