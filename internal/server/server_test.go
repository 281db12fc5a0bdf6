package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lapushdb"
)

// movieDB builds the small uncertain movie-recommendation database used
// across the repo's tests.
func movieDB(t *testing.T) *lapushdb.DB {
	t.Helper()
	db := lapushdb.Open()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	likes, err := db.CreateRelation("Likes", "user", "movie")
	must(err)
	stars, err := db.CreateRelation("Stars", "movie", "actor")
	must(err)
	fan, err := db.CreateRelation("Fan", "actor")
	must(err)
	must(likes.Insert(0.9, "ann", "heat"))
	must(likes.Insert(0.5, "bob", "heat"))
	must(likes.Insert(0.4, "bob", "ronin"))
	must(stars.Insert(0.8, "heat", "deniro"))
	must(stars.Insert(0.7, "ronin", "deniro"))
	must(stars.Insert(0.3, "heat", "pacino"))
	must(fan.Insert(0.6, "deniro"))
	must(fan.Insert(0.9, "pacino"))
	return db
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(movieDB(t), cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

const testQuery = "q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)"

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func decodeErr(t *testing.T, body []byte) apiError {
	t.Helper()
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("error body is not the JSON envelope: %v\n%s", err, body)
	}
	return er.Error
}

func TestQueryHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/query", queryRequest{Query: testQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Count != 2 || len(qr.Answers) != 2 {
		t.Fatalf("want 2 answers, got %+v", qr)
	}
	if qr.Answers[0].Score < qr.Answers[1].Score {
		t.Fatalf("answers not ranked: %+v", qr.Answers)
	}
	if qr.Method != "diss" || qr.Cache != "miss" {
		t.Fatalf("want method=diss cache=miss, got %+v", qr)
	}
	for _, a := range qr.Answers {
		if a.Score < 0 || a.Score > 1 {
			t.Fatalf("score out of range: %+v", a)
		}
	}
}

func TestQueryTopKAndMethods(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, method := range []string{"diss", "exact", "mc", "kl", "lineage", "sql"} {
		req := queryRequest{Query: testQuery, Method: method, Top: 1, Samples: 2000, Seed: 7}
		resp, body := postJSON(t, ts.URL+"/v1/query", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("method %s: status %d: %s", method, resp.StatusCode, body)
		}
		var qr queryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if len(qr.Answers) != 1 {
			t.Fatalf("method %s: want top-1, got %d answers", method, len(qr.Answers))
		}
	}
}

func TestExplainHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/explain", explainRequest{Query: testQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er explainResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Safe {
		t.Fatal("3-chain query should be unsafe")
	}
	if len(er.Plans) == 0 || er.SinglePlan == "" {
		t.Fatalf("want plans and a single plan, got %+v", er)
	}
	if len(er.Dissociations) != len(er.Plans) {
		t.Fatalf("want one dissociation per plan, got %+v", er)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var h struct {
		Status      string `json:"status"`
		Relations   int    `json:"relations"`
		Tuples      int    `json:"tuples"`
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Relations != 3 || h.Tuples != 8 || h.Fingerprint == "" {
		t.Fatalf("unexpected health payload: %+v", h)
	}
}

func TestRelations(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getBody(t, ts.URL+"/v1/relations")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr struct {
		Relations []relationJSON `json:"relations"`
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Relations) != 3 {
		t.Fatalf("want 3 relations, got %+v", rr)
	}
	byName := map[string]relationJSON{}
	for _, r := range rr.Relations {
		byName[r.Name] = r
	}
	if l := byName["Likes"]; l.Tuples != 3 || len(l.Cols) != 2 {
		t.Fatalf("unexpected Likes info: %+v", l)
	}
}

func TestMalformedJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, out.Bytes())
	}
	if e := decodeErr(t, out.Bytes()); e.Code != "bad_json" {
		t.Fatalf("want code bad_json, got %+v", e)
	}
}

func TestUnknownRelation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/query", queryRequest{Query: "q(x) :- Nope(x)"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != "bad_query" || !strings.Contains(e.Message, "Nope") {
		t.Fatalf("want bad_query naming the relation, got %+v", e)
	}
}

// TestWideQueryIs400: a query with more variables than plan enumeration's
// 64-bit masks hold is a 400 bad_query, not a panic.
func TestWideQueryIs400(t *testing.T) {
	db := lapushdb.Open()
	cols, vars := make([]string, 65), make([]string, 65)
	for i := range cols {
		cols[i], vars[i] = fmt.Sprintf("c%d", i+1), fmt.Sprintf("x%d", i+1)
	}
	if _, err := db.CreateRelation("W", cols...); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("V", "c1"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db, Config{}))
	t.Cleanup(ts.Close)
	q := "q() :- W(" + strings.Join(vars, ", ") + "), V(x1)"
	resp, body := postJSON(t, ts.URL+"/v1/query", queryRequest{Query: q})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != "bad_query" || !strings.Contains(e.Message, "at most 64") {
		t.Fatalf("want bad_query naming the limit, got %+v", e)
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		req  queryRequest
		code string
	}{
		{queryRequest{Query: "   "}, "missing_query"},
		{queryRequest{Query: testQuery, Method: "bogus"}, "bad_method"},
		// The OBDD method was removed; exact inference is the DPLL kernel.
		{queryRequest{Query: testQuery, Method: "obdd"}, "bad_method"},
		{queryRequest{Query: testQuery, Top: -1}, "bad_top"},
		{queryRequest{Query: testQuery, Samples: -5}, "bad_samples"},
		{queryRequest{Query: testQuery, TimeoutMS: -1}, "bad_timeout"},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/query", c.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%+v: status %d, want 400: %s", c.req, resp.StatusCode, body)
		}
		if e := decodeErr(t, body); e.Code != c.code {
			t.Fatalf("%+v: want code %s, got %+v", c.req, c.code, e)
		}
	}
	// Unknown fields are rejected too.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"query": "q(x) :- Fan(x)", "bogus_field": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getBody(t, ts.URL+"/v1/query")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("want Allow: POST, got %q", resp.Header.Get("Allow"))
	}
}

func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	big := fmt.Sprintf(`{"query": %q}`, strings.Repeat("x", 200))
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, out.Bytes())
	}
	if e := decodeErr(t, out.Bytes()); e.Code != "body_too_large" {
		t.Fatalf("want code body_too_large, got %+v", e)
	}
}

// metricValue extracts a single sample value from the Prometheus text
// output.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

func TestPlanCacheHitVsMiss(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	scrape := func() string {
		_, body := getBody(t, ts.URL+"/metrics")
		return string(body)
	}

	m0 := scrape()
	hits0 := metricValue(t, m0, "lapushd_plan_cache_hits_total")
	misses0 := metricValue(t, m0, "lapushd_plan_cache_misses_total")

	// First query: miss.
	resp, body := postJSON(t, ts.URL+"/v1/query", queryRequest{Query: testQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	_ = json.Unmarshal(body, &qr)
	if qr.Cache != "miss" {
		t.Fatalf("first query: want cache miss, got %q", qr.Cache)
	}
	m1 := scrape()
	if got := metricValue(t, m1, "lapushd_plan_cache_misses_total"); got != misses0+1 {
		t.Fatalf("want misses %v, got %v", misses0+1, got)
	}

	// Same query again (whitespace variant normalizes identically): hit.
	variant := strings.ReplaceAll(testQuery, ", ", ",   ")
	resp, body = postJSON(t, ts.URL+"/v1/query", queryRequest{Query: variant})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	_ = json.Unmarshal(body, &qr)
	if qr.Cache != "hit" {
		t.Fatalf("repeated query: want cache hit, got %q", qr.Cache)
	}
	m2 := scrape()
	if got := metricValue(t, m2, "lapushd_plan_cache_hits_total"); got != hits0+1 {
		t.Fatalf("want hits %v, got %v", hits0+1, got)
	}
	if got := metricValue(t, m2, "lapushd_plan_cache_entries"); got < 1 {
		t.Fatalf("want at least 1 cache entry, got %v", got)
	}

	// A different method misses (its own key) without touching the first.
	resp, body = postJSON(t, ts.URL+"/v1/query", queryRequest{Query: testQuery, Method: "exact"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	_ = json.Unmarshal(body, &qr)
	if qr.Cache != "miss" {
		t.Fatalf("new method: want cache miss, got %q", qr.Cache)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 1})
	post := func(method string) {
		resp, body := postJSON(t, ts.URL+"/v1/query", queryRequest{Query: testQuery, Method: method, Samples: 100})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	post("diss")
	post("exact") // evicts the diss entry
	_, body := getBody(t, ts.URL+"/metrics")
	if got := metricValue(t, string(body), "lapushd_plan_cache_evictions_total"); got != 1 {
		t.Fatalf("want 1 eviction, got %v", got)
	}
	if got := metricValue(t, string(body), "lapushd_plan_cache_entries"); got != 1 {
		t.Fatalf("want 1 entry, got %v", got)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Monte Carlo with a huge sample budget polls the context every 1024
	// samples, so a 1ms deadline cancels it long before completion.
	req := queryRequest{Query: testQuery, Method: "mc", Samples: 10_000_000, TimeoutMS: 1}
	resp, body := postJSON(t, ts.URL+"/v1/query", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != "deadline_exceeded" {
		t.Fatalf("want code deadline_exceeded, got %+v", e)
	}
	_, mbody := getBody(t, ts.URL+"/metrics")
	if got := metricValue(t, string(mbody), "lapushd_queries_cancelled_total"); got < 1 {
		t.Fatalf("want cancellation counted, got %v", got)
	}
}

func TestConcurrentQueries(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	queries := []queryRequest{
		{Query: testQuery},
		{Query: testQuery, Method: "exact"},
		{Query: testQuery, Method: "mc", Samples: 1000, Seed: 1},
		{Query: testQuery, Method: "kl", Samples: 1000, Seed: 2},
		{Query: "q(movie) :- Likes(user, movie), Stars(movie, actor)"},
		{Query: "q(actor) :- Stars(movie, actor), Fan(actor)", Method: "lineage"},
		{Query: testQuery, Method: "sql"},
		{Query: testQuery, Top: 1},
	}
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(queries)*rounds)
	for r := 0; r < rounds; r++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q queryRequest) {
				defer wg.Done()
				buf, _ := json.Marshal(q)
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(buf))
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				var out bytes.Buffer
				_, _ = out.ReadFrom(resp.Body)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("query %q: status %d: %s", q.Query, resp.StatusCode, out.Bytes())
					return
				}
				var qr queryResponse
				if err := json.Unmarshal(out.Bytes(), &qr); err != nil {
					errs <- err
					return
				}
				if qr.Count == 0 {
					errs <- fmt.Errorf("query %q: no answers", q.Query)
				}
			}(q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// All in-flight gauges drained back to zero.
	_, mbody := getBody(t, ts.URL+"/metrics")
	if got := metricValue(t, string(mbody), `lapushd_in_flight_requests{endpoint="query"}`); got != 0 {
		t.Fatalf("want 0 in-flight after drain, got %v", got)
	}
}

func TestPanicRecovery(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.mux.HandleFunc("/boom", s.instrument("query", http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	resp, body := getBody(t, ts.URL+"/boom")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != "internal" {
		t.Fatalf("want code internal, got %+v", e)
	}
	_, mbody := getBody(t, ts.URL+"/metrics")
	if got := metricValue(t, string(mbody), "lapushd_panics_recovered_total"); got != 1 {
		t.Fatalf("want 1 recovered panic, got %v", got)
	}
}

func TestExplainUsesCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/explain", explainRequest{Query: testQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er explainResponse
	_ = json.Unmarshal(body, &er)
	if er.Cache != "miss" {
		t.Fatalf("first explain: want miss, got %q", er.Cache)
	}
	resp, body = postJSON(t, ts.URL+"/v1/explain", explainRequest{Query: testQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	_ = json.Unmarshal(body, &er)
	if er.Cache != "hit" {
		t.Fatalf("repeated explain: want hit, got %q", er.Cache)
	}
}
