package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lapushdb"
)

// fuzzDB is movieDB without the *testing.T plumbing, so the fuzz
// harness can build one database in setup.
func fuzzDB() *lapushdb.DB {
	db := lapushdb.Open()
	must := func(err error) {
		if err != nil {
			panic(err)
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
	must(stars.Insert(0.8, "heat", "deniro"))
	must(stars.Insert(0.3, "heat", "pacino"))
	must(fan.Insert(0.6, "deniro"))
	return db
}

// FuzzRankBatchRequest fuzzes the /v1/rank_batch request path end to
// end — JSON decoding, validation, evaluation, the result cache — and
// the result-cache key derivation. Two invariants:
//
//  1. no input makes the handler panic (instrument recovers panics and
//     counts them, so the recovered counter must not move); and
//  2. the cache key is injective over its inputs: deriving it for the
//     same request twice matches, and perturbing any single
//     result-affecting field (method, schema flag, samples, seed,
//     query, version fingerprint) changes the key — collisions happen
//     only for semantically equal requests.
func FuzzRankBatchRequest(f *testing.F) {
	f.Add(`{"queries":[{"query":"q(user) :- Likes(user, movie)"}]}`)
	f.Add(`{"queries":[{"query":"q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)","top":1},{"query":"q(a) :- Fan(a)"}],"method":"mc","samples":50,"seed":7}`)
	f.Add(`{"queries":[{"query":"q(a) :- Fan(a)"},{"query":"q(a) :- Fan(a)"}],"ignore_schema":true}`)
	f.Add(`{"queries":[]}`)
	f.Add(`{"queries":[{"query":""},{"query":"   "},{"query":"q(x :- broken("}]}`)
	f.Add(`{"queries":[{"query":"q(a) :- Fan(a)","top":-1}],"samples":-1,"timeout_ms":-1}`)
	f.Add(`[{"query":"not an object"}]`)
	f.Add(`{"queries":[{"query":"q() :- Likes(u, m)"}],"method":"exact","max_rows":10}`)
	f.Add("{\"queries\":[{\"query\":\"q(a) :- Fan(a)\\u0000\"}],\"method\":\"diss\\u0000x\"}")

	db := fuzzDB()
	// Small limits bound the work one fuzz input can demand: few
	// queries, small bodies, and a tight deadline ceiling.
	s := New(db, Config{
		MaxBatchQueries: 4,
		MaxBodyBytes:    4096,
		DefaultTimeout:  200 * time.Millisecond,
		MaxTimeout:      200 * time.Millisecond,
	})

	f.Fuzz(func(t *testing.T, body string) {
		before := s.metrics.panicsRecovered.Load()
		r := httptest.NewRequest(http.MethodPost, "/v1/rank_batch", strings.NewReader(body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if got := s.metrics.panicsRecovered.Load(); got != before {
			t.Fatalf("handler panicked on body %q", body)
		}
		if w.Code == 0 {
			t.Fatalf("no status written for body %q", body)
		}

		// Key derivation invariants, on whatever decodes as a request.
		var req batchRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			return
		}
		for _, bq := range req.Queries {
			normalized, err := db.NormalizeQuery(bq.Query)
			if err != nil {
				continue
			}
			key := resultCacheKey("fp1", req.Method, normalized, req.IgnoreSchema, req.Samples, req.Seed)
			if again := resultCacheKey("fp1", req.Method, normalized, req.IgnoreSchema, req.Samples, req.Seed); again != key {
				t.Fatalf("key derivation not deterministic: %q vs %q", key, again)
			}
			perturbed := []string{
				resultCacheKey("fp2", req.Method, normalized, req.IgnoreSchema, req.Samples, req.Seed),
				resultCacheKey("fp1", req.Method+"x", normalized, req.IgnoreSchema, req.Samples, req.Seed),
				resultCacheKey("fp1", req.Method, normalized+", Fan(zz)", req.IgnoreSchema, req.Samples, req.Seed),
				resultCacheKey("fp1", req.Method, normalized, !req.IgnoreSchema, req.Samples, req.Seed),
				resultCacheKey("fp1", req.Method, normalized, req.IgnoreSchema, req.Samples+1, req.Seed),
				resultCacheKey("fp1", req.Method, normalized, req.IgnoreSchema, req.Samples, req.Seed+1),
			}
			for i, p := range perturbed {
				if p == key {
					t.Fatalf("perturbation %d collided with original key %q (body %q)", i, key, body)
				}
			}
		}
	})
}

// FuzzAnytimeRequest fuzzes the /v1/query anytime path: arbitrary
// bodies — epsilon variants included — must never panic the handler,
// and every 200 response that carries intervals must carry well-formed
// ones: 0 <= lower <= upper <= 1, score echoing the upper bound, and a
// non-negative width no wider than 1.
func FuzzAnytimeRequest(f *testing.F) {
	f.Add(`{"query":"q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)","epsilon":0.1}`)
	f.Add(`{"query":"q(a) :- Fan(a)","epsilon":0}`)
	f.Add(`{"query":"q(a) :- Fan(a)","epsilon":0.5,"samples":10,"seed":3,"top":1}`)
	f.Add(`{"query":"q(a) :- Fan(a)","epsilon":1}`)
	f.Add(`{"query":"q(a) :- Fan(a)","epsilon":-1}`)
	f.Add(`{"query":"q(a) :- Fan(a)","epsilon":null}`)
	f.Add(`{"query":"q(a) :- Fan(a)","epsilon":"0.1"}`)
	f.Add(`{"query":"q(a) :- Fan(a)","epsilon":1e308}`)
	f.Add(`{"query":"q(a) :- Fan(a)","epsilon":0.2,"method":"mc"}`)
	f.Add(`{"query":"q(a) :- Fan(a)","epsilon":0.2,"max_rows":1,"timeout_ms":1}`)
	f.Add(`{"query":"q(x :- broken(","epsilon":0.3}`)

	db := fuzzDB()
	s := New(db, Config{
		MaxBodyBytes:   4096,
		DefaultTimeout: 200 * time.Millisecond,
		MaxTimeout:     200 * time.Millisecond,
	})

	f.Fuzz(func(t *testing.T, body string) {
		before := s.metrics.panicsRecovered.Load()
		r := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if got := s.metrics.panicsRecovered.Load(); got != before {
			t.Fatalf("handler panicked on body %q", body)
		}
		if w.Code != http.StatusOK {
			return
		}
		var qr queryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &qr); err != nil {
			t.Fatalf("200 response is not valid JSON for body %q: %v", body, err)
		}
		for i, a := range qr.Answers {
			if a.Interval == nil {
				continue
			}
			iv := a.Interval
			if iv.Lower < 0 || iv.Upper > 1 || iv.Lower > iv.Upper {
				t.Fatalf("malformed interval [%g, %g] at answer %d (body %q)", iv.Lower, iv.Upper, i, body)
			}
			if a.Score != iv.Upper {
				t.Fatalf("score %g != upper %g at answer %d (body %q)", a.Score, iv.Upper, i, body)
			}
		}
		if qr.Width != nil && (*qr.Width < 0 || *qr.Width > 1) {
			t.Fatalf("width %g out of range (body %q)", *qr.Width, body)
		}
	})
}
