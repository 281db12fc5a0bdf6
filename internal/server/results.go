package server

import (
	"slices"
	"strconv"
	"strings"
	"sync"

	"lapushdb"
)

// Result cache. A cachedResult is one query's fully evaluated, ranked
// answer list against one store version. Entries are immutable: the
// answers slice is never mutated after insertion, and per-request "top"
// truncation slices a view instead of copying; only the answers' JSON
// encoding grows, each time replaced whole. Because the cache key
// starts with the pinned version's fingerprint — which changes on every
// ingested mutation batch — ingestion invalidates the whole cache
// naturally, with stale entries aging out of the LRU.
type cachedResult struct {
	answers []answerJSON
	safe    bool

	// Anytime entries are tagged with the width they achieved: a
	// request with epsilon >= width is a hit (its target is already
	// met), a tighter request re-refines instead of being served a
	// stale loose interval, and shed/deadline fallbacks may serve any
	// width as a degraded 200.
	anytime bool
	width   float64

	// enc is the JSON encoding of answers[:len(ends)], and ends[i] the
	// end offset of answer i in it. answerBytes extends them on demand
	// under mu by replacing both, never by writing into them, so bytes a
	// reader holds never change.
	mu   sync.Mutex
	enc  []byte
	ends []int
}

// top returns the first n answers (all of them when n <= 0). The
// returned slice aliases the cached one; callers must not modify it.
func (c *cachedResult) top(n int) []answerJSON {
	if n > 0 && n < len(c.answers) {
		return c.answers[:n]
	}
	return c.answers
}

// answerBytes returns the encoding of the first n answers as elements of
// a JSON array, encoding those no earlier call has: no answer of an
// entry is encoded twice, and a request that serves ten of four hundred
// encodes ten. The bytes alias the entry; callers must not modify them.
// Only an entry's plain answers are served this way — an anytime
// response recomputes convergence against its own epsilon.
func (c *cachedResult) answerBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.ends) < n {
		// Encode in a pooled buffer and keep an exact-size copy: the entry
		// allocates its bytes once instead of growing them by append.
		j := getJSONBuf()
		j.b, j.ends = append(j.b, c.enc...), append(j.ends, c.ends...)
		j.encodeAnswers(c.answers, n)
		c.enc, c.ends = slices.Clone(j.b), slices.Clone(j.ends)
		putJSONBuf(j)
	}
	return c.enc[:c.ends[n-1]]
}

// encodeAnswers appends answers[len(j.ends):n] — those j has not encoded
// yet, up to n — to j as comma-separated array elements, recording where
// each ends. Each is encoded by encoding/json exactly as writeJSON
// encodes an answer inside a response.
func (j *jsonBuf) encodeAnswers(answers []answerJSON, n int) {
	for i := len(j.ends); i < n; i++ {
		if i > 0 {
			j.b = append(j.b, ',')
		}
		j.encode(&answers[i])
		j.ends = append(j.ends, len(j.b))
	}
}

// anytimeTop renders the first n interval answers with per-answer
// convergence recomputed against the requesting epsilon (the cached
// flags reflect the epsilon the entry was refined for, which may
// differ). Returns the answers and whether all of the entry's answers —
// served or not — converged. Only the served answers are copied.
func (c *cachedResult) anytimeTop(n int, eps float64) ([]answerJSON, bool) {
	all := true
	for _, a := range c.answers {
		if a.Interval != nil && a.Interval.Upper-a.Interval.Lower > eps {
			all = false
			break
		}
	}
	src := c.top(n)
	out := make([]answerJSON, len(src))
	for i, a := range src {
		out[i] = a
		if a.Interval != nil {
			iv := *a.Interval
			iv.Converged = iv.Upper-iv.Lower <= eps
			out[i].Interval = &iv
		}
	}
	return out, all
}

// resultCacheKey derives the result-cache key for one query: the pinned
// version's fingerprint, the method, every request knob that can change
// the answer bytes (schema use, sample count, sampler seed), and the
// normalized query. Fields are joined with NUL — which cannot appear in
// a method name, a formatted integer, or a normalized query — so two
// requests collide exactly when they are semantically equal: same
// version, same method and options, same query up to the parser's
// canonicalization. "top" is deliberately absent (the cache holds the
// full answer list; truncation happens per request).
func resultCacheKey(fingerprint, method, normalized string, ignoreSchema bool, samples int, seed int64) string {
	flag := "s"
	if ignoreSchema {
		flag = "n"
	}
	var b strings.Builder
	b.Grow(len(fingerprint) + len(method) + len(normalized) + 32)
	b.WriteString(fingerprint)
	b.WriteByte(0)
	b.WriteString(method)
	b.WriteByte(0)
	b.WriteString(flag)
	b.WriteByte(0)
	b.WriteString(strconv.Itoa(samples))
	b.WriteByte(0)
	b.WriteString(strconv.FormatInt(seed, 10))
	b.WriteByte(0)
	b.WriteString(normalized)
	return b.String()
}

// toAnswerJSON converts ranked answers to their JSON form once, for
// both the response and the cache entry.
func toAnswerJSON(answers []lapushdb.Answer) []answerJSON {
	out := make([]answerJSON, len(answers))
	for i, a := range answers {
		out[i] = answerJSON{Values: a.Values, Score: a.Score}
	}
	return out
}

// anytimeEntry builds the width-tagged cache entry for one anytime
// result. The score slot carries the upper bound — the same guaranteed
// bound the dissociation method ranks by.
func anytimeEntry(res *lapushdb.AnytimeResult, safe bool) *cachedResult {
	answers := make([]answerJSON, len(res.Answers))
	for i, a := range res.Answers {
		answers[i] = answerJSON{
			Values:   a.Values,
			Score:    a.Upper,
			Interval: &intervalJSON{Lower: a.Lower, Upper: a.Upper, Converged: a.Converged, LowerKind: a.LowerKind},
		}
	}
	return &cachedResult{answers: answers, safe: safe, anytime: true, width: res.Width}
}

// putTighter inserts an anytime entry unless the cache already holds a
// tighter one for the key: a degraded wide interval must not overwrite
// the converged narrow interval another request just paid for. The
// width comparison and the insert run atomically inside the cache lock
// (putIf), so two concurrent evaluations of the same key cannot
// interleave and lose the tighter result.
func (s *Server) putTighter(key string, entry *cachedResult) {
	s.results.putIf(key, entry, func(old *cachedResult) bool {
		return old.anytime && old.width <= entry.width
	})
}
