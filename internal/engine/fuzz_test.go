package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
)

// encodeResult serializes a Result — columns, rows in order, and the
// raw float64 bits of every score — so two results are byte-identical
// iff they satisfy the executor bit-identity contract.
func encodeResult(r *Result) []byte {
	buf := make([]byte, 0, 64+r.Len()*16)
	for _, c := range r.Cols {
		buf = append(buf, c...)
		buf = append(buf, 0)
	}
	for i := 0; i < r.Len(); i++ {
		for _, v := range r.Row(i) {
			buf = appendValue(buf, v)
		}
		bits := math.Float64bits(r.Score(i))
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(bits>>s))
		}
	}
	return buf
}

// likeOracle is a naive byte-wise recursive LIKE matcher — obviously
// correct, the reference implementation for the fuzzer. The recursion is
// memoized on the two suffix lengths: unmemoized, a run of % signs
// (the patterns a segment matcher most needs fuzzing on) is exponential.
func likeOracle(pattern, s string) bool {
	memo := map[[2]int]bool{}
	var rec func(pattern, s string) bool
	rec = func(pattern, s string) bool {
		if pattern == "" {
			return s == ""
		}
		k := [2]int{len(pattern), len(s)}
		if v, ok := memo[k]; ok {
			return v
		}
		var v bool
		switch pattern[0] {
		case '%':
			v = rec(pattern[1:], s) || (s != "" && rec(pattern, s[1:]))
		case '_':
			v = s != "" && rec(pattern[1:], s[1:])
		default:
			v = s != "" && s[0] == pattern[0] && rec(pattern[1:], s[1:])
		}
		memo[k] = v
		return v
	}
	return rec(pattern, s)
}

// likeSegmentCases are the inputs a %-segment matcher can get wrong:
// segments that may not share bytes, anchors that overlap, runs of %,
// empty pattern or string, _ inside a segment, and _ against the bytes
// of a multi-byte rune (LIKE here is byte-wise, as the oracle is).
// TestLikeMatch checks each against likeOracle; FuzzLikeMatch starts
// from them.
var likeSegmentCases = []struct{ pat, s string }{
	{"%aa%aa%", "aaa"}, {"%aa%aa%", "aaaa"}, {"%ab%ba%", "aba"}, {"%ab%ba%", "abba"},
	{"ab%ab", "ab"}, {"ab%ab", "abab"}, {"ab%ab", "abxab"}, {"aba%aba", "ababa"}, {"a%a", "a"}, {"a%a", "aa"},
	{"%%", ""}, {"%%", "x"}, {"a%%b", "ab"}, {"a%%%b", "axb"}, {"%%a", "ba"}, {"a%%", "ab"},
	{"", ""}, {"", "a"}, {"%", ""}, {"_", ""}, {"a", ""}, {"%a%", ""}, {"_%", ""},
	{"%a_c%", "xxabcxx"}, {"%a_c%", "ac"}, {"%a_c%a_c%", "abcabc"}, {"%a_c%a_c%", "abcbc"},
	{"_b%", "ab"}, {"%b_", "abc"}, {"%_", "a"}, {"_%_", "a"}, {"%a_", "aab"}, {"%_a%", "a"}, {"%_a%", "ba"},
	{"%_a_%", "aaa"}, {"__", "a"}, {"a_", "ab"}, {"a_", "abc"},
	{"caf_", "caf\u00e9"}, {"caf__", "caf\u00e9"}, {"%\u00e9%", "caf\u00e9 noir"}, {"_", "\u00e9"}, {"__", "\u00e9"},
	{"%\xa9%", "caf\u00e9"}, {"\xc3%", "\u00e9"}, {"%\xc3_", "\u00e9"}, {"%\u65e5%\u8a9e", "\u65e5\u672c\u8a9e"},
}

// FuzzLikeMatch compares the compiled segment matcher against the
// recursive oracle on arbitrary pattern/string pairs.
func FuzzLikeMatch(f *testing.F) {
	seeds := [][2]string{
		{"%red%", "dark red metallic"},
		{"%red%green%", "red green"},
		{"a_c", "abc"},
		{"%", ""},
		{"", ""},
		{"%%a%%", "bab"},
		{"_%_", "xy"},
		{"%aa%", "aXa"},
	}
	for _, c := range likeSegmentCases {
		seeds = append(seeds, [2]string{c.pat, c.s})
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, pattern, s string) {
		if len(pattern) > 64 || len(s) > 256 {
			return // keep the oracle cheap
		}
		got := compileLike(pattern).match(s)
		want := likeOracle(pattern, s)
		if got != want {
			t.Fatalf("compileLike(%q).match(%q) = %v, oracle = %v", pattern, s, got, want)
		}
	})
}

// FuzzMorselDifferential fuzzes the executors against each other: for
// any parseable query and any random instance, the columnar streaming
// executor must byte-identically match the retained row-at-a-time
// oracle, and both executors must fail with the same typed error
// (ErrBudget, context cancellation) on the same inputs.
func FuzzMorselDifferential(f *testing.F) {
	type seed struct {
		query string
		seed  int64
		rows  uint16
	}
	seeds := []seed{
		{"q() :- R1(x0, x1), R2(x1, x2), R3(x2, x3)", 1, 200}, // unsafe 3-chain (paper Fig. 2)
		{"q(z) :- R(z, x), S(x, y), T(y)", 2, 150},
		{"q() :- R(x), S(y), T(x, y)", 3, 100}, // unsafe 2-star
		{"q(w) :- R(w, x), S(x), T(x, y), U(y)", 4, 120},
		{"q() :- R(x), S(x, y)", 5, 80}, // safe: exact either way
		{"q() :- R(x), S(x), T(x, y), U(y)", 6, 300},
		{"q(x1) :- R0(x1, x2, x3), R1(x1), R2(x2), R3(x3)", 7, 250}, // 3-star with head var
		{"q() :- A(x), B(y), M(x, y)", 8, 400},
		// Either side of the fused π(⋈)'s direct-addressed grouping rule
		// (stream.go; TestDirectGroupingOracleDifferential pins its edges):
		// seed 2 addresses the groups of both queries directly, seed 1
		// hashes them, as it does a key split 2 + 1.
		{"q(x, z) :- R(x, y), S(y, z)", 2, 511},
		{"q(x, z) :- R(x, y), S(y, z)", 1, 511},
		{"q(x0, x3) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)", 2, 511},
		{"q(x, w, z) :- R(x, w, y), S(y, z)", 1, 500},
	}
	for _, s := range seeds {
		f.Add(s.query, s.seed, s.rows)
	}
	f.Fuzz(func(t *testing.T, query string, seed int64, rows uint16) {
		q, err := cq.Parse(query)
		if err != nil {
			return
		}
		if len(q.Atoms) > 4 || len(q.EVars()) > 6 {
			return // keep plan enumeration bounded
		}
		names := map[string]bool{}
		for _, a := range q.Atoms {
			if len(a.Args) > 3 || names[a.Rel] {
				return // randomDB cannot build self-joins or wide relations
			}
			names[a.Rel] = true
		}
		plans := core.MinimalPlans(q, nil)
		if len(plans) == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(q, 16, int(rows%512)+1, 0.9, rng)
		for _, opts := range []Options{{}, {ReuseSubplans: true, SemiJoin: true}} {
			refEnc := encodeResult(EvalPlansCtx(nil, db, q, plans, opts))
			// Columnar executor vs the row-at-a-time oracle:
			// byte-identical encodings.
			if string(encodeResult(EvalPlansOracle(nil, db, q, plans, opts))) != string(refEnc) {
				t.Fatalf("oracle encoding differs from executor")
			}
			// The reduction itself is one more input: it equals the all-pairs
			// reference, and evaluating with it precomputed changes no bit.
			if opts.SemiJoin {
				red := SemiJoinReduceCtx(nil, db, q)
				if !reflect.DeepEqual(red, semiJoinReduceRef(db, q, nil)) {
					t.Fatalf("semi-join reduction differs from the reference")
				}
				rOpts := opts
				rOpts.Reduced = red
				if string(encodeResult(EvalPlansCtx(nil, db, q, plans, rOpts))) != string(refEnc) {
					t.Fatalf("precomputed reduction: encoding differs")
				}
			}
			// Typed-error parity under a row budget: both executors charge
			// identical totals, so they must trip (or not) together, with
			// the same typed error.
			budget := int(rows%64) + 1
			bOpts := opts
			bOpts.MaxIntermediateRows = budget
			errNew := TrapCancel(func() { EvalPlansCtx(nil, db, q, plans, bOpts) })
			errOrc := TrapCancel(func() { EvalPlansOracle(nil, db, q, plans, bOpts) })
			if errors.Is(errNew, ErrBudget) != errors.Is(errOrc, ErrBudget) || (errNew == nil) != (errOrc == nil) {
				t.Fatalf("budget=%d: executor err %v, oracle err %v", budget, errNew, errOrc)
			}
			// Typed-error parity under cancellation: a pre-cancelled context
			// fails both executors with context.Canceled.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			errNew = TrapCancel(func() { EvalPlansCtx(ctx, db, q, plans, opts) })
			errOrc = TrapCancel(func() { EvalPlansOracle(ctx, db, q, plans, opts) })
			if !errors.Is(errNew, context.Canceled) || !errors.Is(errOrc, context.Canceled) {
				t.Fatalf("cancelled ctx: executor err %v, oracle err %v", errNew, errOrc)
			}
		}
	})
}

// pollCancelCtx cancels itself on its after-th Err call: the evaluator's
// own cancellation poll is the event that triggers the cancel, so the
// context turns done at a known point inside the run.
type pollCancelCtx struct {
	context.Context
	cancel context.CancelFunc
	after  int
	polls  int
}

func (c *pollCancelCtx) Err() error {
	c.polls++
	if c.polls == c.after {
		c.cancel()
	}
	return c.Context.Err()
}

// TestSemiJoinReduceCancel is the large-input counterpart of the
// pre-cancelled case above for the reduction alone: on a 120 000-row
// relation SemiJoinReduceCtx unwinds with context.Canceled both when
// the context is done on entry and when it turns done between two of
// the reduction's own polls, and each block of cancelCheckInterval rows
// is polled at least once.
func TestSemiJoinReduceCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 151 500-row instance")
	}
	db := tpchBench()
	q := tpchShapeQuery(1500, "%")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := TrapCancel(func() { SemiJoinReduceCtx(ctx, db, q) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
	// Unconstrained, every row of the three relations is live and every
	// edge's two passes poll once per block; a full run therefore polls
	// well over rows/cancelCheckInterval times.
	count := &pollCancelCtx{Context: context.Background(), cancel: func() {}}
	if err := TrapCancel(func() { SemiJoinReduceCtx(count, db, q) }); err != nil {
		t.Fatalf("uncancelled run: %v", err)
	}
	rows := 0
	for _, r := range db.Relations() {
		rows += r.Len()
	}
	if floor := rows / cancelCheckInterval; count.polls < floor {
		t.Fatalf("a full run polled %d times, want at least %d", count.polls, floor)
	}
	for _, after := range []int{1, 2, count.polls / 2, count.polls} {
		inner, cancel := context.WithCancel(context.Background())
		pc := &pollCancelCtx{Context: inner, cancel: cancel, after: after}
		err := TrapCancel(func() { SemiJoinReduceCtx(pc, db, q) })
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at poll %d of %d: err = %v, want context.Canceled", after, count.polls, err)
		}
		if pc.polls != after {
			t.Fatalf("cancelled at poll %d: the run went on to poll %d times", after, pc.polls)
		}
	}
}

// TestFusedJoinPollsPerMatch: a probe row's match span counts toward the
// cancellation poll interval row by row, so a join whose every probe row
// matches many build rows still polls at least once per
// cancelCheckInterval join rows. q(x, z) :- R(x, y), S(y, z) over 600 ×
// 600 rows on one join key makes 360 000 join rows from 1 200 input rows,
// streamed through the fused π(⋈) and, joined alone, materialized by
// join's second pass.
func TestFusedJoinPollsPerMatch(t *testing.T) {
	const n = 600
	db := NewDB()
	R := db.CreateRelation("R", []string{"x", "y"})
	S := db.CreateRelation("S", []string{"y", "z"})
	var rRows, sRows [][]Value
	var scores []float64
	for i := 0; i < n; i++ {
		R.Insert([]Value{Value(i), 0}, 0.5)
		S.Insert([]Value{0, Value(n + i)}, 0.5)
		rRows = append(rRows, []Value{Value(i), 0})
		sRows = append(sRows, []Value{0, Value(n + i)})
		scores = append(scores, 0.5)
	}
	q := cq.MustParse("q(x, z) :- R(x, y), S(y, z)")
	plans := core.MinimalPlans(q, nil)
	floor := n * n / cancelCheckInterval
	count := &pollCancelCtx{Context: context.Background(), cancel: func() {}}
	var res *Result
	if err := TrapCancel(func() { res = EvalPlansCtx(count, db, q, plans, Options{}) }); err != nil {
		t.Fatalf("uncancelled run: %v", err)
	}
	if res.Len() != n*n {
		t.Fatalf("%d answers, want %d", res.Len(), n*n)
	}
	if count.polls < floor {
		t.Fatalf("the fused π(⋈) polled %d times over %d join rows, want at least %d", count.polls, n*n, floor)
	}
	for _, after := range []int{floor / 2, floor} {
		inner, cancel := context.WithCancel(context.Background())
		pc := &pollCancelCtx{Context: inner, cancel: cancel, after: after}
		err := TrapCancel(func() { EvalPlansCtx(pc, db, q, plans, Options{}) })
		cancel()
		if !errors.Is(err, context.Canceled) || pc.polls != after {
			t.Fatalf("cancelled at poll %d: err = %v after %d polls, want context.Canceled at once", after, err, pc.polls)
		}
	}

	l := resultOf([]cq.Var{"x", "y"}, rRows, scores)
	r := resultOf([]cq.Var{"y", "z"}, sRows, scores)
	count = &pollCancelCtx{Context: context.Background(), cancel: func() {}}
	if j := join(l, r, &exec{c: &canceller{ctx: count}}); j.Len() != n*n {
		t.Fatalf("join has %d rows, want %d", j.Len(), n*n)
	}
	if count.polls < floor {
		t.Fatalf("join polled %d times over %d join rows, want at least %d", count.polls, n*n, floor)
	}
}
