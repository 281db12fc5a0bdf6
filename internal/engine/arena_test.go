package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/plan"
)

// arenaCase is one query over its own random database: the shapes whose
// plans exercise every operator that takes arena scratch — scans with
// and without predicates, materialized and fused joins, projections,
// min folds over several minimal plans.
type arenaCase struct {
	db     *DB
	q      *cq.Query
	plans  []plan.Node
	single plan.Node
}

func arenaCases() []arenaCase {
	rng := rand.New(rand.NewSource(41))
	var out []arenaCase
	for _, qs := range []string{
		"q(x0, x3) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)",
		"q(w) :- R(w, x), S(x), T(x, y), U(y)",
		"q() :- R(x), S(x, y), T(y)",
		"q(x) :- R(x, y), S(y, z), T(z, u), y <= 20",
	} {
		q := cq.MustParse(qs)
		db := randomDB(q, 40, 600, 0.9, rng)
		out = append(out, arenaCase{db, q, core.MinimalPlans(q, nil), core.SinglePlan(q, nil)})
	}
	return out
}

// arenaOptions are the option sets whose release paths differ: with Opt2
// the cache holds every node's result until the plan is done, without it
// each child goes back as soon as its parent has read it; with Opt3 the
// evaluator owns its reduction.
var arenaOptions = []Options{
	{ReuseSubplans: true, SemiJoin: true},
	{ReuseSubplans: true},
	{SemiJoin: true},
	{},
}

// churn evaluates every case under every option set, so the arenas the
// pool hands out are reused and rewritten.
func churn(cases []arenaCase) {
	for _, c := range cases {
		for _, o := range arenaOptions {
			EvalPlansCtx(nil, c.db, c.q, c.plans, o)
			e := NewEvaluatorCtx(nil, c.db, c.q, o)
			e.Eval(c.single)
			e.Release()
		}
		EvalDeterministicCtx(nil, c.db, c.q)
	}
}

// TestResultOutlivesArena: a Result that leaves the engine owns its
// columns. The results of EvalPlansCtx, of Deterministic, and of the
// anytime plan round's pattern (a shared reduction, one evaluator per
// plan, released after Eval) are bit-identical to the heap-allocating
// reference after later evaluations on the same goroutine have reused
// the arenas their evaluators released.
func TestResultOutlivesArena(t *testing.T) {
	cases := arenaCases()
	for ci, c := range cases {
		for _, o := range arenaOptions {
			plansRes := EvalPlansCtx(nil, c.db, c.q, c.plans, o)
			detRes := EvalDeterministicCtx(nil, c.db, c.q)
			reduced := SemiJoinReduceCtx(nil, c.db, c.q)
			ro := Options{ReuseSubplans: o.ReuseSubplans, Reduced: reduced}
			e := NewEvaluatorCtx(nil, c.db, c.q, ro)
			roundRes := e.Eval(c.single)
			e.Release()
			churn(cases)

			if got, want := encodeResult(plansRes), encodeResult(EvalPlansOracle(nil, c.db, c.q, c.plans, o)); !bytes.Equal(got, want) {
				t.Errorf("case %d %+v: EvalPlansCtx result changed after later evaluations", ci, o)
			}
			ref := newEvaluator(nil, c.db, nil, Options{ReuseSubplans: true}, nil).Deterministic(c.q)
			if !bytes.Equal(encodeResult(detRes), encodeResult(ref)) {
				t.Errorf("case %d: Deterministic result changed after later evaluations", ci)
			}
			want := EvalPlansOracle(nil, c.db, c.q, []plan.Node{c.single}, ro)
			if !bytes.Equal(encodeResult(roundRes), encodeResult(want)) {
				t.Errorf("case %d %+v: plan round result changed after later evaluations", ci, o)
			}
		}
	}
}

// TestBatchMemoResultOutlivesArena: a step's result held by a
// BatchMemo is never given back to its evaluator's arena. Two queries
// that share their R1 and R2 scans run on one memo; between them an
// unrelated evaluation reuses the arena the first one released. The
// second query, served those scans from the memo, and the first query's
// result both keep the bits of a standalone evaluation. Under -race a
// memo entry given back would be poisoned, and the second query would
// read it.
func TestBatchMemoResultOutlivesArena(t *testing.T) {
	cases := arenaCases()
	c := cases[0]
	q2 := cq.MustParse("q(x0, x2) :- R1(x0, x1), R2(x1, x2)")
	plans2 := core.MinimalPlans(q2, nil)
	for _, o := range []Options{{ReuseSubplans: true}, {}} {
		want1 := encodeResult(EvalPlansOracle(nil, c.db, c.q, c.plans, o))
		want2 := encodeResult(EvalPlansOracle(nil, c.db, q2, plans2, o))
		m := NewBatchMemo("test", 0)
		mo := o
		mo.Memo = m
		got1 := EvalPlansCtx(nil, c.db, c.q, c.plans, mo)
		churn(cases)
		got2 := EvalPlansCtx(nil, c.db, q2, plans2, mo)
		churn(cases)
		if m.SharedHits() == 0 {
			t.Fatalf("%+v: the two queries shared no subplan", o)
		}
		if !bytes.Equal(encodeResult(got1), want1) {
			t.Errorf("%+v: the first query's result changed after later evaluations", o)
		}
		if !bytes.Equal(encodeResult(got2), want2) {
			t.Errorf("%+v: the second query, served from the memo, differs from a standalone evaluation", o)
		}
	}
}

// TestArenaConcurrentEvaluations runs evaluations of different queries
// on several goroutines at once, each drawing arenas from the one pool:
// every result matches the bits of the same evaluation run alone. Under
// -race it also checks that no two evaluations share a buffer.
func TestArenaConcurrentEvaluations(t *testing.T) {
	cases := arenaCases()
	o := Options{ReuseSubplans: true, SemiJoin: true}
	serial := make([][]byte, len(cases))
	for i, c := range cases {
		serial[i] = encodeResult(EvalPlansOracle(nil, c.db, c.q, []plan.Node{c.single}, o))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				ci := (g + i) % len(cases)
				c := cases[ci]
				e := NewEvaluatorCtx(nil, c.db, c.q, o)
				got := encodeResult(e.Eval(c.single))
				e.Release()
				if !bytes.Equal(got, serial[ci]) {
					t.Errorf("goroutine %d, case %d: concurrent result differs from the serial one", g, ci)
				}
				EvalDeterministicCtx(nil, c.db, c.q)
			}
		}(g)
	}
	wg.Wait()
}

// TestArenaAfterUnwind: an evaluation that unwinds — on its row budget
// or on a cancellation, at many points inside its operators — leaves the
// pooled arena fit for the next one, which matches a fresh evaluation's
// bits.
func TestArenaAfterUnwind(t *testing.T) {
	cases := arenaCases()
	for ci, c := range cases {
		for _, o := range arenaOptions {
			want := encodeResult(EvalPlansOracle(nil, c.db, c.q, c.plans, o))
			check := func(label string) {
				t.Helper()
				if got := encodeResult(EvalPlansCtx(nil, c.db, c.q, c.plans, o)); !bytes.Equal(got, want) {
					t.Fatalf("case %d %+v: evaluation after %s differs from a fresh one", ci, o, label)
				}
			}
			unwound := 0
			for _, limit := range []int{1, 50, 300, 1000, 3000} {
				bo := o
				bo.MaxIntermediateRows = limit
				err := TrapCancel(func() { EvalPlansCtx(nil, c.db, c.q, c.plans, bo) })
				if err == nil {
					continue
				}
				if !errors.Is(err, ErrBudget) {
					t.Fatalf("case %d: budget %d: err = %v", ci, limit, err)
				}
				unwound++
				check("a budget unwind")
			}
			count := &pollCancelCtx{Context: context.Background(), cancel: func() {}}
			EvalPlansCtx(count, c.db, c.q, c.plans, o)
			for _, after := range []int{1, 2, 3, count.polls / 3, count.polls / 2, count.polls - 1} {
				if after < 1 || after >= count.polls {
					continue
				}
				inner, cancel := context.WithCancel(context.Background())
				pc := &pollCancelCtx{Context: inner, cancel: cancel, after: after}
				err := TrapCancel(func() { EvalPlansCtx(pc, c.db, c.q, c.plans, o) })
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("case %d: cancelled at poll %d of %d: err = %v", ci, after, count.polls, err)
				}
				unwound++
				check("a cancellation")
			}
			if unwound == 0 {
				t.Fatalf("case %d %+v: no evaluation unwound", ci, o)
			}
		}
	}
}

// TestWarmEvalAllocGate: a warm evaluation allocates at most 10% of a
// cold one's bytes. With the arena pool emptied, a first EvalPlansCtx on
// the chain gate's instance allocates its scratch (25 367 368 B
// measured); the second takes it back from the pool and allocates only
// what leaves with its result — the 142 645 answers' columns — and the
// headers (2 301 456 B measured). The executor without an arena
// allocated 63 293 520 B on every evaluation.
//
// The rotation case evaluates 32 selections of the mixed_rw chain in
// turn, each on its own evaluator as the façade runs a request, and
// reads the third pass: 16 437 B per evaluation measured, pinned plus
// 10%. Every evaluation works from the arena the one before released,
// so a buffer that went back with less capacity than it was taken with
// would be made again by the next: a reserve that clamped a grown
// column's capacity to what it asked for measured 40 019 B here.
func TestWarmEvalAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	if testing.Short() {
		t.Skip("alloc gate skipped in -short")
	}
	const rotationByteCeiling = 18_081
	db, q := chainGateDB()
	plans := core.MinimalPlans(q, nil)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// A pooled arena survives one collection in the pool's victim cache,
	// so two empty the pool.
	runtime.GC()
	runtime.GC()
	measure := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		EvalPlansCtx(nil, db, q, plans, Options{})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	cold := measure()
	warm := measure()
	t.Logf("chain3: cold evaluation %d B, warm %d B (%.1f%%)", cold, warm, 100*float64(warm)/float64(cold))
	if warm*10 > cold {
		t.Errorf("a warm evaluation allocates %d B, over 10%% of the cold one's %d B", warm, cold)
	}

	db, q = endsChainGateDB()
	var rotation []*cq.Query
	var single []plan.Node
	for _, a := range []int{599, 450, 300, 520, 150, 380, 75, 560} {
		for _, b := range []int{0, 100, 250, 40} {
			rq := cq.MustParse(fmt.Sprintf("%s, x1 <= %d, x2 >= %d", q, a, b))
			rotation = append(rotation, rq)
			single = append(single, core.SinglePlan(rq, nil))
		}
	}
	pass := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, rq := range rotation {
			e := NewEvaluatorCtx(nil, db, rq, Options{SemiJoin: true, ReuseSubplans: true})
			e.Eval(single[i])
			e.Release()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(len(rotation))
	}
	pass()
	pass()
	perEval := pass()
	t.Logf("chain3-ends rotation: %d B per warm evaluation (ceiling %d)", perEval, rotationByteCeiling)
	if perEval > rotationByteCeiling {
		t.Errorf("a warm evaluation in rotation allocates %d B, over the pinned %d B ceiling", perEval, rotationByteCeiling)
	}
}

// TestArenaTakeGive pins the free lists' contract: a buffer given back
// is handed out again for any length its class serves and its capacity
// holds, a zeroing take clears it, a Result column grown by reserveRows
// goes back with the capacity it was taken with, and a nil arena
// allocates and keeps nothing.
func TestArenaTakeGive(t *testing.T) {
	a := new(arena)
	s := a.int32s(300)
	for i := range s {
		s[i] = 7
	}
	a.putInt32s(s)
	if a.held != 4*cap(s) {
		t.Fatalf("held %d B after giving back %d int32s", a.held, cap(s))
	}
	if got := a.int32s(290); &got[0] != &s[0] {
		t.Fatalf("a take of 290 did not reuse the 300-element buffer")
	}
	if a.held != 0 {
		t.Fatalf("held %d B with every buffer taken", a.held)
	}
	a.putInt32s(s)
	if got := a.int32s(301); &got[0] == &s[0] {
		t.Fatalf("a take of 301 reused a 300-element buffer")
	}
	if got := a.int32s(200); &got[0] != &s[0] { // class 7 is empty; class 8 serves
		t.Fatalf("a take of 200 did not fall back to the class above")
	}
	slots := a.zeroSlots(16)
	for i := range slots {
		slots[i] = groupSlot{sig: 1, ref: 2, aux: 3}
	}
	a.putSlots(slots)
	for i, sl := range a.zeroSlots(10) {
		if sl != (groupSlot{}) {
			t.Fatalf("zeroing take left %+v at %d", sl, i)
		}
	}
	a = new(arena)
	ids, scores := a.int32s(1000), a.float64s(1000)
	a.putInt32s(ids)
	a.putFloat64s(scores)
	lent := a.held
	r := newResult([]cq.Var{"x"}, nil)
	if room := a.reserveRows(r, 600); room != 1000 {
		t.Fatalf("reserveRows made room for %d rows from 1000-element buffers", room)
	}
	a.putResult(r)
	if a.held != lent {
		t.Fatalf("held %d B after putResult, %d B were handed out", a.held, lent)
	}
	if got := a.int32s(1000); &got[0] != &ids[0] {
		t.Fatalf("a take of 1000 did not reuse the id column's buffer")
	}
	if got := a.float64s(1000); &got[0] != &scores[0] {
		t.Fatalf("a take of 1000 did not reuse the score column's buffer")
	}
	// The fused π(⋈) sizes its chunk scratch from its 16 input rows, but
	// 8 × 8 rows on one join key make 64 groups in one chunk. From an
	// arena stocked so that no take needs a make, every buffer the
	// projection takes must come back, and no other: the bytes held after
	// finish and putResult are the bytes handed out.
	a = new(arena)
	for c := 0; c < 10; c++ {
		for range 8 {
			a.putInt32s(make([]int32, 1<<c))
			a.putFloat64s(make([]float64, 1<<c))
			a.putSlots(make([]groupSlot, 1<<c))
			a.putCells(make([]groupCell, 1<<c))
			a.putUint64s(make([]uint64, 1<<c))
		}
	}
	stocked := a.held
	var lRows, rRows [][]Value
	var half []float64
	for i := range 8 {
		lRows = append(lRows, []Value{Value(i), 0})
		rRows = append(rRows, []Value{0, Value(i)})
		half = append(half, 0.5)
	}
	l := resultOf([]cq.Var{"x", "y"}, lRows, half)
	rr := resultOf([]cq.Var{"y", "z"}, rRows, half)
	out, _ := streamJoinProject(l, rr, []cq.Var{"x", "z"}, &exec{c: &canceller{}, ar: a})
	if n := out.Len(); n <= l.Len()+rr.Len() || n > morselSize {
		t.Fatalf("%d groups: want one chunk of more than the %d input rows", n, l.Len()+rr.Len())
	}
	a.putResult(out)
	if a.held != stocked {
		t.Fatalf("held %d B after the fused projection and putResult, %d B before it", a.held, stocked)
	}
	var nilArena *arena
	nilArena.putInt32s(nilArena.int32s(10))
	if got := len(nilArena.zeroSlots(5)); got != 5 {
		t.Fatalf("nil arena returned %d elements, want 5", got)
	}
}
