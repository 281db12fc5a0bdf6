package lapushdb

// Property tests of the anytime evaluator at the public-API level: on
// the chain/star/TPC-H differential shapes, every refinement snapshot
// must sandwich the exact probability (lower <= exact <= upper) and
// intervals may only tighten from one snapshot to the next. Run under
// -race these also exercise the staged evaluation for data races.

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"lapushdb/internal/anytime"
	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/engine"
	"lapushdb/internal/engine/oracle"
	"lapushdb/internal/workload"
)

// exactByValues ranks the query exactly and indexes the probabilities
// by answer values, as the reference for the sandwich property.
func exactByValues(t *testing.T, db *DB, query string) map[string]float64 {
	t.Helper()
	answers, err := db.RankContext(context.Background(), query, &Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]float64, len(answers))
	for _, a := range answers {
		m[stringsKey(a.Values)] = a.Score
	}
	return m
}

// sandwichWorkload runs the anytime evaluation on one workload shape
// and asserts, at every refinement snapshot: intervals are well-formed,
// they contain the exact probability, and they only tighten.
func sandwichWorkload(t *testing.T, label string, edb *engine.DB, query string, eps float64) {
	t.Helper()
	db := fromEngineDB(t, edb)
	exact := exactByValues(t, db, query)

	type iv struct{ lo, hi float64 }
	prev := map[string]iv{}
	snapshots := 0
	// The MC cap keeps the sampling stage cheap; the exact stage then
	// collapses whatever sampling left wide, so convergence still holds.
	opts := &AnytimeOptions{Epsilon: eps, Seed: 11, MCMaxSamples: 2048}
	opts.onStage = func(s anytime.Snapshot) {
		snapshots++
		for _, a := range s.Answers {
			key := stringsKey(db.decode(a.Key))
			ex, ok := exact[key]
			if !ok {
				t.Fatalf("%s: stage %s produced unknown answer %v", label, s.Stage, db.decode(a.Key))
			}
			if a.Lower < 0 || a.Upper > 1 || a.Lower > a.Upper+1e-12 {
				t.Fatalf("%s: stage %s: malformed interval [%g, %g]", label, s.Stage, a.Lower, a.Upper)
			}
			if a.Lower > ex+1e-9 || ex > a.Upper+1e-9 {
				t.Fatalf("%s: stage %s: sandwich violated: exact %g outside [%g, %g]", label, s.Stage, ex, a.Lower, a.Upper)
			}
			if p, ok := prev[key]; ok && (a.Lower < p.lo-1e-12 || a.Upper > p.hi+1e-12) {
				t.Fatalf("%s: stage %s: interval widened: [%g, %g] after [%g, %g]", label, s.Stage, a.Lower, a.Upper, p.lo, p.hi)
			}
			prev[key] = iv{a.Lower, a.Upper}
		}
	}
	res, err := db.RankAnytimeContext(context.Background(), query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if snapshots == 0 {
		t.Fatalf("%s: no refinement snapshots observed", label)
	}
	if !res.Converged || res.Degraded != "" {
		t.Fatalf("%s: expected convergence, got converged=%v degraded=%q width=%g", label, res.Converged, res.Degraded, res.Width)
	}
	if len(res.Answers) != len(exact) {
		t.Fatalf("%s: %d interval answers vs %d exact", label, len(res.Answers), len(exact))
	}
	for _, a := range res.Answers {
		if a.Upper-a.Lower > eps+1e-12 {
			t.Fatalf("%s: answer %v not within epsilon: [%g, %g]", label, a.Values, a.Lower, a.Upper)
		}
		ex := exact[stringsKey(a.Values)]
		if a.Lower > ex+1e-9 || ex > a.Upper+1e-9 {
			t.Fatalf("%s: final sandwich violated for %v: exact %g outside [%g, %g]", label, a.Values, ex, a.Lower, a.Upper)
		}
	}
}

func TestAnytimeSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	t.Run("chain3", func(t *testing.T) {
		edb, q := workload.Chain(3, 500, 70, 0.5, rng)
		sandwichWorkload(t, "chain3", edb, q.String(), 0.05)
	})
	t.Run("star3", func(t *testing.T) {
		// The star query is Boolean: its single answer's lineage is one
		// hard DNF over the whole instance, and both the exact reference
		// and the collapse stage are exponential in the worst case — keep
		// the instance small.
		edb, q := workload.Star(3, 40, 12, 0.5, rng)
		sandwichWorkload(t, "star3", edb, q.String(), 0.05)
	})
	t.Run("tpch", func(t *testing.T) {
		tp := workload.NewTPCH(0.01, 0.1, rng)
		sandwichWorkload(t, "tpch", tp.DB, tp.Query(tp.Suppliers, "%red%").String(), 0.05)
	})
}

// TestAnytimeOracleBoundsDifferential pins the upper bounds the anytime
// sandwich refines: the dissociation plan scores feeding the anytime
// evaluator are bit-identical between the columnar executor and the
// retained row-at-a-time oracle, on the sandwich's workload shapes.
func TestAnytimeOracleBoundsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	chainDB, chainQ := workload.Chain(3, 500, 70, 0.5, rng)
	starDB, starQ := workload.Star(3, 40, 12, 0.5, rng)
	tp := workload.NewTPCH(0.01, 0.1, rng)
	for _, tc := range []struct {
		label string
		edb   *engine.DB
		q     string
	}{
		{"chain3", chainDB, chainQ.String()},
		{"star3", starDB, starQ.String()},
		{"tpch", tp.DB, tp.Query(tp.Suppliers, "%red%").String()},
	} {
		q := cq.MustParse(tc.q)
		plans := core.MinimalPlans(q, nil)
		got := engine.EvalPlansCtx(nil, tc.edb, q, plans, engine.Options{})
		want := oracle.EvalPlans(tc.edb, q, plans, engine.Options{})
		if got.Len() != want.Len() {
			t.Fatalf("%s: %d rows vs oracle %d", tc.label, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			gr, wr := got.Row(i), want.Row(i)
			for j := range wr {
				if gr[j] != wr[j] {
					t.Fatalf("%s: row %d differs: %v vs %v", tc.label, i, gr, wr)
				}
			}
			if math.Float64bits(got.Score(i)) != math.Float64bits(want.Score(i)) {
				t.Fatalf("%s: row %d bound bits differ: %v vs oracle %v",
					tc.label, i, got.Score(i), want.Score(i))
			}
		}
	}
}

// TestAnytimeDeadlineDegrades forces the deadline to fire after the
// first refinement step: the evaluation must return the best-so-far
// intervals with Degraded="deadline" instead of an error.
func TestAnytimeDeadlineDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	edb, q := workload.Chain(3, 900, 120, 0.5, rng)
	db := fromEngineDB(t, edb)
	// Warm up once so the first refinement step reliably fits inside the
	// deadline below.
	if _, err := db.RankAnytimeContext(context.Background(), q.String(), &AnytimeOptions{Epsilon: 0.9}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	opts := &AnytimeOptions{Epsilon: 0.0001, Seed: 1}
	slept := false
	opts.onStage = func(anytime.Snapshot) {
		if !slept {
			slept = true
			time.Sleep(500 * time.Millisecond) // outlive the deadline after step one
		}
	}
	res, err := db.RankAnytimeContext(ctx, q.String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != "deadline" || res.Converged {
		t.Fatalf("want degraded deadline, got converged=%v degraded=%q", res.Converged, res.Degraded)
	}
	if len(res.Answers) == 0 {
		t.Fatal("degraded result lost its answers")
	}
	for _, a := range res.Answers {
		if a.Lower < 0 || a.Upper > 1 || a.Lower > a.Upper {
			t.Fatalf("malformed degraded interval [%g, %g]", a.Lower, a.Upper)
		}
	}
}

// TestAnytimeCancelErrors pins the complementary contract: plain
// cancellation means the caller no longer wants the result, so it is a
// hard error even after refinement steps completed.
func TestAnytimeCancelErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	edb, q := workload.Chain(3, 900, 120, 0.5, rng)
	db := fromEngineDB(t, edb)
	ctx, cancel := context.WithCancel(context.Background())
	opts := &AnytimeOptions{Epsilon: 0.0001, Seed: 1}
	opts.onStage = func(anytime.Snapshot) { cancel() }
	res, err := db.RankAnytimeContext(ctx, q.String(), opts)
	if err == nil {
		t.Fatalf("want cancellation error, got result converged=%v degraded=%q", res.Converged, res.Degraded)
	}
}

// TestAnytimeBudgetDegrades finds, by bisection, the smallest row
// budget at which the first refinement step completes — there, a later
// plan must exhaust the budget and the evaluation must degrade with
// valid intervals rather than fail.
func TestAnytimeBudgetDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	edb, q := workload.Chain(3, 900, 120, 0.5, rng)
	db := fromEngineDB(t, edb)
	query := q.String()
	// Small MC caps keep the bisection's many full evaluations cheap; the
	// property under test is the budget handling, not bound quality.
	eval := func(budget int) (*AnytimeResult, error) {
		return db.RankAnytimeContext(context.Background(), query, &AnytimeOptions{Epsilon: 0.0001, Seed: 1, MaxIntermediateRows: budget, MCMaxSamples: 256})
	}
	lo, hi := 1, 1<<22 // lo always fails, hi always completes
	if _, err := eval(lo); err == nil {
		t.Fatal("budget of 1 row unexpectedly succeeded")
	}
	if res, err := eval(hi); err != nil || res.Degraded != "" {
		t.Fatalf("unbudgeted run: err=%v degraded=%q", err, res.Degraded)
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if _, err := eval(mid); err != nil {
			lo = mid
		} else {
			hi = mid
		}
	}
	res, err := eval(hi)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != "budget" || res.Converged {
		t.Fatalf("minimal viable budget %d: want degraded budget, got converged=%v degraded=%q (plans %d/%d)",
			hi, res.Converged, res.Degraded, res.PlansEvaluated, res.PlansTotal)
	}
	if res.PlansEvaluated < 1 {
		t.Fatalf("degraded without a completed refinement step: %+v", res)
	}
	for _, a := range res.Answers {
		if a.Lower < 0 || a.Upper > 1 || a.Lower > a.Upper {
			t.Fatalf("malformed degraded interval [%g, %g]", a.Lower, a.Upper)
		}
	}
}

// TestAnytimeBudgetCoversLineage: the row budget spans the lineage
// stage too. At the smallest budget that admits every plan, building the
// lineage (the largest intermediate) must exhaust it, so the evaluation
// degrades with "budget" and keeps the plans' intervals instead of
// refining past its budget.
func TestAnytimeBudgetCoversLineage(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	edb, q := workload.Chain(3, 300, 60, 0.5, rng)
	db := fromEngineDB(t, edb)
	query := q.String()
	eval := func(budget int) *AnytimeResult {
		res, err := db.RankAnytimeContext(context.Background(), query, &AnytimeOptions{Epsilon: 0.0001, Seed: 1, MaxIntermediateRows: budget})
		if err != nil {
			return nil
		}
		return res
	}
	lo, hi := 1, 1<<22 // at lo no plan fits, at hi every plan does
	if res := eval(hi); res == nil || res.PlansEvaluated != res.PlansTotal || res.PlansTotal < 2 {
		t.Fatalf("a %d-row budget does not admit every plan: %+v", hi, res)
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if res := eval(mid); res != nil && res.PlansEvaluated == res.PlansTotal {
			hi = mid
		} else {
			lo = mid
		}
	}
	res := eval(hi)
	if res.Degraded != "budget" || res.Converged {
		t.Fatalf("budget %d admits every plan: want the lineage to degrade it, got converged=%v degraded=%q",
			hi, res.Converged, res.Degraded)
	}
	diss, err := db.RankContext(context.Background(), query, &Options{Method: Dissociation})
	if err != nil {
		t.Fatal(err)
	}
	upper := map[string]float64{}
	for _, a := range diss {
		upper[stringsKey(a.Values)] = a.Score
	}
	if len(res.Answers) != len(upper) {
		t.Fatalf("%d interval answers, %d plan answers", len(res.Answers), len(upper))
	}
	for _, a := range res.Answers {
		if u := upper[stringsKey(a.Values)]; a.Lower != 0 || math.Abs(a.Upper-u) > 1e-12 {
			t.Fatalf("answer %v: [%g, %g], want the plan interval [0, %g]", a.Values, a.Lower, a.Upper, u)
		}
	}
}

// TestRankTopKAnytime checks the bound-pruning top-k: with a tight
// epsilon the surviving answers must be exactly RankTopK's exact top-k,
// in the same order.
func TestRankTopKAnytime(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	edb, q := workload.Chain(3, 900, 120, 0.5, rng)
	db := fromEngineDB(t, edb)
	query := q.String()
	const k = 5
	want, err := db.RankTopK(context.Background(), query, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.RankTopKAnytime(context.Background(), query, k, &AnytimeOptions{Epsilon: 0.0001, Seed: 3, MCMaxSamples: 128})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("top-k did not converge: width %g", res.Width)
	}
	if len(res.Answers) != len(want) {
		t.Fatalf("%d answers vs %d", len(res.Answers), len(want))
	}
	for i, a := range res.Answers {
		if stringsKey(a.Values) != stringsKey(want[i].Values) {
			t.Fatalf("rank %d: %v vs exact top-k %v", i, a.Values, want[i].Values)
		}
		if want[i].Score < a.Lower-1e-9 || want[i].Score > a.Upper+1e-9 {
			t.Fatalf("rank %d: exact %g outside [%g, %g]", i, want[i].Score, a.Lower, a.Upper)
		}
	}
}

// TestValidateEpsilon pins the shared epsilon validation used by both
// the library and the server.
func TestValidateEpsilon(t *testing.T) {
	for _, eps := range []float64{0, 0.001, 0.5, 0.999} {
		if err := ValidateEpsilon(eps); err != nil {
			t.Fatalf("ValidateEpsilon(%v) = %v", eps, err)
		}
	}
	bad := []float64{-0.001, 1, 1.5}
	bad = append(bad, nan())
	for _, eps := range bad {
		if err := ValidateEpsilon(eps); err == nil {
			t.Fatalf("ValidateEpsilon(%v) accepted", eps)
		}
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// TestAnytimeAllocGate pins what one warm anytime evaluation allocates
// on anytime_cold's shape: the served chain at x0 <= 1, x1 <= 5 and
// epsilon 0.05. After one warm-up call, mallocs and bytes per call are
// read under GOMAXPROCS(1), as the engine's allocation gates read them.
// The plan rounds, the Opt3 reduction and the lineage run on one pooled
// evaluator, so their scratch comes back from its arena.
func TestAnytimeAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	if testing.Short() {
		t.Skip("alloc gate skipped in -short")
	}
	db := servedChain(t)
	const query = "q(x0, x3) :- BenchR1(x0, x1), BenchR2(x1, x2), BenchR3(x2, x3), x0 <= 1, x1 <= 5"
	opts := &AnytimeOptions{Epsilon: 0.05, Seed: 7, MCMaxSamples: 4096}
	var res *AnytimeResult
	run := func() {
		var err error
		if res, err = db.RankAnytimeContext(context.Background(), query, opts); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if !res.Converged || len(res.Answers) == 0 {
		t.Fatalf("want a converged evaluation with answers: converged=%v, %d answers", res.Converged, len(res.Answers))
	}
	t.Logf("anytime: %d allocs/op, %d B/op (%d answers)", allocs, bytes, len(res.Answers))
	// Measured 985 allocs and 111 565 B per op; the evaluation with a
	// private memo, whose evaluators allocated from the heap, measured
	// 1 201 and 368 290 B. Ceilings: the reading plus 10%.
	const allocCeiling, byteCeiling = 1084, 122_700
	if allocs > allocCeiling {
		t.Errorf("a warm anytime evaluation makes %d allocations, over the pinned %d", allocs, allocCeiling)
	}
	if bytes > byteCeiling {
		t.Errorf("a warm anytime evaluation allocates %d B, over the pinned %d B", bytes, byteCeiling)
	}
}
