package anytime

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/engine"
	"lapushdb/internal/exact"
	"lapushdb/internal/mc"
	"lapushdb/internal/plan"
	"lapushdb/internal/workload"
)

// unsafeChain is the paper's unsafe 3-chain: two minimal plans, many
// answers, lineages long enough that no stage converges trivially.
func unsafeChain(t *testing.T) (*engine.DB, *cq.Query, []plan.Node) {
	t.Helper()
	db, q := workload.Chain(3, 40, 8, 0.6, rand.New(rand.NewSource(3)))
	plans := core.MinimalPlans(q, nil)
	if len(plans) < 2 {
		t.Fatalf("3-chain has %d minimal plans, want >= 2", len(plans))
	}
	return db, q, plans
}

func TestSortClausesByWeightKeepsLineageOrderOnTies(t *testing.T) {
	probs := []float64{0.5, 0.5, 0.25, 0.9, 0.5}
	// Weights: {0}=.5 {1}=.5 {2}=.25 {3}=.9 {4}=.5 {0,1}=.25
	clauses := [][]int32{{0}, {2}, {1}, {3}, {0, 1}, {4}}
	got := sortClausesByWeight(clauses, probs)
	want := [][]int32{{3}, {0}, {1}, {4}, {2}, {0, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sorted %v, want %v (ties in lineage order)", got, want)
	}
	if !reflect.DeepEqual(clauses, [][]int32{{0}, {2}, {1}, {3}, {0, 1}, {4}}) {
		t.Fatalf("input reordered in place: %v", clauses)
	}
	if out := sortClausesByWeight(nil, probs); len(out) != 0 {
		t.Fatalf("empty lineage sorted to %v", out)
	}
}

func TestSetLowerOnlyTightensWithinUpper(t *testing.T) {
	a := &ansState{lower: 0.2, upper: 0.6}
	for _, step := range []struct{ set, want float64 }{
		{0.1, 0.2}, // never lowers
		{0.4, 0.4}, // raises
		{0.3, 0.4}, // never lowers again
		{0.9, 0.6}, // never passes upper
		{0.5, 0.6},
	} {
		a.setLower(step.set)
		if a.lower != step.want || a.upper != 0.6 {
			t.Fatalf("setLower(%g): interval [%g, %g], want [%g, 0.6]", step.set, a.lower, a.upper, step.want)
		}
	}
}

// TestKeySeedDependsOnKeyOnly: a sampler's stream is seeded by the
// answer's key bytes and nothing else, so it cannot depend on the order
// answers are created or refined in.
func TestKeySeedDependsOnKeyOnly(t *testing.T) {
	keys := [][]engine.Value{{}, {0}, {1}, {1, 0}, {0, 1}, {7, 7, 7}}
	forward := make([]int64, len(keys))
	for i, k := range keys {
		forward[i] = keySeed(k)
	}
	seen := map[int64]int{}
	for i := len(keys) - 1; i >= 0; i-- {
		if got := keySeed(keys[i]); got != forward[i] {
			t.Fatalf("keySeed(%v) = %d in reverse order, %d forward", keys[i], got, forward[i])
		}
		if j, dup := seen[forward[i]]; dup {
			t.Fatalf("keys %v and %v share seed %d", keys[i], keys[j], forward[i])
		}
		seen[forward[i]] = i
	}
	// The encoding is FNV-1a over the engine's little-endian key bytes.
	h := fnv.New64a()
	h.Write([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	if want := int64(h.Sum64()); keySeed([]engine.Value{1, 0}) != want {
		t.Fatalf("keySeed({1,0}) = %d, want FNV-1a of its 16 key bytes %d", keySeed([]engine.Value{1, 0}), want)
	}
}

// TestTopKPruningKeepsEveryContender: at every snapshot, an answer
// whose upper bound still reaches the k-th largest lower bound is a
// top-k contender and must not be pruned.
func TestTopKPruningKeepsEveryContender(t *testing.T) {
	db, q, plans := unsafeChain(t)
	const k = 3
	snapshots, prunedEver := 0, false
	cfg := Config{
		Epsilon: 0.05, ReuseSubplans: true, SemiJoin: true, Seed: 5, TopK: k, MCMaxSamples: 1024,
		OnStage: func(s Snapshot) {
			snapshots++
			if len(s.Answers) <= k {
				t.Fatalf("only %d answers, top-%d never prunes", len(s.Answers), k)
			}
			lowers := make([]float64, len(s.Answers))
			for i, a := range s.Answers {
				lowers[i] = a.Lower
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(lowers)))
			kth := lowers[k-1]
			for _, a := range s.Answers {
				if a.Lower > a.Upper {
					t.Fatalf("%s snapshot %d: answer %v interval [%g, %g] inverted", s.Stage, snapshots, a.Key, a.Lower, a.Upper)
				}
				if a.Pruned {
					prunedEver = true
					if a.Upper >= kth {
						t.Fatalf("%s snapshot %d: pruned answer %v has upper %g >= k-th lower %g", s.Stage, snapshots, a.Key, a.Upper, kth)
					}
				}
			}
		},
	}
	res, err := Evaluate(context.Background(), db, q, plans, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if snapshots == 0 || !prunedEver {
		t.Fatalf("vacuous run: %d snapshots, pruned=%v (stages %+v)", snapshots, prunedEver, res.Stages)
	}
}

// deadlineCtx is a context whose deadline the test fires by hand, so
// "after the first plan" is an event and not a sleep.
type deadlineCtx struct {
	context.Context
	fired atomic.Bool
	done  chan struct{}
}

func newDeadlineCtx() *deadlineCtx {
	return &deadlineCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c *deadlineCtx) fire() {
	if c.fired.CompareAndSwap(false, true) {
		close(c.done)
	}
}

func (c *deadlineCtx) Done() <-chan struct{} { return c.done }

func (c *deadlineCtx) Err() error {
	if c.fired.Load() {
		return context.DeadlineExceeded
	}
	return nil
}

func TestDeadlineDegradesOnlyAfterFirstPlan(t *testing.T) {
	db, q, plans := unsafeChain(t)
	cfg := Config{Epsilon: 0, ReuseSubplans: true, SemiJoin: true, Seed: 1}

	// Before the first plan completes there is no interval to return.
	early := newDeadlineCtx()
	early.fire()
	if res, err := Evaluate(early, db, q, plans, cfg); !errors.Is(err, context.DeadlineExceeded) || res != nil {
		t.Fatalf("deadline before the first plan: res=%v err=%v, want nil result and DeadlineExceeded", res, err)
	}

	// After it, the best-so-far intervals come back marked degraded.
	late := newDeadlineCtx()
	steps := 0
	cfg.OnStage = func(Snapshot) {
		steps++
		late.fire()
	}
	res, err := Evaluate(late, db, q, plans, cfg)
	if err != nil {
		t.Fatalf("deadline after the first plan: %v, want a degraded result", err)
	}
	if res.Degraded != "deadline" || res.Converged {
		t.Fatalf("degraded=%q converged=%v, want \"deadline\" and not converged", res.Degraded, res.Converged)
	}
	if steps != 1 || res.PlansEvaluated != 1 || len(res.Answers) == 0 {
		t.Fatalf("steps=%d plans evaluated=%d answers=%d, want exactly the first plan's bounds", steps, res.PlansEvaluated, len(res.Answers))
	}
	for _, a := range res.Answers {
		if a.Lower != 0 || a.Upper <= 0 || a.Upper > 1 {
			t.Fatalf("answer %v: [%g, %g], want the first plan's upper bound over lower 0", a.Key, a.Lower, a.Upper)
		}
	}
}

// fixture is a database, a query and its minimal plans, with every
// answer's lineage and exact probability keyed by the answer key bytes.
type fixture struct {
	db      *engine.DB
	q       *cq.Query
	plans   []plan.Node
	clauses map[string][][]int32
	exact   map[string]float64
}

func newFixture(t *testing.T, db *engine.DB, q *cq.Query) *fixture {
	t.Helper()
	f := &fixture{db: db, q: q, plans: core.MinimalPlans(q, nil), clauses: map[string][][]int32{}, exact: map[string]float64{}}
	lin := engine.EvalLineageCtx(nil, db, q, nil)
	for i := 0; i < lin.Len(); i++ {
		k := string(keyBytes(lin.Key(i)))
		f.clauses[k] = lin.Clauses(i)
		f.exact[k] = exact.Prob(lin.Clauses(i), db.VarProbs())
	}
	if len(f.exact) == 0 {
		t.Fatal("fixture has no answers")
	}
	return f
}

// Fixtures of the staging tests. chainSmall and starSmall hold lineages
// the first pass collapses; starHard one it admits and abandons (a dense
// bipartite lineage needs more than exact.NodesPerClause nodes per
// clause); chainWide one over FirstPassMaxClauses that the final stage
// still finishes; chainDense many of a few dozen clauses for sampling
// statistics.
func chainSmall(t *testing.T) *fixture {
	db, q := workload.Chain(3, 40, 16, 0.6, rand.New(rand.NewSource(3)))
	return newFixture(t, db, q)
}

func starSmall(t *testing.T) *fixture {
	db, q := workload.Star(2, 12, 6, 0.6, rand.New(rand.NewSource(4)))
	return newFixture(t, db, q)
}

func starHard(t *testing.T) *fixture {
	db, q := workload.Star(2, 60, 10, 0.6, rand.New(rand.NewSource(5)))
	return newFixture(t, db, q)
}

// chainWide has one answer whose lineage is the complete 4 × 40 join:
// 160 clauses that sixteen assignments of the four R1 tuples decompose.
func chainWide(t *testing.T) *fixture {
	rng := rand.New(rand.NewSource(6))
	db := engine.NewDB()
	r1 := db.CreateRelation("R1", []string{"x0", "x1"})
	r2 := db.CreateRelation("R2", []string{"x1", "x2"})
	r3 := db.CreateRelation("R3", []string{"x2", "x3"})
	for x1 := 0; x1 < 4; x1++ {
		r1.Insert([]engine.Value{0, engine.Value(x1)}, rng.Float64()*0.6)
		for x2 := 0; x2 < 40; x2++ {
			r2.Insert([]engine.Value{engine.Value(x1), engine.Value(x2)}, rng.Float64()*0.3)
		}
	}
	for x2 := 0; x2 < 40; x2++ {
		r3.Insert([]engine.Value{engine.Value(x2), 0}, rng.Float64()*0.6)
	}
	return newFixture(t, db, workload.ChainQuery(3))
}

func chainDense(t *testing.T) *fixture {
	db, q := workload.Chain(3, 60, 9, 0.4, rand.New(rand.NewSource(7)))
	return newFixture(t, db, q)
}

func (f *fixture) evaluate(t *testing.T, cfg Config) *Result {
	t.Helper()
	cfg.ReuseSubplans, cfg.SemiJoin = true, true
	res, err := Evaluate(context.Background(), f.db, f.q, f.plans, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSandwichAtEverySnapshot: lower <= exact.Prob <= upper at every
// OnStage snapshot, on lineages that every route takes — collapsed by the
// first pass, abandoned by it, refused by it.
func TestSandwichAtEverySnapshot(t *testing.T) {
	for name, fx := range map[string]func(*testing.T) *fixture{
		"chainSmall": chainSmall, "starSmall": starSmall, "starHard": starHard, "chainWide": chainWide,
	} {
		t.Run(name, func(t *testing.T) {
			f := fx(t)
			snapshots := 0
			res := f.evaluate(t, Config{Epsilon: 0.01, Seed: 9, MCMaxSamples: 2048, OnStage: func(s Snapshot) {
				snapshots++
				for _, a := range s.Answers {
					p, ok := f.exact[string(keyBytes(a.Key))]
					if !ok {
						t.Fatalf("%s snapshot %d: unknown answer %v", s.Stage, snapshots, a.Key)
					}
					if !(0 <= a.Lower && a.Lower <= p+1e-12 && p <= a.Upper+1e-12 && a.Upper <= 1+1e-12) {
						t.Fatalf("%s snapshot %d: exact %v outside [%v, %v] (lower kind %q)", s.Stage, snapshots, p, a.Lower, a.Upper, a.LowerKind)
					}
				}
			}})
			if snapshots < 2 || !res.Converged {
				t.Fatalf("%d snapshots, converged=%v (stages %+v)", snapshots, res.Converged, res.Stages)
			}
		})
	}
}

// TestSeedIndependentWithoutSampling: whenever no sample was drawn the
// whole result is a function of the data — two seeds give bit-identical
// intervals, every one certain.
func TestSeedIndependentWithoutSampling(t *testing.T) {
	for name, fx := range map[string]func(*testing.T) *fixture{"chainSmall": chainSmall, "starSmall": starSmall} {
		f := fx(t)
		a := f.evaluate(t, Config{Epsilon: 0.001, Seed: 1})
		b := f.evaluate(t, Config{Epsilon: 0.001, Seed: 2})
		if a.MCSamples != 0 || b.MCSamples != 0 {
			t.Fatalf("%s: %d and %d samples drawn, want a fixture the first pass settles", name, a.MCSamples, b.MCSamples)
		}
		if len(a.Answers) != len(b.Answers) {
			t.Fatalf("%s: %d answers vs %d", name, len(a.Answers), len(b.Answers))
		}
		for i := range a.Answers {
			x, y := a.Answers[i], b.Answers[i]
			if !reflect.DeepEqual(x.Key, y.Key) || math.Float64bits(x.Lower) != math.Float64bits(y.Lower) ||
				math.Float64bits(x.Upper) != math.Float64bits(y.Upper) || x.LowerKind != "" || y.LowerKind != "" {
				t.Fatalf("%s: answer %d is %+v under seed 1, %+v under seed 2", name, i, x, y)
			}
		}
	}
}

// TestFirstPassFallsThroughToSampling: a lineage the first pass refuses
// (over FirstPassMaxClauses) or abandons (over its node budget) goes to
// Karp–Luby and, stopped there by a loose epsilon, says its lower bound
// is statistical. What the abandoned attempt cost is bounded in nodes, not
// in wall clock: its budget is exact.NodesPerClause per clause — which
// exact.TestKernelMatchesReference pins as the exact number of nodes a
// failing call visits — and at most FirstPassMaxClauses clauses.
func TestFirstPassFallsThroughToSampling(t *testing.T) {
	for name, tc := range map[string]struct {
		fx       func(*testing.T) *fixture
		admitted bool
	}{"abandoned": {starHard, true}, "refused": {chainWide, false}} {
		f := tc.fx(t)
		if len(f.clauses) != 1 {
			t.Fatalf("%s: fixture has %d answers, want one", name, len(f.clauses))
		}
		var clauses [][]int32
		var want float64
		for key, c := range f.clauses {
			clauses, want = c, f.exact[key]
		}
		budget := exact.NodesPerClause * len(clauses)
		if admitted := len(clauses) <= FirstPassMaxClauses; admitted != tc.admitted {
			t.Fatalf("%s: lineage of %d clauses, admitted=%v", name, len(clauses), admitted)
		}
		if tc.admitted {
			if budget > exact.NodesPerClause*FirstPassMaxClauses {
				t.Fatalf("%s: attempt budget %d nodes", name, budget)
			}
			if _, err := exact.ProbBudget(clauses, f.db.VarProbs(), budget); err != exact.ErrBudget {
				t.Fatalf("%s: %d clauses finish inside %d nodes (err %v), want a lineage the pass abandons", name, len(clauses), budget, err)
			}
		}
		var order []string
		res := f.evaluate(t, Config{Epsilon: 0.3, Seed: 3, OnStage: func(s Snapshot) { order = append(order, s.Stage) }})
		wantFirst := []string{"plans", "mc"}
		if tc.admitted {
			wantFirst = []string{"plans", "exact", "mc"}
		}
		if got := dedupe(order); len(got) < len(wantFirst) || !reflect.DeepEqual(got[:len(wantFirst)], wantFirst) {
			t.Fatalf("%s: snapshots ran %v, want them to start %v", name, got, wantFirst)
		}
		a := res.Answers[0]
		if res.MCSamples == 0 || !res.Converged || a.Upper-a.Lower <= 0 || a.LowerKind != LowerStatistical {
			t.Fatalf("%s: samples=%d converged=%v answer %+v, want a sampled interval marked statistical", name, res.MCSamples, res.Converged, a)
		}
		// Epsilon 0 pushes past sampling: the final exact stage collapses
		// the interval and the bound is certain again.
		res = f.evaluate(t, Config{Epsilon: 0, Seed: 3, MCMaxSamples: 512})
		a = res.Answers[0]
		if !res.Converged || a.Lower != a.Upper || a.LowerKind != "" || math.Abs(a.Lower-want) > 1e-12 {
			t.Fatalf("%s: epsilon 0 ended %+v (exact %v)", name, a, want)
		}
	}
}

func dedupe(stages []string) []string {
	var out []string
	for _, s := range stages {
		if len(out) == 0 || out[len(out)-1] != s {
			out = append(out, s)
		}
	}
	return out
}

// TestStagesInRunOrder: Result.Stages lists the stages in the order they
// ran — the first pass and the final stage both as "exact" — and every
// step of every stage ends in one OnStage snapshot carrying that stage's
// name. perfbench charges the time between two snapshots to the later
// one's stage, so its per-stage sums cover the whole evaluation up to the
// last step.
func TestStagesInRunOrder(t *testing.T) {
	for name, tc := range map[string]struct {
		fx   func(*testing.T) *fixture
		want []string
	}{
		"collapsed": {chainSmall, []string{"plans", "exact"}},
		"abandoned": {starHard, []string{"plans", "exact", "mc", "exact"}},
		"refused":   {chainWide, []string{"plans", "mc", "exact"}},
	} {
		f := tc.fx(t)
		var snaps []string
		res := f.evaluate(t, Config{Epsilon: 0, Seed: 3, MCMaxSamples: 512, OnStage: func(s Snapshot) { snaps = append(snaps, s.Stage) }})
		var names, perStep []string
		for _, st := range res.Stages {
			names = append(names, st.Name)
			for i := 0; i < st.Steps; i++ {
				perStep = append(perStep, st.Name)
			}
		}
		if !reflect.DeepEqual(names, tc.want) {
			t.Fatalf("%s: stages %v, want %v", name, names, tc.want)
		}
		if !reflect.DeepEqual(snaps, perStep) {
			t.Fatalf("%s: snapshots %v, want one per step of %+v", name, snaps, res.Stages)
		}
		if !res.Converged {
			t.Fatalf("%s: did not converge", name)
		}
	}
}

// TestMCZCoverage is an empirical check of the one sampling bound that
// is left: over fixed seeds, estimate − DefaultMCZ·stderr never exceeds
// the exact probability at any round of the evaluator's batch schedule,
// while a 2-sigma bound — which should fail about one time in forty —
// does, so the check can see a violation.
func TestMCZCoverage(t *testing.T) {
	f := chainDense(t)
	probs := f.db.VarProbs()
	trials, tight, loose, vacuous := 0, 0, 0, 0
	for key, clauses := range f.clauses {
		if len(clauses) < 8 {
			continue
		}
		p := f.exact[key]
		for seed := int64(1); seed <= 6; seed++ {
			s := mc.NewKarpLubySampler(sortClausesByWeight(clauses, probs), probs, rand.New(rand.NewSource(seed)))
			for batch := DefaultMCBatch; s.Samples() < 4096; batch *= 2 {
				if err := s.Sample(context.Background(), batch); err != nil {
					t.Fatal(err)
				}
				trials++
				if s.LowerBound(DefaultMCZ) > p {
					tight++
				}
				if s.LowerBound(2) > p {
					loose++
				}
			}
			if s.LowerBound(DefaultMCZ) < p/2 {
				vacuous++
			}
		}
	}
	t.Logf("%d bound evaluations: z = %v violated %d times, z = 2 %d times; %d of %d runs end under half the probability", trials, DefaultMCZ, tight, loose, vacuous, trials/5)
	if trials < 2000 {
		t.Fatalf("only %d bound evaluations", trials)
	}
	if tight != 0 {
		t.Fatalf("z = %v lower bound exceeded the exact probability %d times in %d", DefaultMCZ, tight, trials)
	}
	if loose == 0 {
		t.Fatalf("not even a 2-sigma bound failed in %d evaluations: the check cannot see a violation", trials)
	}
	if 5*4*vacuous > trials {
		t.Fatalf("after 4096 samples the bound was under half the probability in %d runs", vacuous)
	}
}

// TestAnytimeArenaAfterUnwind: the smallest row budget at which the
// first plan round completes unwinds the second one on the pooled
// evaluator, and the evaluation degrades. The next evaluation, whose
// evaluator takes the arena that one released, is bit-identical to the
// one run before it.
func TestAnytimeArenaAfterUnwind(t *testing.T) {
	db, q, plans := unsafeChain(t)
	f := &fixture{db: db, q: q, plans: plans}
	cfg := Config{Epsilon: 0.1, Seed: 1, MCMaxSamples: 256}
	want := f.evaluate(t, cfg)
	budgeted := func(rows int) (*Result, error) {
		c := cfg
		c.ReuseSubplans, c.SemiJoin, c.MaxIntermediateRows = true, true, rows
		return Evaluate(context.Background(), f.db, f.q, f.plans, c)
	}
	lo, hi := 1, 1<<22 // no plan round fits lo; every one fits hi
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if _, err := budgeted(mid); err != nil {
			lo = mid
		} else {
			hi = mid
		}
	}
	for i := 0; i < 3; i++ {
		res, err := budgeted(hi)
		if err != nil || res.Degraded != "budget" || res.PlansEvaluated != 1 || res.PlansTotal < 2 {
			t.Fatalf("budget %d: err=%v, want the second of %d rounds to unwind: %+v", hi, err, len(f.plans), res)
		}
		if got := f.evaluate(t, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("after an unwound round: %+v, want %+v", got, want)
		}
	}
}
