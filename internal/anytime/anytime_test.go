package anytime

import (
	"context"
	"errors"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/engine"
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
