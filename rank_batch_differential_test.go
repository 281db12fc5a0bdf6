package lapushdb

// Differential tests for batched evaluation: a Batch shares subplan
// results across its queries, and the contract is that sharing is
// invisible — every query's answers are bit-identical (values, order,
// and float64 score bits) to a standalone RankContext with the same
// options.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/engine"
	"lapushdb/internal/engine/oracle"
	"lapushdb/internal/workload"
)

// assertBatchMatchesRank evaluates the queries one at a time and as a
// batch, requiring bit-identical answers, and returns the batch stats.
func assertBatchMatchesRank(t *testing.T, label string, db *DB, queries []string) BatchStats {
	t.Helper()
	b := db.NewBatch(nil)
	results := make([][]Answer, len(queries))
	for i, query := range queries {
		var err error
		if results[i], err = b.Rank(context.Background(), query); err != nil {
			t.Fatalf("%s: batch query %d (%q): %v", label, i, query, err)
		}
	}
	for i, query := range queries {
		want, err := db.RankContext(context.Background(), query, nil)
		if err != nil {
			t.Fatalf("%s: standalone Rank(%q): %v", label, query, err)
		}
		got := results[i]
		if len(got) != len(want) {
			t.Fatalf("%s: query %d: %d answers vs %d standalone", label, i, len(got), len(want))
		}
		for j := range want {
			if math.Float64bits(got[j].Score) != math.Float64bits(want[j].Score) {
				t.Fatalf("%s: query %d answer %d: score bits %x != %x (%v vs %v)",
					label, i, j, math.Float64bits(got[j].Score), math.Float64bits(want[j].Score),
					got[j].Score, want[j].Score)
			}
			if len(got[j].Values) != len(want[j].Values) {
				t.Fatalf("%s: query %d answer %d: values %v vs %v", label, i, j, got[j].Values, want[j].Values)
			}
			for k := range want[j].Values {
				if got[j].Values[k] != want[j].Values[k] {
					t.Fatalf("%s: query %d answer %d: values %v vs %v", label, i, j, got[j].Values, want[j].Values)
				}
			}
		}
	}
	return b.Stats()
}

// TestRankBatchDifferentialChain runs overlapping chain queries — the
// full 3-chain, its 2-chain prefix and suffix, and a duplicate of the
// full query — and requires bit-identical answers plus at least one
// shared-subplan hit (the duplicate reuses the first query's work
// wholesale).
func TestRankBatchDifferentialChain(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	edb, q := workload.Chain(3, 2000, 300, 0.5, rng)
	db := fromEngineDB(t, edb)
	queries := []string{
		q.String(),
		"q(x0, x2) :- R1(x0, x1), R2(x1, x2)",
		"q(x1, x3) :- R2(x1, x2), R3(x2, x3)",
		q.String(), // duplicate: full cross-query reuse
	}
	if bs := assertBatchMatchesRank(t, "chain3", db, queries); bs.SharedSubplanHits == 0 {
		t.Error("no shared subplan hits across overlapping chain queries")
	}
}

// TestRankBatchDifferentialStar runs the Boolean star query twice plus
// a projection variant over the same relations.
func TestRankBatchDifferentialStar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	edb, q := workload.Star(3, 1500, 200, 0.5, rng)
	db := fromEngineDB(t, edb)
	queries := []string{
		q.String(),
		"q(x1) :- R1('a', x1), R2(x2), R3(x3), R0(x1, x2, x3)",
		q.String(),
	}
	if bs := assertBatchMatchesRank(t, "star3", db, queries); bs.SharedSubplanHits == 0 {
		t.Error("no shared subplan hits on duplicated star query")
	}
}

// TestRankBatchDifferentialTPCH runs two selection variants of the
// TPC-H supplier query plus a duplicate.
func TestRankBatchDifferentialTPCH(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tp := workload.NewTPCH(0.02, 0.1, rng)
	db := fromEngineDB(t, tp.DB)
	queries := []string{
		tp.Query(tp.Suppliers, "%red%").String(),
		tp.Query(tp.Suppliers, "%green%").String(),
		tp.Query(tp.Suppliers, "%red%").String(),
	}
	if bs := assertBatchMatchesRank(t, "tpch", db, queries); bs.SharedSubplanHits == 0 {
		t.Error("no shared subplan hits on duplicated TPC-H query")
	}
}

// TestRankBatchOracleDifferential cross-checks the executor the batch
// path rides on: for each batch workload shape, the columnar executor's
// plan evaluation is bit-identical to the retained row-at-a-time oracle
// with the batch's optimization flags on.
func TestRankBatchOracleDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	chainDB, chainQ := workload.Chain(3, 2000, 300, 0.5, rng)
	starDB, starQ := workload.Star(3, 1500, 200, 0.5, rng)
	tp := workload.NewTPCH(0.02, 0.1, rng)
	for _, tc := range []struct {
		label string
		db    *engine.DB
		q     string
	}{
		{"chain3", chainDB, chainQ.String()},
		{"star3", starDB, starQ.String()},
		{"tpch", tp.DB, tp.Query(tp.Suppliers, "%red%").String()},
	} {
		q := cq.MustParse(tc.q)
		plans := core.MinimalPlans(q, nil)
		opts := engine.Options{ReuseSubplans: true, SemiJoin: true}
		got := engine.EvalPlansCtx(nil, tc.db, q, plans, opts)
		want := oracle.EvalPlans(tc.db, q, plans, opts)
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
				t.Fatalf("%s: row %d score bits %x != oracle %x",
					tc.label, i, math.Float64bits(got.Score(i)), math.Float64bits(want.Score(i)))
			}
		}
	}
}

// TestRankBatchPrepared pins the server's path: prepared statements
// evaluated through a Batch share subplan results and stay
// bit-identical to standalone RankPrepared.
func TestRankBatchPrepared(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	edb, q := workload.Chain(3, 1500, 250, 0.5, rng)
	db := fromEngineDB(t, edb)
	p, err := db.PrepareContext(context.Background(), q.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.RankPrepared(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := db.NewBatch(nil)
	for round := 0; round < 2; round++ {
		got, err := b.RankPrepared(context.Background(), p)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d answers vs %d", round, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("round %d answer %d: score %v != %v", round, i, got[i].Score, want[i].Score)
			}
		}
	}
	if hits := b.Stats().SharedSubplanHits; hits == 0 {
		t.Fatal("repeated prepared statement produced no shared subplan hits")
	}
}

// TestRankBatchBudgetIsolation checks the failure contract: with a
// batch-wide row budget small enough to trip, each query's Rank call
// fails on its own, and a later batch is unaffected.
func TestRankBatchBudgetIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	edb, q := workload.Chain(3, 2000, 300, 0.5, rng)
	db := fromEngineDB(t, edb)
	b := db.NewBatch(&Options{MaxIntermediateRows: 1})
	for i := 0; i < 2; i++ {
		if ans, err := b.Rank(context.Background(), q.String()); err == nil {
			t.Fatalf("query %d: expected budget error, got %d answers", i, len(ans))
		}
	}
	// A later batch with no budget is unaffected.
	ans, err := db.NewBatch(nil).Rank(context.Background(), q.String())
	if err != nil {
		t.Fatalf("fresh batch: %v", err)
	}
	if len(ans) == 0 {
		t.Fatal("fresh batch: no answers")
	}
}

// TestBatchDeterministicConcurrent: Deterministic scores its answers 1,
// and in a batch its root can be a memo entry other evaluators read, so
// the scores are written into a copy. Four goroutines rank one
// Deterministic query five times each on one Batch; every answer list
// equals the standalone one, and -race sees no write to a shared entry.
func TestBatchDeterministicConcurrent(t *testing.T) {
	db := servedChain(t)
	const q = "q(x0, x3) :- BenchR1(x0, x1), BenchR2(x1, x2), BenchR3(x2, x3), x0 <= 1, x1 <= 5"
	opts := &Options{Method: Deterministic}
	want, err := db.RankContext(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := db.NewBatch(opts)
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 5; i++ {
				got, err := b.Rank(context.Background(), q)
				if err == nil && !reflect.DeepEqual(got, want) {
					err = fmt.Errorf("batch answers %v, standalone %v", got, want)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if b.Stats().SharedSubplanHits == 0 {
		t.Error("no shared subplan hits: the batch never served a memo entry")
	}
}

// TestBatchBudgetCoversEveryMethod: a Batch's one row budget covers the
// lineage methods too. Two Exact queries that each fit the budget alone
// do not fit it together, so the second fails with ErrBudget.
func TestBatchBudgetCoversEveryMethod(t *testing.T) {
	db := movieDB(t)
	ctx := context.Background()
	queries := []string{
		"q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)",
		"q(actor) :- Stars(movie, actor), Fan(actor)",
	}
	n := 0
	for _, q := range queries {
		n = max(n, minBudget(t, func(maxRows int) error {
			_, err := db.RankContext(ctx, q, &Options{Method: Exact, MaxIntermediateRows: maxRows})
			return err
		}))
	}
	b := db.NewBatch(&Options{Method: Exact, MaxIntermediateRows: n})
	if _, err := b.Rank(ctx, queries[0]); err != nil {
		t.Fatalf("first query under budget %d: %v", n, err)
	}
	if _, err := b.Rank(ctx, queries[1]); !errors.Is(err, ErrBudget) {
		t.Errorf("second query under budget %d: err = %v, want ErrBudget", n, err)
	}
}
