package lapushdb

// Differential tests for batched evaluation: RankBatch shares subplan
// results across the batch's queries, and the contract is that sharing
// is invisible — every query's answers are bit-identical (values,
// order, and float64 score bits) to a standalone Rank with the same
// options.

import (
	"context"
	"math"
	"math/rand"
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
	stats := &RankStats{}
	results := db.RankBatchContext(context.Background(), queries, &Options{Stats: stats})
	if len(results) != len(queries) {
		t.Fatalf("%s: %d results for %d queries", label, len(results), len(queries))
	}
	for i, query := range queries {
		want, err := db.RankContext(context.Background(), query, nil)
		if err != nil {
			t.Fatalf("%s: standalone Rank(%q): %v", label, query, err)
		}
		if results[i].Err != nil {
			t.Fatalf("%s: batch query %d (%q): %v", label, i, query, results[i].Err)
		}
		got := results[i].Answers
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
	return BatchStats{SharedSubplanHits: stats.SharedSubplanHits, SharedSubplanMisses: stats.SharedSubplanMisses}
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
		got := engine.EvalPlans(tc.db, q, plans, opts)
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
// batch-wide row budget small enough to trip, the failing query reports
// ErrBudget in its own slot while earlier queries' results survive.
func TestRankBatchBudgetIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	edb, q := workload.Chain(3, 2000, 300, 0.5, rng)
	db := fromEngineDB(t, edb)
	results := db.RankBatchContext(context.Background(), []string{q.String(), q.String()}, &Options{MaxIntermediateRows: 1})
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("query %d: expected budget error, got %d answers", i, len(r.Answers))
		}
	}
	// A later batch with no budget is unaffected.
	results = db.RankBatchContext(context.Background(), []string{q.String()}, nil)
	if results[0].Err != nil {
		t.Fatalf("fresh batch: %v", results[0].Err)
	}
	if len(results[0].Answers) == 0 {
		t.Fatal("fresh batch: no answers")
	}
}
