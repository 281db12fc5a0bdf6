package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
)

// TestChainJoinAllocGate is the allocation-regression gate for the
// columnar executor on the join-heavy chain shape: evaluating the
// 3-chain's minimal plans must stay under one pinned allocation
// ceiling. The ceiling is set from a measurement (see the constant
// below) with 10% headroom. The retained row-at-a-time oracle
// measures ~33k allocs/op on the same instance, so any slide back toward
// per-row appends or map-backed group tables trips the gate long before
// it shows up in benchmarks. It is also the check that the
// EvalProfiled hook allocates nothing while off.
func TestChainJoinAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	if testing.Short() {
		t.Skip("alloc gate skipped in -short")
	}
	// chainAllocCeiling: measured 804 allocs/op (exact pre-sizing of
	// join output, open-addressing group tables, one table per join
	// build, single-pass streamed projection, one exec per evaluator),
	// plus 10%.
	const chainAllocCeiling = 884
	rng := rand.New(rand.NewSource(71))
	q := cq.MustParse("q(x0, x3) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)")
	db := NewDB()
	n := 2*morselSize + 100
	domain := 400
	for ri := 1; ri <= 3; ri++ {
		r := db.CreateRelation(fmt.Sprintf("R%d", ri), []string{"a", "b"})
		for i := 0; i < n; i++ {
			r.Insert([]Value{Value(rng.Intn(domain)), Value(rng.Intn(domain))}, rng.Float64())
		}
	}
	plans := core.MinimalPlans(q, nil)
	var out *Result
	allocs := testing.AllocsPerRun(3, func() {
		out = EvalPlans(db, q, plans, Options{})
	})
	if out.Len() == 0 {
		t.Fatal("chain evaluation returned no rows")
	}
	t.Logf("chain3 eval: %.0f allocs/op (%d answers)", allocs, out.Len())
	if allocs > chainAllocCeiling {
		t.Errorf("chain join allocations %.0f exceed pinned ceiling %d", allocs, chainAllocCeiling)
	}
}

// TestSemiJoinReduceAllocGate pins what one Opt3 reduction may allocate
// on the TPC-H shape at the benchmark's sizes: two int32 row ids per
// input row (the selection vectors take one) plus the value-id bitset.
// A hash set rebuilt per edge and per pass — what the bitset semi-joins
// replaced — measures 3.8 MB here against this 1.2 MB ceiling
// (0.62 MB measured).
func TestSemiJoinReduceAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	if testing.Short() {
		t.Skip("alloc gate skipped in -short")
	}
	db := tpchBench()
	q := tpchShapeQuery(750, "%red%")
	rows := 0
	for _, a := range q.Atoms {
		rows += db.Relation(a.Rel).Len()
	}
	ceiling := uint64(8*rows + (db.NumValues()+63)/64*8)
	const runs = 5
	var before, after runtime.MemStats
	SemiJoinReduce(db, q) // warm: nothing lazy is left to the measured runs
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		SemiJoinReduce(db, q)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("tpch reduce over %d rows: %d B/call (ceiling %d)", rows, perCall, ceiling)
	if perCall > ceiling {
		t.Errorf("one reduction allocates %d B, over the %d B ceiling for %d input rows", perCall, ceiling, rows)
	}
}
