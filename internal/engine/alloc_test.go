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
	db, q := chainGateDB()
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

// chainGateDB is the 3-chain instance of the allocation gates: three
// relations of 2·morselSize + 100 rows over a 400-value domain.
func chainGateDB() (*DB, *cq.Query) {
	rng := rand.New(rand.NewSource(71))
	db := NewDB()
	for ri := 1; ri <= 3; ri++ {
		r := db.CreateRelation(fmt.Sprintf("R%d", ri), []string{"a", "b"})
		for i := 0; i < 2*morselSize+100; i++ {
			r.Insert([]Value{Value(rng.Intn(400)), Value(rng.Intn(400))}, rng.Float64())
		}
	}
	return db, cq.MustParse("q(x0, x3) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)")
}

// TestLineageAllocGate pins what one lineage query allocates on the
// chain gate's instance, reduced: a fixed number of column, table and
// arena allocations (232 measured, 88 MB), however many answers
// (142 645) and clauses (461 465) it yields, plus 10%. The evaluator it
// replaced made 3 931 017 allocations (311 MB) here: a few per joined
// row and per clause.
func TestLineageAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	if testing.Short() {
		t.Skip("alloc gate skipped in -short")
	}
	const lineageAllocCeiling = 255
	db, q := chainGateDB()
	reduced := SemiJoinReduce(db, q)
	var lin *Lineage
	allocs := testing.AllocsPerRun(3, func() { lin = EvalLineage(db, q, reduced) })
	clauses := 0
	for i := 0; i < lin.Len(); i++ {
		clauses += lin.Size(i)
	}
	t.Logf("chain3 lineage: %.0f allocs/op (%d answers, %d clauses)", allocs, lin.Len(), clauses)
	if lin.Len() != 142_645 || clauses != 461_465 {
		t.Fatalf("chain3 lineage has %d answers and %d clauses, want 142 645 and 461 465", lin.Len(), clauses)
	}
	if allocs > lineageAllocCeiling {
		t.Errorf("lineage allocations %.0f exceed pinned ceiling %d", allocs, lineageAllocCeiling)
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

// TestSmallProjectionAllocGate pins that a projection's group table and
// chunk scratch are sized from its input: projecting 10 rows must not
// allocate the 8 192-slot table and 2 048-entry scratch that a fixed
// projAccumHint seed costs (156 456 B measured), only what its 5 groups
// need (1 192 B measured).
func TestSmallProjectionAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	if testing.Short() {
		t.Skip("alloc gate skipped in -short")
	}
	const ceiling = 4 << 10
	in := newResult([]cq.Var{"x", "y"})
	for i := 0; i < 10; i++ {
		for k, v := range []int{i % 5, i} {
			in.vals[k] = append(in.vals[k], Value(v))
			in.ids[k] = append(in.ids[k], int32(v))
		}
		in.scores = append(in.scores, 0.5)
	}
	onto := []cq.Var{"x"}
	ex := &exec{c: &canceller{}}
	if got := project(in, onto, ex).Len(); got != 5 {
		t.Fatalf("projection returned %d groups, want 5", got)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		project(in, onto, ex)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("10-row projection: %d B/call (ceiling %d)", perCall, ceiling)
	if perCall > ceiling {
		t.Errorf("a 10-row projection allocates %d B, over the %d B ceiling", perCall, ceiling)
	}
}
