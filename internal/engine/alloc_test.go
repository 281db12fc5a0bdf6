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
// columnar executor on the join-heavy chain shape: evaluating a
// 3-chain's minimal plans must stay under one pinned allocation ceiling
// and one pinned byte ceiling per instance. Each is set from a
// measurement (see the table below) with 10% headroom. The retained
// row-at-a-time oracle measures ~33k allocs/op on the first instance, so
// any slide back toward per-row appends or map-backed group tables trips
// the gate long before it shows up in benchmarks; a value column carried
// beside every id column (98 595 760 B/op measured) trips its byte
// ceiling. The second instance is the benchmark's mixed_rw chain, whose
// fused projections fold ~30 join rows into each group: hashing those
// groups, with output columns grown by appends, measured 380 allocs and
// 4 046 672 B per op there. It is also the check that the EvalProfiled
// hook allocates nothing while off.
func TestChainJoinAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	if testing.Short() {
		t.Skip("alloc gate skipped in -short")
	}
	gates := []struct {
		label        string
		build        func() (*DB, *cq.Query)
		allocCeiling uint64
		byteCeiling  uint64
	}{
		// Measured 555 allocs and 63 293 520 B per op (exact pre-sizing of
		// join output, open-addressing group tables, one table per join
		// build, single-pass streamed projection, one exec per evaluator,
		// value ids only); 595 and 63 767 605 B with direct-addressed
		// grouping. With scratch from a warm arena, 172 allocs and
		// 2 301 456 B — the answers' columns — plus 10%.
		{"chain3", chainGateDB, 190, 2_532_000},
		// Measured 262 allocs and 2 403 402 B per op with direct-addressed
		// grouping and output columns sized up front; 169 and 81 504 B
		// with the arena, plus 10%.
		{"chain3-ends", endsChainGateDB, 186, 90_000},
	}
	for _, g := range gates {
		db, q := g.build()
		plans := core.MinimalPlans(q, nil)
		var out *Result
		allocs, bytes := allocsPerRun(3, func() {
			out = EvalPlansCtx(nil, db, q, plans, Options{})
		})
		if out.Len() == 0 {
			t.Fatalf("%s evaluation returned no rows", g.label)
		}
		t.Logf("%s eval: %d allocs/op, %d B/op (%d answers)", g.label, allocs, bytes, out.Len())
		if allocs > g.allocCeiling {
			t.Errorf("%s: chain join allocations %d exceed pinned ceiling %d", g.label, allocs, g.allocCeiling)
		}
		if bytes > g.byteCeiling {
			t.Errorf("%s: chain join allocates %d B, over the pinned %d B ceiling", g.label, bytes, g.byteCeiling)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun reporting bytes too: after one
// warm-up call, the mean allocations and bytes allocated per call of f.
// It empties the arena pool first (a pooled arena survives one
// collection), so the warm-up starts cold whatever ran before.
func allocsPerRun(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
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

// endsChainGateDB is the benchmark's mixed_rw chain shape: three
// relations of 6 000 rows whose join columns x1, x2 range over 600
// values and whose end columns x0, x3 over 20, so at most 400 answers.
func endsChainGateDB() (*DB, *cq.Query) {
	rng := rand.New(rand.NewSource(72))
	db := NewDB()
	for ri := 1; ri <= 3; ri++ {
		r := db.CreateRelation(fmt.Sprintf("R%d", ri), []string{"a", "b"})
		lo, hi := 600, 600
		if ri == 1 {
			lo = 20
		}
		if ri == 3 {
			hi = 20
		}
		for i := 0; i < 6000; i++ {
			r.Insert([]Value{Value(rng.Intn(lo)), Value(rng.Intn(hi))}, rng.Float64())
		}
	}
	return db, cq.MustParse("q(x0, x3) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)")
}

// TestLineageAllocGate pins what one lineage query allocates on the
// chain gate's instance, reduced: a fixed number of column, table and
// clause-arena allocations (202 measured, 60 130 384 B; 156 and
// 30 511 418 B with scans, joins and grouping scratch from a warm
// evaluation arena, the lineage itself from the heap), however many
// answers (142 645) and clauses (461 465) it yields, plus 10%. The
// evaluator it replaced made 3 931 017 allocations (311 MB) here: a few
// per joined row and per clause; carrying a value column beside every id
// column measured 232 allocations and 88 MB.
func TestLineageAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	if testing.Short() {
		t.Skip("alloc gate skipped in -short")
	}
	const (
		lineageAllocCeiling = 172
		lineageByteCeiling  = 33_563_000
	)
	db, q := chainGateDB()
	reduced := SemiJoinReduceCtx(nil, db, q)
	var lin *Lineage
	allocs, bytes := allocsPerRun(3, func() { lin = EvalLineageCtx(nil, db, q, reduced) })
	clauses := 0
	for i := 0; i < lin.Len(); i++ {
		clauses += lin.Size(i)
	}
	t.Logf("chain3 lineage: %d allocs/op, %d B/op (%d answers, %d clauses)", allocs, bytes, lin.Len(), clauses)
	if lin.Len() != 142_645 || clauses != 461_465 {
		t.Fatalf("chain3 lineage has %d answers and %d clauses, want 142 645 and 461 465", lin.Len(), clauses)
	}
	if allocs > lineageAllocCeiling {
		t.Errorf("lineage allocations %d exceed pinned ceiling %d", allocs, lineageAllocCeiling)
	}
	if bytes > lineageByteCeiling {
		t.Errorf("lineage allocates %d B, over the pinned %d B ceiling", bytes, lineageByteCeiling)
	}
}

// TestDeterministicAllocGate pins what the deterministic baseline
// allocates on the chain gates' two instances, plus 10%. Run as one
// plan by Eval, every join past the first streams into its projection:
// measured 352 allocs and 27 028 202 B on chain3 and 195 allocs and
// 1 191 786 B on chain3-ends; with scratch from a warm arena, 160 allocs
// and 2 301 034 B (the answers' columns), and 156 allocs and 14 538 B.
// The hand-written fold it replaced — a per-scan dedupe, then
// materialized joins and projections — measured 488 allocs and
// 57 919 240 B, and 347 allocs and 5 810 824 B.
func TestDeterministicAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	if testing.Short() {
		t.Skip("alloc gate skipped in -short")
	}
	gates := []struct {
		label                     string
		build                     func() (*DB, *cq.Query)
		rows                      int
		allocCeiling, byteCeiling uint64
	}{
		{"chain3", chainGateDB, 142_645, 176, 2_532_000},
		{"chain3-ends", endsChainGateDB, 400, 172, 16_000},
	}
	for _, g := range gates {
		db, q := g.build()
		var out *Result
		allocs, bytes := allocsPerRun(3, func() { out = EvalDeterministicCtx(nil, db, q) })
		t.Logf("%s deterministic: %d allocs/op, %d B/op (%d answers)", g.label, allocs, bytes, out.Len())
		if out.Len() != g.rows {
			t.Fatalf("%s: %d answers, want %d", g.label, out.Len(), g.rows)
		}
		if allocs > g.allocCeiling {
			t.Errorf("%s: deterministic allocations %d exceed pinned ceiling %d", g.label, allocs, g.allocCeiling)
		}
		if bytes > g.byteCeiling {
			t.Errorf("%s: deterministic evaluation allocates %d B, over the pinned %d B ceiling", g.label, bytes, g.byteCeiling)
		}
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
	_, perCall := allocsPerRun(5, func() { SemiJoinReduceCtx(nil, db, q) })
	t.Logf("tpch reduce over %d rows: %d B/call (ceiling %d)", rows, perCall, ceiling)
	if perCall > ceiling {
		t.Errorf("one reduction allocates %d B, over the %d B ceiling for %d input rows", perCall, ceiling, rows)
	}
}

// TestSmallProjectionAllocGate pins that a projection's group table and
// chunk scratch are sized from its input: projecting 10 rows must not
// allocate the 8 192-slot table and 2 048-entry scratch that a fixed
// projAccumHint seed costs (156 456 B measured), only what its 5 groups
// need (984 B measured).
func TestSmallProjectionAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	if testing.Short() {
		t.Skip("alloc gate skipped in -short")
	}
	const ceiling = 4 << 10
	var rows [][]Value
	var scores []float64
	for i := 0; i < 10; i++ {
		rows = append(rows, []Value{Value(i % 5), Value(i)})
		scores = append(scores, 0.5)
	}
	in := resultOf([]cq.Var{"x", "y"}, rows, scores)
	onto := []cq.Var{"x"}
	ex := &exec{c: &canceller{}}
	if got := project(in, onto, ex).Len(); got != 5 {
		t.Fatalf("projection returned %d groups, want 5", got)
	}
	_, perCall := allocsPerRun(20, func() { project(in, onto, ex) })
	t.Logf("10-row projection: %d B/call (ceiling %d)", perCall, ceiling)
	if perCall > ceiling {
		t.Errorf("a 10-row projection allocates %d B, over the %d B ceiling", perCall, ceiling)
	}
}
