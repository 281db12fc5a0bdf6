package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
)

// benchDB builds a 3-chain database with n tuples per relation.
func benchDB(n int, rng *rand.Rand) (*DB, *cq.Query) {
	db := NewDB()
	R := db.CreateRelation("R", []string{"x", "y"})
	S := db.CreateRelation("S", []string{"y", "z"})
	T := db.CreateRelation("T", []string{"z", "w"})
	N := n / 2
	for i := 0; i < n; i++ {
		R.Insert([]Value{Value(rng.Intn(N)), Value(rng.Intn(N))}, rng.Float64())
		S.Insert([]Value{Value(rng.Intn(N)), Value(rng.Intn(N))}, rng.Float64())
		T.Insert([]Value{Value(rng.Intn(N)), Value(rng.Intn(N))}, rng.Float64())
	}
	return db, cq.MustParse("q(x, w) :- R(x, y), S(y, z), T(z, w)")
}

func BenchmarkEvalMinimalPlan(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db, q := benchDB(10000, rng)
	p := core.MinimalPlans(q, nil)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewEvaluator(db, q, Options{}).Eval(p)
	}
}

func BenchmarkHashJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db, q := benchDB(10000, rng)
	sp := core.SinglePlan(q, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewEvaluator(db, q, Options{ReuseSubplans: true}).Eval(sp)
	}
}

func BenchmarkSemiJoinReduce(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	chainDB, chainQ := benchDB(10000, rng)
	for _, bc := range []struct {
		name string
		db   *DB
		q    *cq.Query
	}{
		{"chain3", chainDB, chainQ},
		// The benchmark dataset's TPC-H sizes (151 500 input rows) under
		// the paper's parameterized query.
		{"tpch", tpchBench(), tpchShapeQuery(750, "%red%")},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SemiJoinReduce(bc.db, bc.q)
			}
		})
	}
}

// anytimeChainDB is the served 3-chain of the anytime_cold workload:
// 6000 rows per relation, join variables over [0, 600), head variables
// over [0, 20).
func anytimeChainDB(rng *rand.Rand) *DB {
	db := NewDB()
	for i := 1; i <= 3; i++ {
		r := db.CreateRelation(fmt.Sprintf("R%d", i), []string{"a", "b"})
		lo, hi := 600, 600
		if i == 1 {
			lo = 20
		}
		if i == 3 {
			hi = 20
		}
		for t := 0; t < 6000; t++ {
			r.Insert([]Value{Value(rng.Intn(lo)), Value(rng.Intn(hi))}, 0.5*rng.Float64())
		}
	}
	return db
}

// BenchmarkLineage times the lineage query alone, the reduction computed
// beforehand: unreduced on the 3-chain, reduced on the anytime_cold
// shape (x0 <= 1, x1 <= 4..7, one query per iteration in turn) and on
// the TPC-H shape.
func BenchmarkLineage(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	chainDB, chainQ := benchDB(3000, rng)
	anyDB := anytimeChainDB(rng)
	type lq struct {
		q       *cq.Query
		reduced map[string][]int32
	}
	var anyQs []lq
	for x1 := 4; x1 < 8; x1++ {
		q := cq.MustParse(fmt.Sprintf("q(x0, x3) :- R1(x0, x1), R2(x1, x2), R3(x2, x3), x0 <= 1, x1 <= %d", x1))
		anyQs = append(anyQs, lq{q, SemiJoinReduce(anyDB, q)})
	}
	tpchQ := tpchShapeQuery(750, "%red%")
	for _, bc := range []struct {
		name string
		db   *DB
		qs   []lq
	}{
		{"chain3", chainDB, []lq{{chainQ, nil}}},
		{"anytime_cold", anyDB, anyQs},
		{"tpch", tpchBench(), []lq{{tpchQ, SemiJoinReduce(tpchBench(), tpchQ)}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x := bc.qs[i%len(bc.qs)]
				EvalLineage(bc.db, x.q, x.reduced)
			}
		})
	}
}

func BenchmarkDeterministic(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db, q := benchDB(10000, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalDeterministic(db, q)
	}
}
