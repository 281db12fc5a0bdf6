package engine

import (
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

func BenchmarkLineage(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db, q := benchDB(3000, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalLineage(db, q, nil)
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
