package lapushdb

// One benchmark per table/figure of the paper's evaluation. Each bench
// exercises the code path that regenerates the corresponding result; the
// experiment harness (cmd/experiments) prints the full tables. Sizes are
// kept small enough for `go test -bench=.` to finish in minutes — pass
// -scale flags to cmd/experiments for the full sweeps.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/engine"
	"lapushdb/internal/exact"
	"lapushdb/internal/exp"
	"lapushdb/internal/workload"
)

// BenchmarkFig2 measures plan enumeration: the #MP and #P columns of
// Figure 2 for the paper's largest query sizes (8-chain: 429 minimal
// plans of 4279 total; 7-star: 5040 of 47293), and Algorithm 2's merged
// plan for the 8- and 10-chains and the 6- and 7-stars.
func BenchmarkFig2(b *testing.B) {
	b.Run("MinimalPlans/chain8", func(b *testing.B) {
		b.ReportAllocs()
		q := workload.ChainQuery(8)
		for i := 0; i < b.N; i++ {
			if got := len(core.MinimalPlans(q, nil)); got != 429 {
				b.Fatalf("#MP = %d", got)
			}
		}
	})
	b.Run("MinimalPlans/star7", func(b *testing.B) {
		b.ReportAllocs()
		q := workload.StarQuery(7)
		for i := 0; i < b.N; i++ {
			if got := len(core.MinimalPlans(q, nil)); got != 5040 {
				b.Fatalf("#MP = %d", got)
			}
		}
	})
	b.Run("AllPlans/chain8", func(b *testing.B) {
		b.ReportAllocs()
		q := workload.ChainQuery(8)
		for i := 0; i < b.N; i++ {
			if got := len(core.AllPlans(q)); got != 4279 {
				b.Fatalf("#P = %d", got)
			}
		}
	})
	b.Run("AllPlans/star7", func(b *testing.B) {
		b.ReportAllocs()
		q := workload.StarQuery(7)
		for i := 0; i < b.N; i++ {
			if got := len(core.AllPlans(q)); got != 47293 {
				b.Fatalf("#P = %d", got)
			}
		}
	})
	for _, k := range []int{8, 10} {
		b.Run(fmt.Sprintf("SinglePlan/chain%d", k), func(b *testing.B) {
			b.ReportAllocs()
			q := workload.ChainQuery(k)
			for i := 0; i < b.N; i++ {
				core.SinglePlan(q, nil)
			}
		})
	}
	for _, k := range []int{6, 7} {
		b.Run(fmt.Sprintf("SinglePlan/star%d", k), func(b *testing.B) {
			b.ReportAllocs()
			q := workload.StarQuery(k)
			for i := 0; i < b.N; i++ {
				core.SinglePlan(q, nil)
			}
		})
	}
}

// benchModes runs the five evaluation strategies of Figures 5a–5c on one
// generated database.
func benchModes(b *testing.B, kind string, k, n int) {
	rng := rand.New(rand.NewSource(1))
	var db *engine.DB
	var q = workload.ChainQuery(2)
	if kind == "chain" {
		db, q = workload.Chain(k, n, exp.ChainDomain(k, n), 0.5, rng)
	} else {
		db, q = workload.Star(k, n, exp.StarDomain(k, n), 0.5, rng)
	}
	for _, mode := range exp.RunModes {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				exp.Evaluate(db, q, mode)
			}
		})
	}
}

// BenchmarkFig5a is the 4-chain run-time experiment (Figure 5a) at
// n = 1000 tuples per table.
func BenchmarkFig5a(b *testing.B) { benchModes(b, "chain", 4, 1000) }

// BenchmarkFig5b is the 7-chain run-time experiment (Figure 5b; 132
// minimal plans) at n = 300.
func BenchmarkFig5b(b *testing.B) { benchModes(b, "chain", 7, 300) }

// BenchmarkFig5c is the 2-star run-time experiment (Figure 5c) at
// n = 3000.
func BenchmarkFig5c(b *testing.B) { benchModes(b, "star", 2, 3000) }

// BenchmarkFig5d sweeps the chain length k (Figure 5d) with all
// optimizations on.
func BenchmarkFig5d(b *testing.B) {
	for k := 2; k <= 8; k++ {
		k := k
		b.Run(fmt.Sprintf("k=%d/Opt1-3", k), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(1))
			db, q := workload.Chain(k, 300, exp.ChainDomain(k, 300), 0.5, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exp.Evaluate(db, q, exp.ModeOpt123)
			}
		})
	}
}

// benchTPCHMethods measures the six series of Figures 5e–5g for one LIKE
// pattern.
func benchTPCHMethods(b *testing.B, pattern string) {
	rng := rand.New(rand.NewSource(1))
	tp := workload.NewTPCH(0.02, 0.5, rng)
	q := tp.Query(tp.Suppliers/2, pattern)
	db := tp.DB
	plans := core.MinimalPlans(q, nil)
	for _, m := range []struct {
		name string
		eval func()
	}{
		{"Diss", func() { engine.EvalPlansCtx(nil, db, q, plans, engine.Options{ReuseSubplans: true}) }},
		{"Diss+Opt3", func() { engine.EvalPlansCtx(nil, db, q, plans, engine.Options{ReuseSubplans: true, SemiJoin: true}) }},
		{"Lineage", func() { engine.EvalLineageCtx(nil, db, q, engine.SemiJoinReduceCtx(nil, db, q)) }},
		{"StandardSQL", func() { engine.EvalDeterministicCtx(nil, db, q) }},
	} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.eval()
			}
		})
	}
}

// BenchmarkFig5e is the TPC-H timing experiment with $2 = '%red%green%'
// (Figure 5e).
func BenchmarkFig5e(b *testing.B) { benchTPCHMethods(b, "%red%green%") }

// BenchmarkFig5f is the TPC-H timing experiment with $2 = '%red%'
// (Figure 5f).
func BenchmarkFig5f(b *testing.B) { benchTPCHMethods(b, "%red%") }

// BenchmarkFig5g is the TPC-H timing experiment with $2 = '%'
// (Figure 5g; the largest lineages).
func BenchmarkFig5g(b *testing.B) { benchTPCHMethods(b, "%") }

// BenchmarkFig5h measures the full six-method point measurement that
// Figure 5h aggregates across patterns (the harness sorts the same
// points by max lineage size).
func BenchmarkFig5h(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tp := workload.NewTPCH(0.01, 0.5, rng)
	q := tp.Query(tp.Suppliers, "%red%")
	db := tp.DB
	b.Run("DissVsLineagePoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plans := core.MinimalPlans(q, nil)
			engine.EvalPlansCtx(nil, db, q, plans, engine.Options{ReuseSubplans: true, SemiJoin: true})
			engine.EvalLineageCtx(nil, db, q, engine.SemiJoinReduceCtx(nil, db, q))
		}
	})
}

// BenchmarkFig5i measures one full ranking experiment of Figure 5i:
// ground truth, dissociation, lineage-size, and MC rankings plus their
// AP@10 scores.
func BenchmarkFig5i(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.QuickConfig()
		cfg.Seed = int64(i + 1)
		exp.Fig5i(cfg)
	}
}

// BenchmarkFig5j measures the avg[pa]-bucketed ranking comparison of
// Figure 5j.
func BenchmarkFig5j(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.QuickConfig()
		cfg.Seed = int64(i + 1)
		exp.Fig5j(cfg)
	}
}

// BenchmarkFig5k measures the lineage-size ranking study of Figure 5k.
func BenchmarkFig5k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.QuickConfig()
		cfg.Seed = int64(i + 1)
		exp.Fig5k(cfg)
	}
}

// BenchmarkFig5l measures the avg[d] sensitivity study of Figure 5l.
func BenchmarkFig5l(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.QuickConfig()
		cfg.Seed = int64(i + 1)
		exp.Fig5l(cfg)
	}
}

// BenchmarkFig5m measures the MC-vs-dissociation regime map of
// Figure 5m.
func BenchmarkFig5m(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.QuickConfig()
		cfg.Seed = int64(i + 1)
		exp.Fig5m(cfg)
	}
}

// BenchmarkFig5n measures the probability-scaling study of Figure 5n.
func BenchmarkFig5n(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.QuickConfig()
		cfg.Seed = int64(i + 1)
		exp.Fig5n(cfg)
	}
}

// BenchmarkFig5o measures the ranking-quality decomposition of
// Figure 5o.
func BenchmarkFig5o(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.QuickConfig()
		cfg.Seed = int64(i + 1)
		exp.Fig5o(cfg)
	}
}

// BenchmarkFig5p measures the scaled-dissociation study of Figure 5p.
func BenchmarkFig5p(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.QuickConfig()
		cfg.Seed = int64(i + 1)
		exp.Fig5p(cfg)
	}
}

// BenchmarkTopK measures the threshold top-k operator against full
// exact ranking on one TPC-H database: rank-exact-all runs exact
// inference on every answer's lineage, topk-via-bounds is RankTopK with
// k = 10, which also pays for the plan bounds but stops exact inference
// once the next bound ranks after the k-th exact answer.
func BenchmarkTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tp := workload.NewTPCH(0.02, 0.5, rng)
	q := tp.Query(tp.Suppliers, "%red%")
	db := tp.DB
	b.Run("rank-exact-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lin := engine.EvalLineageCtx(nil, db, q, engine.SemiJoinReduceCtx(nil, db, q))
			for j := 0; j < lin.Len(); j++ {
				if _, err := exactProb(lin.Clauses(j), db.VarProbs()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("topk-via-bounds", func(b *testing.B) {
		ldb := fromEngineDB(b, db)
		query := q.String()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ldb.RankTopK(context.Background(), query, 10, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func exactProb(clauses [][]int32, probs []float64) (float64, error) {
	return exact.ProbBudget(clauses, probs, 50_000_000)
}

// BenchmarkRank measures end-to-end ranking of the paper's unsafe
// 3-chain (all minimal plans, Opt2 and Opt3 on).
func BenchmarkRank(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	edb, q := workload.Chain(3, 30000, 2000, 0.5, rng)
	plans := core.MinimalPlans(q, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := engine.EvalPlansCtx(nil, edb, q, plans, engine.Options{ReuseSubplans: true, SemiJoin: true}); res.Len() == 0 {
			b.Fatal("no answers")
		}
	}
}

// BenchmarkRankBatch compares a loop of standalone Rank calls against
// RankBatch on overlapping chain queries (the full 3-chain, its prefix
// and suffix, and a duplicate). The batch variant must report
// cross-query shared-subplan hits — the benchmark fails otherwise, so
// a regression that silently disables sharing cannot hide behind the
// timings.
func BenchmarkRankBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	edb, q := workload.Chain(3, 10000, 1500, 0.5, rng)
	var buf bytes.Buffer
	if err := edb.Save(&buf); err != nil {
		b.Fatal(err)
	}
	db, err := Load(&buf)
	if err != nil {
		b.Fatal(err)
	}
	queries := []string{
		q.String(),
		"q(x0, x2) :- R1(x0, x1), R2(x1, x2)",
		"q(x1, x3) :- R2(x1, x2), R3(x2, x3)",
		q.String(),
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, query := range queries {
				if _, err := db.RankContext(context.Background(), query, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		var shared int64
		for i := 0; i < b.N; i++ {
			batch := db.NewBatch(nil)
			for _, query := range queries {
				if _, err := batch.Rank(context.Background(), query); err != nil {
					b.Fatal(err)
				}
			}
			shared = batch.Stats().SharedSubplanHits
		}
		b.StopTimer()
		if shared == 0 {
			b.Fatal("no cross-query shared-subplan hits")
		}
		b.ReportMetric(float64(shared), "shared-hits")
	})
}

// BenchmarkAnytime measures time-to-epsilon of the anytime evaluator on
// the unsafe 3-chain: a loose target stops after the dissociation plan
// bounds, tighter ones pay for Monte Carlo rounds and, at the tight
// end, exact collapse of the residual answers. The reported extra
// metrics record how much refinement each target bought.
func BenchmarkAnytime(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	edb, q := workload.Chain(3, 900, 120, 0.5, rng)
	db := fromEngineDB(b, edb)
	query := q.String()
	for _, eps := range []float64{0.2, 0.05, 0.01, 0.001} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			var res *AnytimeResult
			for i := 0; i < b.N; i++ {
				var err error
				// The MC cap hands the tight targets over to exact collapse
				// instead of grinding sampling to the default per-answer cap.
				res, err = db.RankAnytimeContext(context.Background(), query, &AnytimeOptions{Epsilon: eps, Seed: 7, MCMaxSamples: 8192})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatalf("eps=%g did not converge: width %g", eps, res.Width)
				}
			}
			b.ReportMetric(float64(res.PlansEvaluated), "plans")
			b.ReportMetric(float64(res.MCSamples), "mc-samples")
			b.ReportMetric(res.Width, "width")
		})
	}
}

// servedChain builds the benchmark's served 3-chain shape (perfbench
// dataset.go: 6 000 tuples per relation, join variables over [0, 600),
// head variables over [0, 20), probabilities up to 0.5, generator seed 1).
func servedChain(tb testing.TB) *DB {
	tb.Helper()
	const n, domain, ends = 6000, 600, 20
	r := rand.New(rand.NewSource(1))
	db := Open()
	for i := 1; i <= 3; i++ {
		rel, err := db.CreateRelation(fmt.Sprintf("BenchR%d", i), fmt.Sprintf("x%d", i-1), fmt.Sprintf("x%d", i))
		if err != nil {
			tb.Fatal(err)
		}
		for t := 0; t < n; t++ {
			lo, hi := domain, domain
			if i == 1 {
				lo = ends
			}
			if i == 3 {
				hi = ends
			}
			if err := rel.Insert(r.Float64()*0.5, r.Intn(lo), r.Intn(hi)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return db
}

// BenchmarkAnytimeShapes is the "no shape pays" check of the anytime
// staging on the served chain at epsilon 0.1 and a 4 096-sample cap: the
// anytime_cold shape and a wider one (every lineage inside the first
// exact pass), one whose lineages straddle the pass's admission size, and
// a hot-pool member whose ~1.5k-clause lineages the pass must not touch.
func BenchmarkAnytimeShapes(b *testing.B) {
	db := servedChain(b)
	const body = "q(x0, x3) :- BenchR1(x0, x1), BenchR2(x1, x2), BenchR3(x2, x3)"
	for _, sel := range []string{"x0 <= 1, x1 <= 5", "x0 <= 3, x1 <= 30", "x0 <= 5, x1 <= 100", "x1 <= 599, x2 >= 0"} {
		b.Run(sel, func(b *testing.B) {
			var res *AnytimeResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = db.RankAnytimeContext(context.Background(), body+", "+sel, &AnytimeOptions{Epsilon: 0.1, Seed: int64(i + 1), MCMaxSamples: 4096})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatalf("did not converge: width %g", res.Width)
				}
			}
			b.ReportMetric(float64(len(res.Answers)), "answers")
			b.ReportMetric(float64(res.MCSamples), "mc-samples")
		})
	}
}
