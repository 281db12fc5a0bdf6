package exp

import (
	"fmt"
	"math/rand"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/engine"
	"lapushdb/internal/exact"
	"lapushdb/internal/obdd"
	"lapushdb/internal/rank"
	"lapushdb/internal/workload"
)

// ExtraAblation is a supplementary experiment (not in the paper): the
// full optimization matrix across the benchmark workloads.
func ExtraAblation(cfg Config) *Table {
	t := &Table{ID: "Extra A",
		Title:  "optimization ablation: seconds per evaluation strategy",
		Header: []string{"workload", "All plans", "Opt1", "Opt1-2", "Opt1-3", "Standard SQL"}}
	n := cfg.MaxN / 10
	if n < 100 {
		n = 100
	}
	type wl struct {
		name string
		db   *engine.DB
		q    *cq.Query
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var wls []wl
	{
		db, q := workload.Chain(4, n, ChainDomain(4, n), 0.5, rng)
		wls = append(wls, wl{fmt.Sprintf("4-chain n=%d", n), db, q})
	}
	{
		db, q := workload.Chain(7, n, ChainDomain(7, n), 0.5, rng)
		wls = append(wls, wl{fmt.Sprintf("7-chain n=%d", n), db, q})
	}
	{
		db, q := workload.Star(3, n, StarDomain(3, n), 0.5, rng)
		wls = append(wls, wl{fmt.Sprintf("3-star n=%d", n), db, q})
	}
	{
		tp := workload.NewTPCH(cfg.Scale, 0.5, rng)
		wls = append(wls, wl{fmt.Sprintf("TPC-H sf=%.2f", cfg.Scale), tp.DB, tp.Query(tp.Suppliers, "%red%")})
	}
	for _, w := range wls {
		plans := core.MinimalPlans(w.q, nil)
		sp := core.SinglePlan(w.q, nil)
		row := []any{w.name}
		row = append(row, fmt.Sprintf("%.4f", timeIt(func() {
			engine.EvalPlansCtx(nil, w.db, w.q, plans, engine.Options{})
		})))
		row = append(row, fmt.Sprintf("%.4f", timeIt(func() {
			engine.NewEvaluatorCtx(nil, w.db, w.q, engine.Options{}).Eval(sp)
		})))
		row = append(row, fmt.Sprintf("%.4f", timeIt(func() {
			engine.NewEvaluatorCtx(nil, w.db, w.q, engine.Options{ReuseSubplans: true}).Eval(sp)
		})))
		row = append(row, fmt.Sprintf("%.4f", timeIt(func() {
			engine.NewEvaluatorCtx(nil, w.db, w.q, engine.Options{ReuseSubplans: true, SemiJoin: true}).Eval(sp)
		})))
		row = append(row, fmt.Sprintf("%.4f", timeIt(func() {
			engine.EvalDeterministicCtx(nil, w.db, w.q)
		})))
		t.Add(row...)
	}
	return t
}

// ExtraCorrelation is a supplementary experiment: beyond MAP@10, how do
// the rankings correlate with the ground truth over the whole
// permutation? Kendall's τ-b and Spearman's ρ for dissociation, MC, and
// lineage size on the TPC-H ranking instances.
func ExtraCorrelation(cfg Config) *Table {
	t := &Table{ID: "Extra B",
		Title:  "whole-ranking correlation with ground truth (TPC-H, $2 = '%red%')",
		Header: []string{"method", "MAP@10", "Kendall τ-b", "Spearman ρ", "#runs"}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tp := workload.NewTPCH(cfg.Scale, 0.5, rng)
	type acc struct{ ap, tau, rho []float64 }
	series := map[string]*acc{"Dissociation": {}, "MC(1k)": {}, "Lineage size": {}}
	for rep := 0; rep < cfg.Reps; rep++ {
		pimax := 0.2 + 0.8*float64(rep%5)/4
		workload.AssignProbs(tp.DB, "uniform", pimax, rng)
		q := tp.Query(tp.Suppliers, "%red%")
		run := newRankingRun(tp.DB, q, 5_000_000)
		if run == nil || run.maxPa > 0.999999 {
			continue
		}
		record := func(name string, scores []float64) {
			a := series[name]
			a.ap = append(a.ap, run.apOf(scores))
			a.tau = append(a.tau, rank.KendallTau(run.gt, scores))
			a.rho = append(a.rho, rank.SpearmanRho(run.gt, scores))
		}
		record("Dissociation", run.diss)
		record("MC(1k)", run.mcScores(1000, rng))
		record("Lineage size", run.linSize)
	}
	for _, name := range []string{"Dissociation", "MC(1k)", "Lineage size"} {
		a := series[name]
		t.Add(name, rank.MAP(a.ap), rank.MAP(a.tau), rank.MAP(a.rho), len(a.ap))
	}
	return t
}

// ExtraExactMethods is a supplementary experiment: the cost of the
// exact-inference alternatives on growing TPC-H lineages — the DPLL
// solver (the repository's SampleSearch stand-in), OBDD compilation
// (Olteanu–Huang / SPROUT), one-off circuit compilation, and circuit
// re-evaluation (the marginal cost once compiled).
func ExtraExactMethods(cfg Config) *Table {
	t := &Table{ID: "Extra C",
		Title:  "exact-inference alternatives: seconds for all answers, by max lineage size",
		Header: []string{"$2", "max[lin]", "DPLL", "OBDD", "Circuit compile", "Circuit re-eval"}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tp := workload.NewTPCH(cfg.Scale, 0.5, rng)
	for _, pattern := range []string{"%red%green%", "%red%", "%"} {
		q := tp.Query(tp.Suppliers, pattern)
		lin := engine.EvalLineageCtx(nil, tp.DB, q, engine.SemiJoinReduceCtx(nil, tp.DB, q))
		probs := tp.DB.VarProbs()
		row := []any{pattern, lin.MaxSize()}
		budget := 20_000_000
		// OBDDs degrade by node count, not recursion count; a tighter
		// budget keeps the inevitable blowups cheap to detect.
		obddBudget := 2_000_000
		okDPLL := true
		row = append(row, fmt.Sprintf("%.4f", timeIt(func() {
			for i := 0; i < lin.Len() && okDPLL; i++ {
				if _, err := exact.ProbBudget(lin.Clauses(i), probs, budget); err != nil {
					okDPLL = false
				}
			}
		})))
		okOBDD := true
		row = append(row, fmt.Sprintf("%.4f", timeIt(func() {
			for i := 0; i < lin.Len() && okOBDD; i++ {
				b, err := obdd.Build(lin.Clauses(i), obdd.FrequencyOrder(lin.Clauses(i)), obddBudget)
				if err != nil {
					okOBDD = false
					continue
				}
				b.Prob(probs)
			}
		})))
		var circuits []*exact.Circuit
		okCirc := true
		row = append(row, fmt.Sprintf("%.4f", timeIt(func() {
			for i := 0; i < lin.Len() && okCirc; i++ {
				c, err := exact.Compile(lin.Clauses(i), budget)
				if err != nil {
					okCirc = false
					continue
				}
				circuits = append(circuits, c)
			}
		})))
		row = append(row, fmt.Sprintf("%.4f", timeIt(func() {
			for _, c := range circuits {
				c.Eval(probs)
			}
		})))
		if !okDPLL {
			row[2] = "-"
		}
		if !okOBDD {
			row[3] = "-"
		}
		if !okCirc {
			row[4] = "-"
			row[5] = "-"
		}
		t.Add(row...)
	}
	return t
}
