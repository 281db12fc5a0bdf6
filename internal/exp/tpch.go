package exp

import (
	"fmt"
	"math/rand"
	"sort"

	"lapushdb/internal/core"
	"lapushdb/internal/engine"
	"lapushdb/internal/exact"
	"lapushdb/internal/mc"
	"lapushdb/internal/workload"
)

// tpchMethods is the series order of Figures 5e–5h.
var tpchMethods = []string{"Diss", "Diss+Opt3", "SampleSearch", "MC(1k)", "Lineage query", "Standard SQL"}

// tpchPoint is one measurement of Figures 5e–5h: the query parameters,
// the maximum lineage size, and seconds per method ("-" when exact
// inference exceeded its budget, as the paper's missing SampleSearch
// points do).
type tpchPoint struct {
	dollar1 int
	pattern string
	maxLin  int
	times   map[string]string
}

// runTPCHPoint measures all six methods for one ($1, $2) setting.
func runTPCHPoint(tp *workload.TPCH, dollar1 int, pattern string, mcSamples int, exactBudget int, seed int64) tpchPoint {
	db := tp.DB
	q := tp.Query(dollar1, pattern)
	pt := tpchPoint{dollar1: dollar1, pattern: pattern, times: map[string]string{}}

	// Diss: the two minimal plans evaluated individually.
	plans := core.MinimalPlans(q, nil)
	pt.times["Diss"] = fmt.Sprintf("%.4f", timeIt(func() {
		engine.EvalPlansCtx(nil, db, q, plans, engine.Options{ReuseSubplans: true})
	}))
	// Diss+Opt3: with the deterministic semi-join reduction.
	pt.times["Diss+Opt3"] = fmt.Sprintf("%.4f", timeIt(func() {
		engine.EvalPlansCtx(nil, db, q, plans, engine.Options{ReuseSubplans: true, SemiJoin: true})
	}))
	// Lineage query: the minimum work of any external probabilistic
	// method.
	var lin *engine.Lineage
	pt.times["Lineage query"] = fmt.Sprintf("%.4f", timeIt(func() {
		lin = engine.EvalLineageCtx(nil, db, q, engine.SemiJoinReduceCtx(nil, db, q))
	}))
	pt.maxLin = lin.MaxSize()
	// SampleSearch (exact WMC on the lineage), including the lineage
	// retrieval as in the paper's accounting.
	okExact := true
	exactSecs := timeIt(func() {
		l := engine.EvalLineageCtx(nil, db, q, engine.SemiJoinReduceCtx(nil, db, q))
		for i := 0; i < l.Len() && okExact; i++ {
			if _, err := exact.ProbBudget(l.Clauses(i), db.VarProbs(), exactBudget); err != nil {
				okExact = false
			}
		}
	})
	if okExact {
		pt.times["SampleSearch"] = fmt.Sprintf("%.4f", exactSecs)
	} else {
		pt.times["SampleSearch"] = "-"
	}
	// MC(1k), again including lineage retrieval.
	rng := rand.New(rand.NewSource(seed))
	pt.times["MC(1k)"] = fmt.Sprintf("%.4f", timeIt(func() {
		l := engine.EvalLineageCtx(nil, db, q, engine.SemiJoinReduceCtx(nil, db, q))
		for i := 0; i < l.Len(); i++ {
			mc.EstimateCtx(nil, l.Clauses(i), db.VarProbs(), mcSamples, rng)
		}
	}))
	// Standard SQL: deterministic set-semantics evaluation.
	pt.times["Standard SQL"] = fmt.Sprintf("%.4f", timeIt(func() {
		engine.EvalDeterministicCtx(nil, db, q)
	}))
	return pt
}

// dollar1Sweep returns the $1 values for a given supplier count,
// mirroring the paper's 500..10k sweep proportionally.
func dollar1Sweep(suppliers int) []int {
	fracs := []float64{0.05, 0.1, 0.25, 0.5, 1.0}
	out := make([]int, len(fracs))
	for i, f := range fracs {
		out[i] = int(f * float64(suppliers))
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out
}

func fig5eg(cfg Config, id, pattern string) *Table {
	t := &Table{ID: id,
		Title:  fmt.Sprintf("TPC-H query time [sec] vs $1, $2 = '%s'", pattern),
		Header: append([]string{"$1", "max[lin]"}, tpchMethods...)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tp := workload.NewTPCH(cfg.Scale, 0.5, rng)
	for _, d1 := range dollar1Sweep(tp.Suppliers) {
		pt := runTPCHPoint(tp, d1, pattern, 1000, exactBudgetFor(cfg), cfg.Seed)
		row := []any{d1, pt.maxLin}
		for _, m := range tpchMethods {
			row = append(row, pt.times[m])
		}
		t.Add(row...)
	}
	return t
}

// exactBudgetFor bounds exact inference so large-lineage points give up
// (reported as "-") instead of hanging, as in the paper.
func exactBudgetFor(cfg Config) int {
	return 2_000_000
}

// Fig5e reproduces Figure 5e: $2 = '%red%green%' (small lineages; exact
// inference feasible).
func Fig5e(cfg Config) *Table { return fig5eg(cfg, "Figure 5e", "%red%green%") }

// Fig5f reproduces Figure 5f: $2 = '%red%' (medium lineages).
func Fig5f(cfg Config) *Table { return fig5eg(cfg, "Figure 5f", "%red%") }

// Fig5g reproduces Figure 5g: $2 = '%' (large lineages; exact inference
// infeasible, dissociation still fast).
func Fig5g(cfg Config) *Table { return fig5eg(cfg, "Figure 5g", "%") }

// Fig5h reproduces Figure 5h: the same six series as 5e–5g plotted
// against the maximum lineage size.
func Fig5h(cfg Config) *Table {
	t := &Table{ID: "Figure 5h",
		Title:  "TPC-H query time [sec] vs max lineage size (combining 5e–5g)",
		Header: append([]string{"max[lin]", "$2", "$1"}, tpchMethods...)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tp := workload.NewTPCH(cfg.Scale, 0.5, rng)
	var pts []tpchPoint
	for _, pattern := range []string{"%red%green%", "%red%", "%"} {
		for _, d1 := range dollar1Sweep(tp.Suppliers) {
			pts = append(pts, runTPCHPoint(tp, d1, pattern, 1000, exactBudgetFor(cfg), cfg.Seed))
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].maxLin < pts[j].maxLin })
	for _, pt := range pts {
		row := []any{pt.maxLin, pt.pattern, pt.dollar1}
		for _, m := range tpchMethods {
			row = append(row, pt.times[m])
		}
		t.Add(row...)
	}
	return t
}
