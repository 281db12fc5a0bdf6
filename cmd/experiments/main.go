// Command experiments reproduces the tables and figures of the paper's
// evaluation section. Each figure prints as an aligned text table with
// the same rows/series the paper reports.
//
// Usage:
//
//	experiments -fig 2            # Figure 2 (plan counts)
//	experiments -fig 5a           # 4-chain run times
//	experiments -fig all          # everything
//	experiments -fig 5i -reps 20 -scale 0.05
//
// The -scale flag sets the TPC-H scale factor (the paper used 1.0; the
// default 0.05 reproduces every shape in minutes). -maxn caps the
// tuples-per-table axis of the Setup 2 experiments.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lapushdb/internal/cq"
	"lapushdb/internal/exp"
	"lapushdb/internal/viz"
)

func main() {
	fig := flag.String("fig", "all", "figure to reproduce: 1a, 1b (DOT), 2, 3, 5a..5p, xa/xb/xc (extras), or all")
	def := exp.DefaultConfig()
	scale := flag.Float64("scale", def.Scale, "TPC-H scale factor (paper: 1.0)")
	reps := flag.Int("reps", def.Reps, "repetitions for ranking experiments")
	maxn := flag.Int("maxn", def.MaxN, "max tuples per table for run-time sweeps")
	seed := flag.Int64("seed", def.Seed, "random seed")
	flag.Parse()

	cfg := exp.Config{Seed: *seed, Scale: *scale, Reps: *reps, MaxN: *maxn}

	// Figures 1 and 3 are illustrations, not measurements: emit Graphviz
	// DOT for Example 17's dissociation lattice (1a) and minimal plans
	// (1b), and the augmented incidence matrices of Example 23 with
	// deterministic relations (3).
	switch *fig {
	case "1a", "1b":
		q := cq.MustParse("q() :- R(x), S(x), T(x, y), U(y)")
		if *fig == "1a" {
			fmt.Print(viz.LatticeDOT(q))
		} else {
			fmt.Print(viz.MinimalPlansDOT(q, nil))
		}
		return
	case "3":
		q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
		fmt.Println("(a) no schema knowledge:")
		fmt.Println(viz.LatticeMatrices(q, nil))
		fmt.Println("(b) T deterministic:")
		fmt.Println(viz.LatticeMatrices(q, map[string]bool{"T": true}))
		fmt.Println("(c) R and T deterministic:")
		fmt.Println(viz.LatticeMatrices(q, map[string]bool{"R": true, "T": true}))
		return
	}

	figures := map[string]func() *exp.Table{
		"2":  func() *exp.Table { return exp.Fig2(7, 8) },
		"5a": func() *exp.Table { return exp.Fig5a(cfg) },
		"5b": func() *exp.Table { return exp.Fig5b(cfg) },
		"5c": func() *exp.Table { return exp.Fig5c(cfg) },
		"5d": func() *exp.Table { return exp.Fig5d(cfg) },
		"5e": func() *exp.Table { return exp.Fig5e(cfg) },
		"5f": func() *exp.Table { return exp.Fig5f(cfg) },
		"5g": func() *exp.Table { return exp.Fig5g(cfg) },
		"5h": func() *exp.Table { return exp.Fig5h(cfg) },
		"5i": func() *exp.Table { return exp.Fig5i(cfg) },
		"5j": func() *exp.Table { return exp.Fig5j(cfg) },
		"5k": func() *exp.Table { return exp.Fig5k(cfg) },
		"5l": func() *exp.Table { return exp.Fig5l(cfg) },
		"5m": func() *exp.Table { return exp.Fig5m(cfg) },
		"5n": func() *exp.Table { return exp.Fig5n(cfg) },
		"5o": func() *exp.Table { return exp.Fig5o(cfg) },
		"5p": func() *exp.Table { return exp.Fig5p(cfg) },
		// Supplementary experiments beyond the paper.
		"xa": func() *exp.Table { return exp.ExtraAblation(cfg) },
		"xb": func() *exp.Table { return exp.ExtraCorrelation(cfg) },
		"xc": func() *exp.Table { return exp.ExtraExactMethods(cfg) },
	}
	order := []string{"2", "5a", "5b", "5c", "5d", "5e", "5f", "5g", "5h", "5i", "5j", "5k", "5l", "5m", "5n", "5o", "5p", "xa", "xb", "xc"}

	run := func(name string) {
		f, ok := figures[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q (want 1a, 1b, 2, 5a..5p, xa, xb, all)\n", name)
			os.Exit(2)
		}
		start := time.Now()
		t := f()
		fmt.Println(t.String())
		fmt.Printf("(%s computed in %.1fs)\n\n", t.ID, time.Since(start).Seconds())
	}

	if *fig == "all" {
		for _, name := range order {
			run(name)
		}
		return
	}
	run(*fig)
}
