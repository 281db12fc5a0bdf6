package exp

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/engine"
	"lapushdb/internal/workload"
)

// EvalMode is one evaluation strategy of the run-time experiments.
type EvalMode int

const (
	// ModeAllPlans evaluates every minimal plan separately (one SQL
	// statement per plan in the paper) and takes the per-answer min.
	ModeAllPlans EvalMode = iota
	// ModeOpt1 evaluates the single merged plan (Algorithm 2).
	ModeOpt1
	// ModeOpt12 adds reuse of common subplans (views).
	ModeOpt12
	// ModeOpt123 adds the deterministic semi-join reduction.
	ModeOpt123
	// ModeDeterministic is the non-probabilistic baseline ("standard
	// SQL"): set-semantics evaluation of the same query.
	ModeDeterministic
)

// String names the mode as in the paper's legends.
func (m EvalMode) String() string {
	switch m {
	case ModeAllPlans:
		return "All plans"
	case ModeOpt1:
		return "Opt1"
	case ModeOpt12:
		return "Opt1-2"
	case ModeOpt123:
		return "Opt1-3"
	case ModeDeterministic:
		return "Standard SQL"
	}
	return "?"
}

// RunModes is the series order of Figures 5a–5d.
var RunModes = []EvalMode{ModeAllPlans, ModeOpt1, ModeOpt12, ModeOpt123, ModeDeterministic}

// Evaluate runs one strategy over a database and query, returning the
// result (nil for the deterministic mode's probabilities) and the number
// of answers.
func Evaluate(db *engine.DB, q *cq.Query, mode EvalMode) int {
	switch mode {
	case ModeAllPlans:
		return engine.EvalPlansCtx(nil, db, q, core.MinimalPlans(q, nil), engine.Options{}).Len()
	case ModeOpt1:
		sp := core.SinglePlan(q, nil)
		return engine.NewEvaluatorCtx(nil, db, q, engine.Options{}).Eval(sp).Len()
	case ModeOpt12:
		sp := core.SinglePlan(q, nil)
		return engine.NewEvaluatorCtx(nil, db, q, engine.Options{ReuseSubplans: true}).Eval(sp).Len()
	case ModeOpt123:
		sp := core.SinglePlan(q, nil)
		return engine.NewEvaluatorCtx(nil, db, q, engine.Options{ReuseSubplans: true, SemiJoin: true}).Eval(sp).Len()
	case ModeDeterministic:
		return engine.EvalDeterministicCtx(nil, db, q).Len()
	}
	panic("exp: unknown mode")
}

// ChainDomain returns the domain size N that keeps the k-chain answer
// cardinality around the paper's 20–50 range for n tuples per table:
// the expected number of distinct (x0, xk) pairs connected by a path is
// ≈ n · (n/N)^(k-1), solved for ≈ 30 answers.
func ChainDomain(k, n int) int {
	target := 30.0
	ratio := math.Pow(target/float64(n), 1/float64(k-1))
	N := int(float64(n) / ratio)
	if N < 2 {
		N = 2
	}
	return N
}

// StarDomain returns the domain size N that keeps the k-star answer
// probability high but below 1: the expected number of full matches is
// ≈ n · (n/N)^k, solved for ≈ 20 matches.
func StarDomain(k, n int) int {
	target := 20.0
	ratio := math.Pow(target/float64(n), 1/float64(k))
	N := int(float64(n) / ratio)
	if N <= n {
		N = n + 1
	}
	return N
}

// timeIt runs f once and returns the wall-clock seconds.
func timeIt(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// runTimeSweep measures every mode over a database-size sweep.
func runTimeSweep(t *Table, kind string, k int, ns []int, seed int64) {
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed))
		var db *engine.DB
		var q *cq.Query
		if kind == "chain" {
			db, q = workload.Chain(k, n, ChainDomain(k, n), 0.5, rng)
		} else {
			db, q = workload.Star(k, n, StarDomain(k, n), 0.5, rng)
		}
		row := []any{n}
		for _, mode := range RunModes {
			m := mode
			secs := timeIt(func() { Evaluate(db, q, m) })
			row = append(row, fmt.Sprintf("%.4f", secs))
		}
		t.Add(row...)
	}
}

// sizesUpTo returns the decade steps 100, 1k, 10k, ... capped at maxN.
func sizesUpTo(maxN int) []int {
	var ns []int
	for n := 100; n <= maxN; n *= 10 {
		ns = append(ns, n)
	}
	if len(ns) == 0 {
		ns = []int{maxN}
	}
	return ns
}

// Fig5a reproduces Figure 5a: 4-chain query time vs tuples per table.
func Fig5a(cfg Config) *Table {
	t := &Table{ID: "Figure 5a", Title: "4-chain query time [sec] vs tuples per table",
		Header: header5ad()}
	runTimeSweep(t, "chain", 4, sizesUpTo(cfg.MaxN), cfg.Seed)
	return t
}

// Fig5b reproduces Figure 5b: 7-chain query time vs tuples per table
// (132 minimal plans).
func Fig5b(cfg Config) *Table {
	t := &Table{ID: "Figure 5b", Title: "7-chain query time [sec] vs tuples per table",
		Header: header5ad()}
	runTimeSweep(t, "chain", 7, sizesUpTo(cfg.MaxN), cfg.Seed)
	return t
}

// Fig5c reproduces Figure 5c: 2-star query time vs tuples per table.
func Fig5c(cfg Config) *Table {
	t := &Table{ID: "Figure 5c", Title: "2-star query time [sec] vs tuples per table",
		Header: header5ad()}
	runTimeSweep(t, "star", 2, sizesUpTo(cfg.MaxN), cfg.Seed)
	return t
}

// Fig5d reproduces Figure 5d: k-chain query time vs query size k at a
// fixed database size, together with the number of minimal plans (the
// right axis of the paper's figure).
func Fig5d(cfg Config) *Table {
	t := &Table{ID: "Figure 5d", Title: "k-chain query time [sec] vs query size k",
		Header: append([]string{"k", "#MP"}, modeNames()...)}
	n := cfg.MaxN / 10
	if n < 100 {
		n = 100
	}
	maxK := 8
	for k := 2; k <= maxK; k++ {
		rng := rand.New(rand.NewSource(cfg.Seed))
		db, q := workload.Chain(k, n, ChainDomain(k, n), 0.5, rng)
		row := []any{k, len(core.MinimalPlans(q, nil))}
		for _, mode := range RunModes {
			m := mode
			secs := timeIt(func() { Evaluate(db, q, m) })
			row = append(row, fmt.Sprintf("%.4f", secs))
		}
		t.Add(row...)
	}
	return t
}

func modeNames() []string {
	out := make([]string, len(RunModes))
	for i, m := range RunModes {
		out[i] = m.String()
	}
	return out
}

func header5ad() []string {
	return append([]string{"n"}, modeNames()...)
}
