// Package exact computes exact probabilities of monotone DNF lineage
// formulas — the ground truth role SampleSearch plays in the paper's
// experiments.
//
// The algorithm is a DPLL-style weighted model counter specialized to
// monotone DNF: absorption pruning, independent-component decomposition
// (variables not sharing clauses multiply as independent events), Shannon
// expansion on the most frequent variable, and memoization on the
// canonical formula, all over clause bitsets (kernel.go). Like all exact
// methods its cost grows with the treewidth of the lineage, which is
// precisely the scaling limitation the paper's Figures 5e–5h demonstrate.
package exact

import (
	"fmt"
	"sort"
)

// ErrBudget is returned by ProbBudget when the node budget is exhausted
// (or the lineage has a connected component too large to lay out, which
// no budget could finish).
var ErrBudget = fmt.Errorf("exact: node budget exhausted")

// Prob computes the probability that the monotone DNF formula (a
// disjunction of conjunctions of variable ids) is true when variable i is
// independently true with probability probs[i]. An empty formula is
// false; an empty clause is true. Panics if the formula needs more than
// ~50M recursion nodes — use ProbBudget for bounded attempts.
func Prob(clauses [][]int32, probs []float64) float64 {
	p, err := ProbBudget(clauses, probs, 50_000_000)
	if err != nil {
		panic(err)
	}
	return p
}

// readOnceVarLimit bounds the read-once factorization attempt: its
// complement-components step is quadratic in the variable count.
const readOnceVarLimit = 2048

// SolverOptions disables individual solver techniques, for ablation
// benchmarks and tests. The zero value enables everything.
type SolverOptions struct {
	// NoReadOnce skips the read-once factorization attempt.
	NoReadOnce bool
	// NoComponents disables independent-component decomposition.
	NoComponents bool
	// NoMemo disables formula memoization.
	NoMemo bool
}

// ProbBudget is Prob with an explicit bound on the number of recursion
// nodes; it returns ErrBudget when exceeded, which experiment harnesses
// treat as "exact inference infeasible" (the paper's missing
// SampleSearch data points). The budget bounds the call: besides laying
// the lineage out (linear in its size), nothing runs outside it. Read-once
// lineages (the data-level tractable cases of Sen et al. / Roy et al.)
// are factorized in polynomial time, but only by a call whose budget
// exceeds NodesPerClause nodes per clause, and only once that allowance
// is spent.
func ProbBudget(clauses [][]int32, probs []float64, budget int) (float64, error) {
	return ProbWith(clauses, probs, budget, SolverOptions{})
}

// ProbWith is ProbBudget with explicit solver options.
func ProbWith(clauses [][]int32, probs []float64, budget int, opts SolverOptions) (float64, error) {
	k := kernels.Get().(*kernel)
	r, ok := k.run(clauses, probs, nil, budget, opts)
	k.release()
	if !ok {
		return 0, ErrBudget
	}
	return r.p, nil
}

// BruteForce enumerates all possible worlds of the formula's variables —
// exponential, usable up to ~20 variables — and is the independent oracle
// for property tests.
func BruteForce(clauses [][]int32, probs []float64) float64 {
	vars := map[int32]bool{}
	for _, c := range clauses {
		for _, v := range c {
			vars[v] = true
		}
	}
	ids := make([]int32, 0, len(vars))
	for v := range vars {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) > 24 {
		panic("exact: too many variables for brute force")
	}
	// An empty clause means "true".
	for _, c := range clauses {
		if len(c) == 0 {
			return 1
		}
	}
	total := 0.0
	for world := 0; world < 1<<uint(len(ids)); world++ {
		wp := 1.0
		truth := map[int32]bool{}
		for i, v := range ids {
			t := world&(1<<uint(i)) != 0
			truth[v] = t
			if t {
				wp *= probs[v]
			} else {
				wp *= 1 - probs[v]
			}
		}
		sat := false
		for _, c := range clauses {
			all := true
			for _, v := range c {
				if !truth[v] {
					all = false
					break
				}
			}
			if all {
				sat = true
				break
			}
		}
		if sat {
			total += wp
		}
	}
	return total
}
