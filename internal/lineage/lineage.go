// Package lineage is a small Boolean-provenance library for monotone DNF
// formulas over tuple variables: normalization, statistics, variable
// dissociation (the formula-level operation of Theorem 8 of the paper),
// rendering, and read-once factorization.
//
// Read-once formulas — where every variable can be made to occur exactly
// once — admit linear-time exact probability computation. They are the
// data-level tractable cases studied by Sen et al. and Roy et al., which
// the paper cites as the complementary approach to its query-level
// dissociation; internal/exact uses the factorization as a fast path.
package lineage

import (
	"fmt"
	"sort"
	"strings"
)

// DNF is a monotone formula in disjunctive normal form: a disjunction of
// clauses, each a conjunction of variable ids. An empty DNF is false; a
// DNF containing an empty clause is true.
type DNF [][]int32

// Normalize sorts every clause, removes duplicate variables and clauses,
// applies absorption (a superset of another clause is redundant), and
// sorts the clause list. The receiver is not modified.
func (f DNF) Normalize() DNF {
	norm := make(DNF, 0, len(f))
	for _, c := range f {
		cc := append([]int32(nil), c...)
		sort.Slice(cc, func(i, j int) bool { return cc[i] < cc[j] })
		uniq := cc[:0]
		for i, v := range cc {
			if i == 0 || cc[i-1] != v {
				uniq = append(uniq, v)
			}
		}
		norm = append(norm, uniq)
	}
	sort.Slice(norm, func(i, j int) bool { return clauseLess(norm[i], norm[j]) })
	dedup := norm[:0]
	for i, c := range norm {
		if i == 0 || !clauseEqual(norm[i-1], c) {
			dedup = append(dedup, c)
		}
	}
	return absorb(dedup)
}

func absorb(f DNF) DNF {
	byLen := append(DNF(nil), f...)
	sort.Slice(byLen, func(i, j int) bool { return len(byLen[i]) < len(byLen[j]) })
	var kept DNF
	for _, c := range byLen {
		redundant := false
		for _, k := range kept {
			if isSubset(k, c) {
				redundant = true
				break
			}
		}
		if !redundant {
			kept = append(kept, c)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return clauseLess(kept[i], kept[j]) })
	return kept
}

// Vars returns the distinct variables of the formula in ascending order.
func (f DNF) Vars() []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, c := range f {
		for _, v := range c {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Size returns the number of clauses (the paper's lineage size).
func (f DNF) Size() int { return len(f) }

// IsTrue reports whether the formula is trivially true (has an empty
// clause).
func (f DNF) IsTrue() bool {
	for _, c := range f {
		if len(c) == 0 {
			return true
		}
	}
	return false
}

// String renders the formula with a naming function, e.g.
// "X1·X2 ∨ X1·X3".
func (f DNF) String(name func(int32) string) string {
	if name == nil {
		name = func(v int32) string { return fmt.Sprintf("x%d", v) }
	}
	if len(f) == 0 {
		return "false"
	}
	var cls []string
	for _, c := range f {
		if len(c) == 0 {
			return "true"
		}
		var vs []string
		for _, v := range c {
			vs = append(vs, name(v))
		}
		cls = append(cls, strings.Join(vs, "·"))
	}
	return strings.Join(cls, " ∨ ")
}

func clauseLess(a, b []int32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func clauseEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// isSubset reports whether sorted a ⊆ sorted b.
func isSubset(a, b []int32) bool {
	i := 0
	for _, v := range b {
		if i < len(a) && a[i] == v {
			i++
		}
	}
	return i == len(a)
}
