package cq

import (
	"testing"
)

// FuzzParse checks that the parser never panics and that every
// successfully parsed query survives a String/Parse round trip.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"q(z) :- R(z, x), S(x, y), T(y)",
		"q() :- R(x), S(x, y)",
		"Q(a) :- S(s, a), PS(s, u), P(u, n), s <= 1000, n like '%red%'",
		"q() :- R1('a', x1), R2(x2), R0(x1, x2)",
		"q(",
		"q() :- ",
		"q() :- R(x), R(x)",
		"q() :- R('unclosed",
		"1 + 2",
		"q(x) :- R(x), x >= 0, x != 3, x < 9, x > 1, x = 2",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return
		}
		rendered := q.String()
		back, err := Parse(rendered)
		if err != nil {
			t.Fatalf("round trip failed: %q -> %q: %v", input, rendered, err)
		}
		if back.String() != rendered {
			t.Fatalf("round trip unstable: %q -> %q", rendered, back.String())
		}
	})
}

// FuzzAnalyses runs the structural analyses on every parseable input:
// none of them may panic, and basic coherence must hold. Connectivity
// and minimal cuts are checked against their definitions: a cut-set
// promoted to the head disconnects the query, and no smaller set that
// drops one of its variables does.
func FuzzAnalyses(f *testing.F) {
	f.Add("q(z) :- R(z, x), S(x, y), T(y)")
	f.Add("q() :- A(x), B(y), M(x, y)")
	f.Add("q() :- R(x, x)")
	f.Add("q(z) :- R(z, 'c', x), S(x, y), T(y, u), y <= 3")
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return
		}
		comps := q.Components()
		if len(comps) < 1 {
			t.Fatal("no components")
		}
		total := 0
		for _, c := range comps {
			total += len(c.Atoms)
		}
		if total != len(q.Atoms) {
			t.Fatalf("components lost atoms: %d vs %d", total, len(q.Atoms))
		}
		if q.IsConnected() != (len(comps) == 1) {
			t.Fatalf("IsConnected = %v with %d components", q.IsConnected(), len(comps))
		}
		parts := func(y VarSet) int {
			return len(q.WithHead(append(append([]Var(nil), q.Head...), y.Sorted()...)).Components())
		}
		if len(q.EVars()) <= 12 {
			for _, y := range q.MinCuts() {
				if !y.SubsetOf(NewVarSet(q.EVars()...)) {
					t.Fatalf("cut %v uses non-existential variables", y)
				}
				if n := parts(y); n < 2 {
					t.Fatalf("cut %v leaves %d component(s)", y, n)
				}
				for v := range y {
					if n := parts(y.Minus(NewVarSet(v))); n >= 2 {
						t.Fatalf("cut %v is not minimal: without %s it leaves %d components", y, v, n)
					}
				}
			}
		}
		_ = q.IsHierarchical()
		_ = q.SeparatorVars()
	})
}
