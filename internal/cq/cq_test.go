package cq

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseSimple(t *testing.T) {
	q, err := Parse("q(z) :- R(z, x), S(x, y), T(y)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "q" {
		t.Errorf("name = %q, want q", q.Name)
	}
	if len(q.Head) != 1 || q.Head[0] != "z" {
		t.Errorf("head = %v, want [z]", q.Head)
	}
	if len(q.Atoms) != 3 {
		t.Fatalf("atoms = %d, want 3", len(q.Atoms))
	}
	if q.Atoms[1].Rel != "S" || len(q.Atoms[1].Args) != 2 {
		t.Errorf("second atom = %v", q.Atoms[1])
	}
}

func TestParseBoolean(t *testing.T) {
	q := MustParse("q() :- R(x), S(x, y)")
	if !q.IsBoolean() {
		t.Error("expected Boolean query")
	}
	if got := q.EVars(); len(got) != 2 {
		t.Errorf("evars = %v, want [x y]", got)
	}
}

func TestParseConstantsAndPredicates(t *testing.T) {
	q, err := Parse("Q(a) :- S(s, a), PS(s, u), P(u, n), s <= 1000, n like '%red%green%'")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 2 {
		t.Fatalf("preds = %v, want 2", q.Preds)
	}
	if q.Preds[0].Op != OpLE || q.Preds[0].Const != "1000" {
		t.Errorf("pred 0 = %v", q.Preds[0])
	}
	if q.Preds[1].Op != OpLike || q.Preds[1].Const != "%red%green%" {
		t.Errorf("pred 1 = %v", q.Preds[1])
	}
	q2 := MustParse("q() :- R1('a', x1), R2(x2), R0(x1, x2)")
	if q2.Atoms[0].Args[0].IsVar() {
		t.Error("'a' should be a constant")
	}
	if got := q2.EVars(); len(got) != 2 {
		t.Errorf("evars = %v", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	inputs := []string{
		"q(z) :- R(z, x), S(x, y), T(y)",
		"q() :- R(x), S(x, y)",
		"q() :- R1('a', x1), R2(x2), R0(x1, x2)",
		"Q(a) :- S(s, a), PS(s, u), P(u, n), s <= 1000, n like '%red%'",
		"q(x0, x3) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)",
	}
	for _, in := range inputs {
		q := MustParse(in)
		back, err := Parse(q.String())
		if err != nil {
			t.Fatalf("round trip parse of %q failed: %v", q.String(), err)
		}
		if back.String() != q.String() {
			t.Errorf("round trip changed: %q -> %q", q.String(), back.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"q(z)",
		"q(z) :- ",
		"q(z) :- R(z",             // unbalanced
		"q(z) :- R(z, x), R(x)",   // self-join
		"q(w) :- R(z, x)",         // head var not in body
		"q() :- R(x), y <= 5",     // predicate var not in body
		"q() :- R('unterminated)", // bad string
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestValidateSelfJoinFree(t *testing.T) {
	q := &Query{Name: "q", Atoms: []Atom{{Rel: "R", Args: []Term{V("x")}}, {Rel: "R", Args: []Term{V("y")}}}}
	if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "self-join") {
		t.Errorf("expected self-join error, got %v", err)
	}
}

func TestIsHierarchical(t *testing.T) {
	cases := []struct {
		q    string
		want bool
	}{
		// Examples from the paper, Section 2.
		{"q() :- R(x, y), S(y, z), T(y, z, u)", true},
		{"q() :- R(x, y), S(y, z), T(z, u)", false},
		{"q() :- R(x), S(x, y)", true},
		{"q() :- R(x), S(x, y), T(y)", false},
		{"q(z) :- R(z, x), S(x, y), T(y)", false},
		{"q(z) :- R(z, x), S(x, y), K(x, y)", true}, // q1 from the intro
		{"q() :- R(x)", true},
		{"q() :- R(x), S(y)", true},                   // disconnected, both hierarchical
		{"q() :- R(x), S(x), T(x, y), U(y)", false},   // Example 17
		{"q() :- R(x), S(x), T(x, y), U(x, y)", true}, // its dissociation ∆3
		// Head variables are treated as constants.
		{"q(x) :- R(x), S(x, y), T(x, y)", true},
		{"q(x0, x3) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)", false},
	}
	for _, c := range cases {
		q := MustParse(c.q)
		if got := q.IsHierarchical(); got != c.want {
			t.Errorf("IsHierarchical(%s) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSeparatorVars(t *testing.T) {
	q := MustParse("q() :- R(x), S(x, y)")
	if got := q.SeparatorVars(); !got.Equal(NewVarSet("x")) {
		t.Errorf("separators = %v, want {x}", got)
	}
	q = MustParse("q(z) :- R(z, x), S(x, y), K(x, y)")
	if got := q.SeparatorVars(); !got.Equal(NewVarSet("x")) {
		t.Errorf("separators = %v, want {x}", got)
	}
	q = MustParse("q() :- R(x, y), S(y, z)")
	if got := q.SeparatorVars(); !got.Equal(NewVarSet("y")) {
		t.Errorf("separators = %v, want {y}", got)
	}
	q = MustParse("q() :- R(x, y), S(y, z), T(z, u)")
	if got := q.SeparatorVars(); got.Len() != 0 {
		t.Errorf("separators = %v, want empty", got)
	}
}

func TestComponents(t *testing.T) {
	q := MustParse("q() :- R(x, y), S(z, u), T(u, v)")
	comps := q.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if comps[0].Atoms[0].Rel != "R" || len(comps[0].Atoms) != 1 {
		t.Errorf("first component = %v", comps[0])
	}
	if len(comps[1].Atoms) != 2 {
		t.Errorf("second component = %v", comps[1])
	}

	// Head variables never connect atoms.
	q = MustParse("q(x) :- R(x, y), S(x, z)")
	if got := len(q.Components()); got != 2 {
		t.Errorf("components with shared head var = %d, want 2", got)
	}

	// Head variables are distributed to the components using them.
	comps = q.Components()
	for _, c := range comps {
		if len(c.Head) != 1 || c.Head[0] != "x" {
			t.Errorf("component head = %v, want [x]", c.Head)
		}
	}
}

func TestComponentsPredicatesFollow(t *testing.T) {
	q := MustParse("q() :- R(x), S(y), x <= 3, y like '%a%'")
	comps := q.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if len(comps[0].Preds) != 1 || comps[0].Preds[0].Var != "x" {
		t.Errorf("component 0 preds = %v", comps[0].Preds)
	}
	if len(comps[1].Preds) != 1 || comps[1].Preds[0].Var != "y" {
		t.Errorf("component 1 preds = %v", comps[1].Preds)
	}
}

func TestMinCuts(t *testing.T) {
	cases := []struct {
		q    string
		want []string
	}{
		{"q() :- R(x), S(x), T(x, y), U(y)", []string{"{x}", "{y}"}},                  // Example 17
		{"q(z) :- R(z, x), S(x, y), T(y)", []string{"{x}", "{y}"}},                    // q2
		{"q(x0, x3) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)", []string{"{x1}", "{x2}"}}, // 3-chain
		{"q() :- R(x), S(x, y)", []string{"{x}"}},
		{"q() :- R(x, y), S(x, y)", []string{"{x, y}"}},
		{"Q(a) :- S(s, a), PS(s, u), P(u, n)", []string{"{s}", "{u}"}}, // TPC-H query: 2 minimal plans
	}
	for _, c := range cases {
		q := MustParse(c.q)
		cuts := q.MinCuts()
		got := make([]string, len(cuts))
		for i, s := range cuts {
			got[i] = s.String()
		}
		if !sameStringSet(got, c.want) {
			t.Errorf("MinCuts(%s) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestMinCutsDisconnected(t *testing.T) {
	q := MustParse("q() :- R(x), S(y)")
	cuts := q.MinCuts()
	if len(cuts) != 1 || cuts[0].Len() != 0 {
		t.Errorf("MinCuts of disconnected query = %v, want {∅}", cuts)
	}
}

func TestMinPCuts(t *testing.T) {
	// Example after Theorem 24: q :- R(x), S(x, y), Td(y).
	q := MustParse("q() :- R(x), S(x, y), T(y)")
	det := map[string]bool{"T": true}
	isProb := func(rel string) bool { return !det[rel] }
	cuts := q.MinPCuts(isProb)
	if len(cuts) != 1 || cuts[0].String() != "{x}" {
		t.Errorf("MinPCuts = %v, want [{x}]", cuts)
	}
	// With Rd and Td deterministic there is no probabilistic cut at all.
	det = map[string]bool{"T": true, "R": true}
	cuts = q.MinPCuts(isProb)
	if len(cuts) != 0 {
		t.Errorf("MinPCuts with single probabilistic relation = %v, want none", cuts)
	}
}

func TestClosure(t *testing.T) {
	fds := []FD{{Src: []Var{"x"}, Dst: "y"}, {Src: []Var{"y"}, Dst: "z"}}
	got := Closure(NewVarSet("x"), fds)
	if !got.Equal(NewVarSet("x", "y", "z")) {
		t.Errorf("closure = %v, want {x, y, z}", got)
	}
	got = Closure(NewVarSet("z"), fds)
	if !got.Equal(NewVarSet("z")) {
		t.Errorf("closure = %v, want {z}", got)
	}
	// Multi-variable source.
	fds = []FD{{Src: []Var{"a", "b"}, Dst: "c"}}
	if got := Closure(NewVarSet("a"), fds); got.Len() != 1 {
		t.Errorf("partial key closure = %v, want {a}", got)
	}
	if got := Closure(NewVarSet("a", "b"), fds); !got.Has("c") {
		t.Errorf("full key closure = %v, want includes c", got)
	}
}

func TestKeyFDs(t *testing.T) {
	a := MustParse("q() :- S(x, y, z)").Atoms[0]
	fds := KeyFDs(a, []int{0})
	if len(fds) != 2 {
		t.Fatalf("fds = %v, want 2", fds)
	}
	for _, fd := range fds {
		if len(fd.Src) != 1 || fd.Src[0] != "x" {
			t.Errorf("fd src = %v, want [x]", fd.Src)
		}
	}
	// Constants in key positions are skipped in the source.
	a = MustParse("q() :- R('a', x1)").Atoms[0]
	fds = KeyFDs(a, []int{0, 1})
	if len(fds) != 0 {
		t.Errorf("fds = %v, want none (x1 is in the key)", fds)
	}
}

func TestVarSetOps(t *testing.T) {
	a := NewVarSet("x", "y")
	b := NewVarSet("y", "z")
	if got := a.Union(b); got.Len() != 3 {
		t.Errorf("union = %v", got)
	}
	if got := a.Minus(b); !got.Equal(NewVarSet("x")) {
		t.Errorf("minus = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(NewVarSet("y")) {
		t.Errorf("intersect = %v", got)
	}
	if a.SubsetOf(b) {
		t.Error("subset should be false")
	}
	if !NewVarSet("y").SubsetOf(a) {
		t.Error("subset should be true")
	}
	if a.String() != "{x, y}" {
		t.Errorf("string = %q", a.String())
	}
}

func sameStringSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[string]bool{}
	for _, s := range a {
		m[s] = true
	}
	for _, s := range b {
		if !m[s] {
			return false
		}
	}
	return true
}

// TestCheckWidth: the mask analyses number atoms and variables in 64
// bits, so wider queries are refused with an error.
func TestCheckWidth(t *testing.T) {
	wide := func(n int) *Query {
		a := Atom{Rel: "W"}
		for i := 1; i <= n; i++ {
			a.Args = append(a.Args, V(fmt.Sprintf("x%d", i)))
		}
		return &Query{Atoms: []Atom{a, {Rel: "V", Args: []Term{V("x1")}}}}
	}
	if err := wide(64).CheckWidth(); err != nil {
		t.Errorf("64 variables: %v", err)
	}
	if err := wide(65).CheckWidth(); err == nil || !strings.Contains(err.Error(), "65 variables") {
		t.Errorf("65 variables: err = %v", err)
	}
	many := &Query{}
	for i := 0; i < 65; i++ {
		many.Atoms = append(many.Atoms, Atom{Rel: fmt.Sprintf("R%d", i), Args: []Term{C("a")}})
	}
	if err := many.CheckWidth(); err == nil || !strings.Contains(err.Error(), "65 atoms") {
		t.Errorf("65 atoms: err = %v", err)
	}
	// 64 existential variables: the cut search never lists 2^64 sets.
	cuts := wide(64).MinCuts()
	if len(cuts) != 1 || cuts[0].String() != "{x1}" {
		t.Errorf("MinCuts = %v, want [{x1}]", cuts)
	}
}

// TestBitsSubQueries: a sub-query is an atom mask and a head mask, and
// the analyses on it agree with the same analyses on the materialised
// sub-query, whatever order its head variables came in.
func TestBitsSubQueries(t *testing.T) {
	q := MustParse("q(x0, x4) :- R1(x0, x1), R2(x1, x2), R3(x2, x3), R4(x3, x4), x2 <= 3")
	b := NewBits(q)
	atoms := uint64(0b1110) // R2, R3, R4
	head := b.VarMask([]Var{"x4", "x2", "x0"})
	sub := b.Sub(atoms, head)
	if got, want := sub.String(), "q(x2, x4) :- R2(x1, x2), R3(x2, x3), R4(x3, x4), x2 <= 3"; got != want {
		t.Errorf("Sub = %s, want %s", got, want)
	}
	if head&^b.VarsOf(atoms) == 0 {
		t.Fatal("the head mask should hold x0, which the atoms lack")
	}
	comps := b.Components(atoms, head)
	if len(comps) != 2 || comps[0] != 0b0010 || comps[1] != 0b1100 {
		t.Errorf("components = %b, want [10 1100]", comps)
	}
	if got := len(sub.Components()); got != len(comps) {
		t.Errorf("%d components of the materialised sub-query, %d of the masks", got, len(comps))
	}
	whole := b.MinCuts(0b1111, b.VarMask(q.Head), 0b1111)
	var got []string
	for _, y := range whole {
		got = append(got, NewVarSet(b.VarList(y)...).String())
	}
	if !sameStringSet(got, []string{"{x1}", "{x2}", "{x3}"}) {
		t.Errorf("MinCuts = %v, want {x1}, {x2}, {x3}", got)
	}
}
