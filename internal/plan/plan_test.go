package plan

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"lapushdb/internal/cq"
)

func scanOf(q *cq.Query, rel string) *Scan {
	a := q.Atom(rel)
	return NewScan(*a, q.PredsOnAtom(*a))
}

func TestJoinCanonicalOrder(t *testing.T) {
	q := cq.MustParse("q() :- R(x), S(x)")
	r, s := scanOf(q, "R"), scanOf(q, "S")
	j1 := NewJoin(r, s)
	j2 := NewJoin(s, r)
	if j1.Key() != j2.Key() {
		t.Errorf("join order changed key: %q vs %q", j1.Key(), j2.Key())
	}
}

func TestJoinFlattens(t *testing.T) {
	q := cq.MustParse("q() :- R(x), S(x), T(x)")
	j := NewJoin(NewJoin(scanOf(q, "R"), scanOf(q, "S")), scanOf(q, "T"))
	if jj, ok := j.(*Join); !ok || len(jj.Subs) != 3 {
		t.Errorf("nested join did not flatten: %v", String(j))
	}
}

func TestProjectTrivialCollapses(t *testing.T) {
	q := cq.MustParse("q() :- R(x, y)")
	s := scanOf(q, "R")
	p := NewProject([]cq.Var{"x", "y"}, s)
	if p != Node(s) {
		t.Error("trivial projection should collapse to the child")
	}
	p = NewProject([]cq.Var{"x"}, s)
	if _, ok := p.(*Project); !ok {
		t.Error("nontrivial projection should stay")
	}
	if got := p.(*Project).Away(); len(got) != 1 || got[0] != "y" {
		t.Errorf("away = %v, want [y]", got)
	}
}

func TestMinDedup(t *testing.T) {
	q := cq.MustParse("q() :- R(x, y)")
	a := NewProject([]cq.Var{"x"}, scanOf(q, "R"))
	b := NewProject([]cq.Var{"x"}, scanOf(q, "R"))
	m := NewMin(a, b)
	if m.Key() != a.Key() {
		t.Errorf("min of identical plans should collapse, got %q", m.Key())
	}
}

func TestMinRequiresEqualHeads(t *testing.T) {
	q := cq.MustParse("q() :- R(x, y)")
	a := NewProject([]cq.Var{"x"}, scanOf(q, "R"))
	b := NewProject([]cq.Var{"y"}, scanOf(q, "R"))
	defer func() {
		if recover() == nil {
			t.Error("min over different heads should panic")
		}
	}()
	NewMin(a, b)
}

func TestIsSafe(t *testing.T) {
	// Safe plan for q1(z) :- R(z, x), S(x, y), K(x, y) from the intro:
	// P1 = πz(R ⋈x (πx(S ⋈xy K))).
	q := cq.MustParse("q(z) :- R(z, x), S(x, y), K(x, y)")
	inner := NewProject([]cq.Var{"x"}, NewJoin(scanOf(q, "S"), scanOf(q, "K")))
	p := NewProject([]cq.Var{"z"}, NewJoin(scanOf(q, "R"), inner))
	// R has head {x, z}, inner has head {x}: the heads differ only on the
	// query's head variable z, which acts as a per-answer constant, so the
	// plan is safe for head {z}...
	if !IsSafe(p, cq.NewVarSet("z")) {
		t.Error("safe plan of q1 not recognized as safe modulo head vars")
	}
	// ...but read as a Boolean plan (no head variables) the same tree has
	// genuinely unequal join heads and is unsafe.
	if IsSafe(p, nil) {
		t.Error("plan should be unsafe without head-variable knowledge")
	}
	// The Boolean version with z dropped is the safe plan shape.
	qb := cq.MustParse("q() :- R(x), S(x, y), K(x, y)")
	innerB := NewProject([]cq.Var{"x"}, NewJoin(scanOf(qb, "S"), scanOf(qb, "K")))
	pb := NewProject([]cq.Var{}, NewJoin(scanOf(qb, "R"), innerB))
	if !IsSafe(pb, nil) {
		t.Errorf("plan %s should be safe", String(pb))
	}
}

func TestRelationsAndAtoms(t *testing.T) {
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	p := NewProject(nil, NewJoin(scanOf(q, "R"), NewProject([]cq.Var{"x"}, NewJoin(scanOf(q, "S"), scanOf(q, "T")))))
	rels := Relations(p)
	if len(rels) != 3 || rels[0] != "R" || rels[1] != "S" || rels[2] != "T" {
		t.Errorf("relations = %v", rels)
	}
	if got := len(Atoms(p)); got != 3 {
		t.Errorf("atoms = %d, want 3", got)
	}
	if got := len(Distinct(p)); got != 7 {
		t.Errorf("%d distinct nodes, want 7", got)
	}
}

func TestDissociationOrder(t *testing.T) {
	d1 := NewDissociation()
	d1.Add("R", "y")
	d2 := NewDissociation()
	d2.Add("R", "y")
	d2.Add("T", "x")
	if !d1.LE(d2) || d2.LE(d1) {
		t.Error("partial order wrong")
	}
	if !d1.LE(d1) || !d1.Equal(d1) {
		t.Error("reflexivity failed")
	}
	if d1.Equal(d2) {
		t.Error("distinct dissociations equal")
	}
	if d1.IsEmpty() || !NewDissociation().IsEmpty() {
		t.Error("IsEmpty wrong")
	}
}

func TestDissociationPreorderDRs(t *testing.T) {
	// Example 23: with T deterministic, ∆2 = {T^x} is ≡p to ∆0 = ∅.
	isProb := func(rel string) bool { return rel != "T" }
	d0 := NewDissociation()
	d2 := NewDissociation()
	d2.Add("T", "x")
	if !d0.LEProb(d2, isProb) || !d2.LEProb(d0, isProb) {
		t.Error("∆0 and ∆2 should be ≡p when T is deterministic")
	}
	d1 := NewDissociation()
	d1.Add("R", "y")
	if d1.LEProb(d0, isProb) {
		t.Error("∆1 dissociates probabilistic R, not ⪯p ∆0")
	}
}

func TestDissociationPreorderFDs(t *testing.T) {
	// With FD x→y, dissociating R(x) on y does not change the probability.
	closure := func(rel string) cq.VarSet {
		if rel == "R" {
			return cq.NewVarSet("x", "y")
		}
		return cq.NewVarSet()
	}
	isProb := func(string) bool { return true }
	d0 := NewDissociation()
	d1 := NewDissociation()
	d1.Add("R", "y")
	if !d1.LEProbFD(d0, isProb, closure) {
		t.Error("R^y should be ≡p' ∅ under FD x→y")
	}
}

func TestApplyDissociation(t *testing.T) {
	q := cq.MustParse("q() :- R(x), S(x, y)")
	d := NewDissociation()
	d.Add("R", "y")
	dq := d.Apply(q)
	if len(dq.Atoms[0].Args) != 2 {
		t.Errorf("dissociated R should have 2 args, got %v", dq.Atoms[0])
	}
	if !dq.IsHierarchical() {
		t.Error("R^y(x,y), S(x,y) should be hierarchical")
	}
	if !d.IsSafeFor(q) {
		t.Error("dissociation should be safe")
	}
}

func TestDeltaOfPaperExample(t *testing.T) {
	// Section 3.2: P''2 = πz((πzy(R ⋈x S)) ⋈y T) for
	// q2(z) :- R(z,x), S(x,y), T(y) corresponds to ∆ = {R^{y}}
	// (the contribution JVar−HVar = {z} to T is a head variable and is
	// dropped).
	q := cq.MustParse("q(z) :- R(z, x), S(x, y), T(y)")
	inner := NewProject([]cq.Var{"y", "z"}, NewJoin(scanOf(q, "R"), scanOf(q, "S")))
	p := NewProject([]cq.Var{"z"}, NewJoin(inner, scanOf(q, "T")))
	d := DeltaOf(q, p)
	want := NewDissociation()
	want.Add("R", "y")
	if !d.Equal(want) {
		t.Errorf("∆P = %s, want %s", d, want)
	}

	// P'2 = πz(R ⋈x (πx(S ⋈xy T))) corresponds to ∆ = {T^{x}}.
	inner2 := NewProject([]cq.Var{"x"}, NewJoin(scanOf(q, "S"), scanOf(q, "T")))
	p2 := NewProject([]cq.Var{"z"}, NewJoin(scanOf(q, "R"), inner2))
	d2 := DeltaOf(q, p2)
	want2 := NewDissociation()
	want2.Add("T", "x")
	if !d2.Equal(want2) {
		t.Errorf("∆P' = %s, want %s", d2, want2)
	}
}

func TestPlanOfInvertsDeltaOf(t *testing.T) {
	// Theorem 18(1): ∆ -> P∆ and P -> ∆P are inverses.
	q := cq.MustParse("q(z) :- R(z, x), S(x, y), T(y)")
	for _, mk := range []func() Dissociation{
		func() Dissociation { d := NewDissociation(); d.Add("R", "y"); return d },
		func() Dissociation { d := NewDissociation(); d.Add("T", "x"); return d },
	} {
		d := mk()
		p, err := PlanOf(q, d)
		if err != nil {
			t.Fatalf("PlanOf(%s): %v", d, err)
		}
		back := DeltaOf(q, p)
		if !back.Equal(d) {
			t.Errorf("DeltaOf(PlanOf(%s)) = %s", d, back)
		}
	}
}

func TestPlanOfUnsafeFails(t *testing.T) {
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	if _, err := PlanOf(q, NewDissociation()); err == nil {
		t.Error("empty dissociation of an unsafe query should fail")
	}
}

func TestStringNotation(t *testing.T) {
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	inner := NewProject([]cq.Var{"x"}, NewJoin(scanOf(q, "S"), scanOf(q, "T")))
	p := NewProject([]cq.Var{}, NewJoin(scanOf(q, "R"), inner))
	s := String(p)
	if !strings.Contains(s, "π-x") || !strings.Contains(s, "⋈[") {
		t.Errorf("rendering = %q", s)
	}
}

// TestCommonSubplans: a subplan held by two parent slots is a view;
// Distinct counts its parents, and String names it once.
func TestCommonSubplans(t *testing.T) {
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	shared := NewProject([]cq.Var{"x"}, NewJoin(scanOf(q, "S"), scanOf(q, "T")))
	p := NewMin(
		NewProject([]cq.Var{}, NewJoin(scanOf(q, "R"), shared)),
		NewProject([]cq.Var{}, NewJoin(scanOf(q, "R"), NewProject(nil, shared))),
	)
	var views []string
	for _, u := range Distinct(p) {
		if _, scan := u.Node.(*Scan); !scan && u.Parents > 1 {
			views = append(views, u.Node.Key())
		}
	}
	if len(views) != 1 || views[0] != shared.Key() {
		t.Errorf("views = %q, want only %q", views, shared.Key())
	}
	if got, want := String(p), "v1 = π-y ⋈[S(x, y), T(y)]; min[π-x ⋈[R(x), v1], π-x ⋈[R(x), π-x v1]]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestMinNodeAccessors(t *testing.T) {
	q := cq.MustParse("q() :- R(x, y), S(x, y)")
	a := NewProject([]cq.Var{"x"}, scanOf(q, "R"))
	b := NewProject([]cq.Var{"x"}, scanOf(q, "S"))
	m := NewMin(a, b)
	mm, ok := m.(*Min)
	if !ok {
		t.Fatalf("expected *Min, got %T", m)
	}
	if got := mm.Head(); len(got) != 1 || got[0] != "x" {
		t.Errorf("min head = %v", got)
	}
	if !mm.HeadSet().Equal(cq.NewVarSet("x")) {
		t.Errorf("min head set = %v", mm.HeadSet())
	}
	if len(mm.Children()) != 2 {
		t.Errorf("children = %d", len(mm.Children()))
	}
	// String and IsSafe walk min nodes.
	if s := String(m); !strings.Contains(s, "min[") {
		t.Errorf("string = %q", s)
	}
	if !IsSafe(m, nil) {
		t.Error("min of safe subplans is safe")
	}
}

func TestScanWithPredicatesKey(t *testing.T) {
	q := cq.MustParse("q(a) :- S(s, a), s <= 10, a like '%x%'")
	s1 := scanOf(q, "S")
	s2 := scanOf(q, "S")
	if s1.Key() != s2.Key() {
		t.Error("identical scans must share a key")
	}
	if !strings.Contains(s1.Key(), "s <= 10") {
		t.Errorf("predicates missing from key: %q", s1.Key())
	}
	// Scans with different predicates differ.
	q2 := cq.MustParse("q(a) :- S(s, a), s <= 11")
	if scanOf(q2, "S").Key() == s1.Key() {
		t.Error("different predicates must change the key")
	}
}

func TestDissociationKeyOrdering(t *testing.T) {
	d := NewDissociation()
	d.Add("B", "y")
	d.Add("A", "x")
	d.Add("A", "z")
	if got := d.Key(); got != "{A^{x, z}, B^{y}}" {
		t.Errorf("key = %q", got)
	}
}

func TestLEProbFDBothDirections(t *testing.T) {
	closure := func(rel string) cq.VarSet {
		if rel == "R" {
			return cq.NewVarSet("x", "y")
		}
		return cq.NewVarSet()
	}
	isProb := func(string) bool { return true }
	// R^z is NOT in R's closure: order must be strict.
	dz := NewDissociation()
	dz.Add("R", "z")
	d0 := NewDissociation()
	if dz.LEProbFD(d0, isProb, closure) {
		t.Error("R^z should not be ⪯p' the empty dissociation")
	}
	if !d0.LEProbFD(dz, isProb, closure) {
		t.Error("∅ should be ⪯p' every dissociation")
	}
	// Deterministic relation extras are ignored entirely.
	det := NewDissociation()
	det.Add("D", "w")
	if !det.LEProbFD(d0, func(rel string) bool { return rel != "D" }, closure) {
		t.Error("deterministic extras should not affect ⪯p'")
	}
}

func TestStripMinNode(t *testing.T) {
	// Strip over a Min plan of a chased query: heads stay aligned.
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	a := NewProject(nil, NewJoin(scanOf(q, "R"), NewProject([]cq.Var{"x"}, NewJoin(scanOf(q, "S"), scanOf(q, "T")))))
	b := NewProject(nil, NewJoin(scanOf(q, "T"), NewProject([]cq.Var{"y"}, NewJoin(scanOf(q, "S"), scanOf(q, "R")))))
	m := NewMin(a, b)
	stripped := Strip(q, m)
	if stripped != m {
		t.Errorf("strip of an unchased plan should be identity:\n%s\n%s", m.Key(), stripped.Key())
	}
}

// TestTableInterns: built through one table, a shape is one node,
// whatever order a join's or min's children come in; the package-level
// constructors intern nothing, yet give equal shapes equal ids, and ids
// agree across tables.
func TestTableInterns(t *testing.T) {
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	tab := NewTable()
	scan := func(tb *Table, rel string) *Scan {
		a := q.Atom(rel)
		return tb.NewScan(*a, q.PredsOnAtom(*a))
	}
	j1 := tab.NewJoin(scan(tab, "R"), scan(tab, "S"))
	j2 := tab.NewJoin(scan(tab, "S"), scan(tab, "R"))
	if j1 != j2 {
		t.Error("one table built the same join twice")
	}
	p1 := tab.NewProject([]cq.Var{"y"}, j1)
	if p2 := tab.NewProject([]cq.Var{"y", "y"}, j2); p1 != p2 {
		t.Error("one table built the same projection twice")
	}
	m1 := tab.NewMin(p1, tab.NewProject([]cq.Var{"y"}, tab.NewJoin(scan(tab, "S"), scan(tab, "T"))))
	if m2 := tab.NewMin(m1.Children()[1], m1.Children()[0], p1); m1 != m2 {
		t.Error("one table built the same min twice")
	}

	other := NewTable()
	if o := other.NewJoin(scan(other, "R"), scan(other, "S")); o == j1 || o.ID() != j1.ID() {
		t.Error("two tables should build two nodes with one id")
	}
	if f := NewJoin(scanOf(q, "S"), scanOf(q, "R")); f == j1 || f.ID() != j1.ID() || f.Key() != j1.Key() {
		t.Error("a package-level join should be a fresh node with the interned join's id and key")
	}
	if NewJoin(scanOf(q, "R"), scanOf(q, "T")).ID() == j1.ID() {
		t.Error("different joins share an id")
	}
}

// TestKeyRenderedOnDemand: building a plan renders no key; Key renders
// and keeps only the asked-for node's.
func TestKeyRenderedOnDemand(t *testing.T) {
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	inner := NewProject([]cq.Var{"x"}, NewJoin(scanOf(q, "S"), scanOf(q, "T")))
	p := NewProject(nil, NewJoin(scanOf(q, "R"), inner))
	if p.meta().key.Load() != nil || inner.meta().key.Load() != nil {
		t.Fatal("a key was rendered at construction")
	}
	if got, want := p.Key(), "π{}(⋈[R(x), π{x}(⋈[S(x, y), T(y)])])"; got != want {
		t.Errorf("key = %q, want %q", got, want)
	}
	if p.meta().key.Load() == nil || inner.meta().key.Load() != nil {
		t.Error("Key should keep the asked-for node's text and only that")
	}
}

// randomPlans builds n random plans over relations whose names make
// keys share long prefixes and differ late: "m" and "min" (a scan whose
// key starts like a min node's), R and R1, scans with and without
// predicates, projections, joins and mins.
func randomPlans(rng *rand.Rand, n int) []Node {
	q := cq.MustParse("q() :- R(x, y), R1(x, 'a'), S(y, z), m(x), min(z), x <= 3, z like '%a%'")
	var gen func(depth int) Node
	gen = func(depth int) Node {
		if depth == 0 || rng.Intn(4) == 0 {
			a := q.Atoms[rng.Intn(len(q.Atoms))]
			var preds []cq.Predicate
			if rng.Intn(2) == 0 {
				preds = q.PredsOnAtom(a)
			}
			return NewScan(a, preds)
		}
		switch rng.Intn(3) {
		case 0:
			c := gen(depth - 1)
			var onto []cq.Var
			for _, v := range c.Head() {
				if rng.Intn(2) == 0 {
					onto = append(onto, v)
				}
			}
			return NewProject(onto, c)
		case 1:
			subs := make([]Node, 2+rng.Intn(2))
			for i := range subs {
				subs[i] = gen(depth - 1)
			}
			return NewJoin(subs...)
		default:
			subs := make([]Node, 2+rng.Intn(2))
			for i := range subs {
				subs[i] = NewProject(nil, gen(depth-1))
			}
			return NewMin(subs...)
		}
	}
	out := make([]Node, n)
	for i := range out {
		out[i] = gen(4)
	}
	return out
}

// TestCompareMatchesKeyOrder: Compare orders plans exactly as their
// rendered keys compare, whether no key is rendered yet, some are, or all
// are.
func TestCompareMatchesKeyOrder(t *testing.T) {
	sign := func(c int) int { return min(max(c, -1), 1) }
	rng := rand.New(rand.NewSource(1))
	ps := randomPlans(rng, 150)
	// Two plans may be structurally equal: make sure some pairs are.
	ps = append(ps, ps[:10]...)
	got := make([][]int, len(ps))
	for i := range ps {
		got[i] = make([]int, len(ps))
		for j := range ps {
			got[i][j] = compareKeys(ps[i], ps[j])
		}
	}
	for i := range ps {
		if rng.Intn(2) == 0 {
			ps[i].Key()
		}
	}
	for i := range ps {
		for j := range ps {
			want := strings.Compare(ps[i].Key(), ps[j].Key())
			if sign(got[i][j]) != want {
				t.Fatalf("Compare before rendering = %d, keys compare %d:\n%s\n%s", got[i][j], want, ps[i].Key(), ps[j].Key())
			}
			if c := compareKeys(ps[i], ps[j]); sign(c) != want {
				t.Fatalf("Compare after rendering = %d, keys compare %d:\n%s\n%s", c, want, ps[i].Key(), ps[j].Key())
			}
		}
	}
}

// TestStripReturnsUnchangedInput: stripping a plan that is already over
// q's atoms returns the very same node, through a table or not.
func TestStripReturnsUnchangedInput(t *testing.T) {
	q := cq.MustParse("q(z) :- R(z, x), S(x, y), T(y), y <= 3")
	for _, d := range []func() Dissociation{
		func() Dissociation { d := NewDissociation(); d.Add("R", "y"); return d },
		func() Dissociation { d := NewDissociation(); d.Add("T", "x"); return d },
	} {
		p, err := PlanOf(q, d())
		if err != nil {
			t.Fatal(err)
		}
		if s := Strip(q, p); s != p {
			t.Errorf("Strip rebuilt an unchanged plan: %s", String(p))
		}
		tab := NewTable()
		tp, err := tab.PlanOf(q, d())
		if err != nil {
			t.Fatal(err)
		}
		if s := tab.Strip(q.Clone(), tp); s != tp {
			t.Errorf("Strip through a table rebuilt an unchanged plan: %s", String(tp))
		}
	}
	// A scan whose predicates come in another order than q lists them
	// is the same scan.
	qp := cq.MustParse("q() :- R(x), x >= 1, x <= 3")
	a := qp.Atoms[0]
	scan := NewScan(a, []cq.Predicate{qp.Preds[1], qp.Preds[0]})
	if s := Strip(qp, scan); s != Node(scan) {
		t.Errorf("Strip rebuilt a scan over reordered predicates: %s", s.Key())
	}
	// A chased plan does change: its dissociated scans become q's atoms.
	d := NewDissociation()
	d.Add("R", "y")
	chased := d.Apply(q)
	tab := NewTable()
	p := tab.NewProject([]cq.Var{"z"}, tab.NewJoin(tab.NewScan(chased.Atoms[0], chased.PredsOnAtom(chased.Atoms[0])), scanOf(q, "S")))
	s := tab.Strip(q, p)
	if s == p || Atoms(s)[0].String() != "R(z, x)" {
		t.Errorf("Strip left the dissociated scan: %s", String(s))
	}
}

// TestWalkersOnExponentialTree: a ladder of 58 min levels, each holding
// the level below twice, unfolds to a tree of more than 2^60 nodes; the
// walkers finish at once because each visits the 291 distinct nodes.
func TestWalkersOnExponentialTree(t *testing.T) {
	q := cq.MustParse("q() :- R(x, y)")
	tab := NewTable()
	level := Node(tab.NewScan(q.Atoms[0], nil))
	var atoms []cq.Atom
	for i := 0; i < 58; i++ {
		a := cq.Atom{Rel: fmt.Sprintf("S%d", i), Args: []cq.Term{cq.V("x")}}
		b := cq.Atom{Rel: fmt.Sprintf("T%d", i), Args: []cq.Term{cq.V("x")}}
		atoms = append(atoms, a, b)
		level = tab.NewMin(tab.NewJoin(level, tab.NewScan(a, nil)), tab.NewJoin(level, tab.NewScan(b, nil)))
	}
	if got := TreeSize(level); got < 1<<60 {
		t.Errorf("tree size %d, want > 2^60", got)
	}
	if got := len(Relations(level)); got != 1+len(atoms) {
		t.Errorf("%d relations, want %d", got, 1+len(atoms))
	}
	if got := len(Atoms(level)); got != 1+len(atoms) {
		t.Errorf("%d atoms, want %d", got, 1+len(atoms))
	}
	if IsSafe(level, nil) {
		t.Error("joins of heads {x, y} and {x} are not safe")
	}
	if d := DeltaOf(q, level); d.ExtraOf("S0").Len() != 1 {
		t.Errorf("∆ = %s, want S0 dissociated on y", d)
	}
	// Each level below the top is a view, named once: 58 definitions.
	if s, n := String(level), len(Distinct(level)); strings.Count(s, " = ") != 57 || len(s) > 16*n {
		t.Errorf("String: %d views in %d bytes over %d distinct nodes:\n%s", strings.Count(s, " = "), len(s), n, s)
	}
}

func TestMinOverNothingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a min over no alternatives should panic")
		}
	}()
	NewMin()
}

// TestLazyFieldsConcurrent: a node's key and relations are filled on
// first use, and nodes are shared by concurrent evaluations, so several
// goroutines may fill them at once. Run under -race.
func TestLazyFieldsConcurrent(t *testing.T) {
	ps := randomPlans(rand.New(rand.NewSource(2)), 40)
	keys := make([]string, len(ps))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range ps {
				p := ps[(i+g)%len(ps)]
				Relations(p)
				compareKeys(p, ps[i])
				if k := p.Key(); g == 0 {
					keys[(i+g)%len(ps)] = k
				}
			}
		}(g)
	}
	wg.Wait()
	for i, p := range ps {
		if p.Key() != keys[i] {
			t.Errorf("plan %d: key changed after concurrent rendering", i)
		}
	}
}
