package core

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"lapushdb/internal/cq"
	"lapushdb/internal/plan"
)

// chainQuery builds the paper's k-chain query
// q(x0, xk) :- R1(x0, x1), ..., Rk(xk-1, xk).
func chainQuery(k int) *cq.Query {
	var b strings.Builder
	fmt.Fprintf(&b, "q(x0, x%d) :- ", k)
	for i := 1; i <= k; i++ {
		if i > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "R%d(x%d, x%d)", i, i-1, i)
	}
	return cq.MustParse(b.String())
}

// starQuery builds the paper's k-star query
// q('a') :- R1('a', x1), R2(x2), ..., Rk(xk), R0(x1, ..., xk).
func starQuery(k int) *cq.Query {
	var b strings.Builder
	b.WriteString("q() :- R1('a', x1)")
	for i := 2; i <= k; i++ {
		fmt.Fprintf(&b, ", R%d(x%d)", i, i)
	}
	b.WriteString(", R0(")
	for i := 1; i <= k; i++ {
		if i > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "x%d", i)
	}
	b.WriteString(")")
	return cq.MustParse(b.String())
}

// TestFigure2Chain checks the #MP (Catalan), #P (Schröder–Hipparchus) and
// #∆ (2^((k-1)(k-2))) columns of Figure 2 for k-chain queries.
func TestFigure2Chain(t *testing.T) {
	wantMP := map[int]int{2: 1, 3: 2, 4: 5, 5: 14, 6: 42}
	wantP := map[int]int{2: 1, 3: 3, 4: 11, 5: 45, 6: 197}
	for k := 2; k <= 6; k++ {
		q := chainQuery(k)
		if got := len(MinimalPlans(q, nil)); got != wantMP[k] {
			t.Errorf("chain k=%d: #MP = %d, want %d", k, got, wantMP[k])
		}
		if got := len(AllPlans(q)); got != wantP[k] {
			t.Errorf("chain k=%d: #P = %d, want %d", k, got, wantP[k])
		}
		wantD := fmt.Sprintf("%d", 1<<uint((k-1)*(k-2)))
		if got := CountDissociations(q).String(); got != wantD {
			t.Errorf("chain k=%d: #∆ = %s, want %s", k, got, wantD)
		}
	}
}

// TestFigure2ChainLarge covers the expensive tail of Figure 2 (7- and
// 8-chains: 132 and 429 minimal plans, 903 and 4279 total plans).
func TestFigure2ChainLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	q := chainQuery(7)
	if got := len(MinimalPlans(q, nil)); got != 132 {
		t.Errorf("chain k=7: #MP = %d, want 132", got)
	}
	if got := len(AllPlans(q)); got != 903 {
		t.Errorf("chain k=7: #P = %d, want 903", got)
	}
	q = chainQuery(8)
	if got := len(MinimalPlans(q, nil)); got != 429 {
		t.Errorf("chain k=8: #MP = %d, want 429", got)
	}
	if got := len(AllPlans(q)); got != 4279 {
		t.Errorf("chain k=8: #P = %d, want 4279", got)
	}
}

// TestFigure2Star checks the #MP (k!), #P (ordered Bell) and #∆
// (2^(k(k-1))) columns of Figure 2 for k-star queries.
func TestFigure2Star(t *testing.T) {
	wantMP := map[int]int{1: 1, 2: 2, 3: 6, 4: 24}
	wantP := map[int]int{1: 1, 2: 3, 3: 13, 4: 75}
	for k := 1; k <= 4; k++ {
		q := starQuery(k)
		if got := len(MinimalPlans(q, nil)); got != wantMP[k] {
			t.Errorf("star k=%d: #MP = %d, want %d", k, got, wantMP[k])
		}
		if got := len(AllPlans(q)); got != wantP[k] {
			t.Errorf("star k=%d: #P = %d, want %d", k, got, wantP[k])
		}
		wantD := fmt.Sprintf("%d", 1<<uint(k*(k-1)))
		if got := CountDissociations(q).String(); got != wantD {
			t.Errorf("star k=%d: #∆ = %s, want %s", k, got, wantD)
		}
	}
}

func TestFigure2StarLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	q := starQuery(5)
	if got := len(MinimalPlans(q, nil)); got != 120 {
		t.Errorf("star k=5: #MP = %d, want 120", got)
	}
	if got := len(AllPlans(q)); got != 541 {
		t.Errorf("star k=5: #P = %d, want 541", got)
	}
}

// TestExample17 reproduces the full lattice of Example 17:
// q :- R(x), S(x), T(x,y), U(y) has 8 dissociations, 5 safe, 2 minimal.
func TestExample17(t *testing.T) {
	q := cq.MustParse("q() :- R(x), S(x), T(x, y), U(y)")
	all := Dissociations(q)
	if len(all) != 8 {
		t.Fatalf("#dissociations = %d, want 8", len(all))
	}
	safe := 0
	for _, d := range all {
		if d.IsSafeFor(q) {
			safe++
		}
	}
	if safe != 5 {
		t.Errorf("#safe = %d, want 5", safe)
	}
	minimal := MinimalSafeDissociations(q)
	if len(minimal) != 2 {
		t.Fatalf("#minimal safe = %d, want 2", len(minimal))
	}
	// ∆3 = {U^x} and ∆4 = {R^y, S^y}.
	keys := map[string]bool{}
	for _, d := range minimal {
		keys[d.Key()] = true
	}
	if !keys["{U^{x}}"] || !keys["{R^{y}, S^{y}}"] {
		t.Errorf("minimal safe dissociations = %v", keys)
	}
	plans := MinimalPlans(q, nil)
	if len(plans) != 2 {
		t.Fatalf("#minimal plans = %d, want 2", len(plans))
	}
}

// TestMPMatchesLattice cross-validates Algorithm 1 against the naive
// lattice enumeration (Theorem 20): the dissociations of the minimal plans
// are exactly the minimal safe dissociations.
func TestMPMatchesLattice(t *testing.T) {
	queries := []string{
		"q() :- R(x), S(x), T(x, y), U(y)",
		"q() :- R(x), S(x, y), T(y)",
		"q(z) :- R(z, x), S(x, y), T(y)",
		"q() :- R(x), S(x, y)",
		"q() :- R(x, y), S(y, z), T(z, u)",
		"q() :- R(x), S(y), T(x, y)",
		"q() :- R1(x0, x1), R2(x1, x2), R3(x2, x3)",
		"q() :- R1('a', x1), R2(x2), R0(x1, x2)",
		"q() :- A(x), B(y), C(z), M(x, y, z)",
	}
	for _, s := range queries {
		q := cq.MustParse(s)
		wantSet := map[string]bool{}
		for _, d := range MinimalSafeDissociations(q) {
			wantSet[d.Key()] = true
		}
		plans := MinimalPlans(q, nil)
		gotSet := map[string]bool{}
		for _, p := range plans {
			gotSet[plan.DeltaOf(q, p).Key()] = true
		}
		if len(gotSet) != len(plans) {
			t.Errorf("%s: duplicate dissociations among minimal plans", s)
		}
		if !sameSet(gotSet, wantSet) {
			t.Errorf("%s:\n MP deltas      = %v\n lattice deltas = %v", s, gotSet, wantSet)
		}
	}
}

// TestConservativity: safe queries yield exactly one plan, and that plan
// has the empty dissociation (it is the safe plan).
func TestConservativity(t *testing.T) {
	safeQueries := []string{
		"q() :- R(x)",
		"q() :- R(x), S(x, y)",
		"q(z) :- R(z, x), S(x, y), K(x, y)",
		"q() :- R(x, y), S(y, z), T(y, z, u)",
		"q() :- R(x), S(y)",
	}
	for _, s := range safeQueries {
		q := cq.MustParse(s)
		plans := MinimalPlans(q, nil)
		if len(plans) != 1 {
			t.Errorf("%s: safe query has %d minimal plans, want 1", s, len(plans))
			continue
		}
		if d := plan.DeltaOf(q, plans[0]); !d.IsEmpty() {
			t.Errorf("%s: safe plan dissociates %s", s, d)
		}
		if !plan.IsSafe(plans[0], q.HeadSet()) {
			t.Errorf("%s: returned plan is not safe: %s", s, plan.String(plans[0]))
		}
		if !IsSafe(q, nil) {
			t.Errorf("IsSafe(%s) = false, want true", s)
		}
	}
}

func TestUnsafeQueriesDetected(t *testing.T) {
	for _, s := range []string{
		"q() :- R(x), S(x, y), T(y)",
		"q() :- R(x), S(x), T(x, y), U(y)",
		"q(x0, x3) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)",
	} {
		q := cq.MustParse(s)
		if IsSafe(q, nil) {
			t.Errorf("IsSafe(%s) = true, want false", s)
		}
		if got := len(MinimalPlans(q, nil)); got < 2 {
			t.Errorf("%s: unsafe query has %d plans, want >= 2", s, got)
		}
	}
}

// TestExample23DRs: q :- R(x), S(x, y), Td(y) is safe when T is
// deterministic; the modified algorithm returns the single plan P∆2.
func TestExample23DRs(t *testing.T) {
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	sch := &Schema{Det: map[string]bool{"T": true}}
	plans := MinimalPlans(q, sch)
	if len(plans) != 1 {
		t.Fatalf("#plans = %d, want 1; plans: %v", len(plans), planStrings(plans))
	}
	d := plan.DeltaOf(q, plans[0])
	want := plan.NewDissociation()
	want.Add("T", "x")
	if !d.Equal(want) {
		t.Errorf("∆ = %s, want %s (P∆2)", d, want)
	}
	if !IsSafe(q, sch) {
		t.Error("query should be safe with T deterministic")
	}
	// Without the schema it has two plans.
	if got := len(MinimalPlans(q, nil)); got != 2 {
		t.Errorf("#plans without schema = %d, want 2", got)
	}
}

// TestExample23AllDeterministic: with Rd and Td deterministic the stopping
// rule fires and a single exact plan is returned.
func TestExample23AllDeterministic(t *testing.T) {
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	sch := &Schema{Det: map[string]bool{"R": true, "T": true}}
	plans := MinimalPlans(q, sch)
	if len(plans) != 1 {
		t.Fatalf("#plans = %d, want 1", len(plans))
	}
	// The single plan corresponds to ∆3 = {R^y, T^x} — the top of the
	// lattice, deterministic relations fully dissociated.
	d := plan.DeltaOf(q, plans[0])
	want := plan.NewDissociation()
	want.Add("R", "y")
	want.Add("T", "x")
	if !d.Equal(want) {
		t.Errorf("∆ = %s, want %s (P∆3)", d, want)
	}
	if !IsSafe(q, sch) {
		t.Error("query should be safe")
	}
}

// TestSingleProbRelationExactPlan guards the subtle case where the single
// probabilistic relation does NOT contain all existential variables: the
// stop plan must still be exact, i.e. dissociate only deterministic
// relations.
func TestSingleProbRelationExactPlan(t *testing.T) {
	// R probabilistic; S, T deterministic. EVar {x, y} ⊄ Var(R) = {x}.
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	sch := &Schema{Det: map[string]bool{"S": true, "T": true}}
	plans := MinimalPlans(q, sch)
	if len(plans) != 1 {
		t.Fatalf("#plans = %d, want 1", len(plans))
	}
	d := plan.DeltaOf(q, plans[0])
	if extra := d.ExtraOf("R"); extra.Len() != 0 {
		t.Errorf("probabilistic R dissociated on %s; stop plan is not exact", extra)
	}
	if !IsSafe(q, sch) {
		t.Error("query with one probabilistic relation should be safe")
	}
}

// TestFDsMakeSafe: q :- R(x), S(x, y), T(y) with FD x→y (key of S) is safe
// and gets the single plan of dissociation ∆2 = {R^y} (Section 3.3.2).
func TestFDsMakeSafe(t *testing.T) {
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	sch := &Schema{FDs: []cq.FD{{Src: []cq.Var{"x"}, Dst: "y"}}}
	plans := MinimalPlans(q, sch)
	if len(plans) != 1 {
		t.Fatalf("#plans = %d, want 1: %v", len(plans), planStrings(plans))
	}
	d := plan.DeltaOf(q, plans[0])
	want := plan.NewDissociation()
	want.Add("R", "y")
	if !d.Equal(want) {
		t.Errorf("∆ = %s, want %s", d, want)
	}
	if !IsSafe(q, sch) {
		t.Error("query should be safe under FD x→y")
	}
}

func TestChase(t *testing.T) {
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	sch := &Schema{FDs: []cq.FD{{Src: []cq.Var{"x"}, Dst: "y"}}}
	d := Chase(q, sch)
	if got := d.ExtraOf("R"); !got.Equal(cq.NewVarSet("y")) {
		t.Errorf("chase of R = %s, want {y}", got)
	}
	if got := d.ExtraOf("S"); got.Len() != 0 {
		t.Errorf("chase of S = %s, want empty", got)
	}
	if got := d.ExtraOf("T"); got.Len() != 0 {
		t.Errorf("chase of T = %s, want empty", got)
	}
	// No FDs: empty chase.
	if !Chase(q, nil).IsEmpty() {
		t.Error("chase without FDs should be empty")
	}
}

// TestSinglePlanStructure: Algorithm 2 merges the minimal plans into one
// plan with min nodes; for a safe query there is no min node at all.
func TestSinglePlanStructure(t *testing.T) {
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	sp := SinglePlan(q, nil)
	if !hasMin(sp) {
		t.Errorf("single plan of unsafe query should contain a min node: %s", plan.String(sp))
	}
	safe := cq.MustParse("q() :- R(x), S(x, y)")
	sp = SinglePlan(safe, nil)
	if hasMin(sp) {
		t.Errorf("single plan of safe query should have no min node: %s", plan.String(sp))
	}
}

// TestSinglePlanCoversMinimalPlans: every minimal plan appears as an
// alternative inside the merged plan's min structure in the sense that the
// merged plan references the same set of relations and the same top-level
// cut alternatives.
func TestSinglePlanCoversMinimalPlans(t *testing.T) {
	q := cq.MustParse("q() :- R(x), S(x), T(x, y), U(y)")
	sp := SinglePlan(q, nil)
	m, ok := sp.(*plan.Min)
	if !ok {
		t.Fatalf("expected top-level min, got %s", plan.String(sp))
	}
	if len(m.Subs) != 2 {
		t.Errorf("top-level alternatives = %d, want 2 (cuts {x} and {y})", len(m.Subs))
	}
}

// TestSinglePlanSharesSubplans pins "tree size may be exponential, node
// count may not" for the merged plan (ROADMAP item 1): SinglePlan returns
// a DAG, so on k-chains its pointer-distinct nodes stay within twice its
// key-distinct subplans while plan.Size, the tree the DAG unfolds to,
// roughly triples per relation. The SHA-256 of SinglePlan's key and of
// the joined MinimalPlans keys pin both outputs, child order included,
// for the chains and for stars.
func TestSinglePlanSharesSubplans(t *testing.T) {
	for k := 2; k <= 10; k++ {
		sp := SinglePlan(chainQuery(k), nil)
		nodes, keys := map[plan.Node]bool{}, map[string]bool{}
		var walk func(plan.Node)
		walk = func(n plan.Node) {
			if nodes[n] {
				return
			}
			nodes[n], keys[n.Key()] = true, true
			for _, c := range n.Children() {
				walk(c)
			}
		}
		walk(sp)
		t.Logf("chain%d: %d nodes, %d distinct keys, tree size %d", k, len(nodes), len(keys), plan.Size(sp))
		if len(nodes) > 2*len(keys) {
			t.Errorf("chain%d: %d pointer-distinct nodes for %d distinct subplans (> 2x): the merged plan is not shared", k, len(nodes), len(keys))
		}
	}
	digest := func(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }
	for _, c := range []struct {
		name   string
		q      *cq.Query
		sp, mp string
	}{
		{"chain2", chainQuery(2), "aae8013fc26a0151a0266bd588835ef8ca56721e27564f5d246caa6a9a450880", "aae8013fc26a0151a0266bd588835ef8ca56721e27564f5d246caa6a9a450880"},
		{"chain3", chainQuery(3), "48e8ffc7aecb2e8fc79b89fd29cdbc5cd6c64ba2696c86e6c9a4896690cf2c3f", "e3e2d3162a379855f95b534b28a0380622be2eb33f1a5ae0e2b5b8aae0a05b20"},
		{"chain4", chainQuery(4), "35e5404b217e7561927c466ddc9b62baedffa886f5758156b4914f0f0c1e992b", "dbfb1e23412c2a2872ef6d771cdbf182a1447438e2f93be0fcc8a8907537cb7c"},
		{"chain5", chainQuery(5), "5173ca12416d0c2ccbcc4ffff8efd1da006f726a90856b32380a06e6f32a6d26", "8b9c31d8058f08bbf57901c3ed1040a668c40975742dfae715937ba9d63a6721"},
		{"chain6", chainQuery(6), "15bd5db72b90f0cc43c89a11f4301e1d5343417d6467ad76779d5c2737ec5996", "b365d2005528a1d7a7f6c367024e0ae7bb88e0e9065c27f7210339b90e19f980"},
		{"chain7", chainQuery(7), "1f7edb7532471b877a934cf0c78d0d581eb2272a62da0a5e199390361d3261f1", "e822d68ebc942b62bb46f60de6198c32aa8a967ad60baff36e9891520c9567fa"},
		{"chain8", chainQuery(8), "1d05f75aa5032fd4d03de5cb1aa7054252b2f70c4cc99655b8791dc7081dd4f9", "efdb0d92f1ade2258ce28906916fa807160cf2d0d92a9400d28129a7df2249f3"},
		{"chain9", chainQuery(9), "5fc538c3c1eea3475bc32f66dd9c1be7a69a609350b815a52b30f2ec804b1ddf", "ad3e12f022e0791f83d2751233d015bc637cb193a1285d3f9baa250b0bfad3c4"},
		{"chain10", chainQuery(10), "7da9d5635f5fd964c7a831f6842980077c88ecacd02446084f64ed1b03aadc7c", "1bd1dc31ca504ac063b25d4780d222b67175bdd7fb5317aa49b98b20f61ff278"},
		{"star2", starQuery(2), "3fc5201b9dfc3733bbfd26ca1dd32694b4e7608cb47192cfaad976ba3582ec11", "7b235256e45c5107a8dad8125f6e563fee60a93283e11ac87233dc13fb0b2d64"},
		{"star3", starQuery(3), "7fe77b86673b5e23dd72a1848322c66177fea54767dc27caa7be5765a4d840c5", "92f1e137cf8990ebe9368146b5c85553f58c799dd9a434c007c3148a320aed0d"},
		{"star4", starQuery(4), "c625277511a31d150ab30d2addb6a81e52ae22f629b7c8d2e9f5635ef7473656", "49209ba0419b7911215c5978a14c4573d1f7791e5b1efd6f325eca957a33d3db"},
		{"star5", starQuery(5), "011b77dc1d354eebf26c62e0e4af53d16a58b10eec7b4015af0c529319ff6715", "8d3e93d4929467e7942020171e0645aa84dcd5a5aa251fee0dcb30f9a6857d02"},
	} {
		if got := digest(SinglePlan(c.q, nil).Key()); got != c.sp {
			t.Errorf("%s: SinglePlan key digest %s, want %s", c.name, got, c.sp)
		}
		var mp []string
		for _, p := range MinimalPlans(c.q, nil) {
			mp = append(mp, p.Key())
		}
		if got := digest(strings.Join(mp, "\n")); got != c.mp {
			t.Errorf("%s: MinimalPlans keys digest %s, want %s", c.name, got, c.mp)
		}
	}
}

// TestExample29SixPlans: q :- R(x,z), S(y,u), T(z), U(u), M(x,y,z,u) has 6
// minimal plans (Section 4, Example 29).
func TestExample29SixPlans(t *testing.T) {
	q := cq.MustParse("q() :- R(x, z), S(y, u), T(z), U(u), M(x, y, z, u)")
	plans := MinimalPlans(q, nil)
	if len(plans) != 6 {
		t.Errorf("#minimal plans = %d, want 6:\n%s", len(plans), strings.Join(planStrings(plans), "\n"))
	}
	// Opt2 must find shared subplans among them (the views V1, V2, V3 of
	// Figure 4c): check the merged plan contains at least one repeated
	// subplan.
	sp := SinglePlan(q, nil)
	if len(plan.CommonSubplans(sp)) == 0 {
		t.Error("expected common subplans in the merged plan (views V1/V2/V3)")
	}
}

// TestMinimalPlansAreMutuallyIncomparable: no minimal plan's dissociation
// may dominate another's (they are all minimal in the lattice).
func TestMinimalPlansAreMutuallyIncomparable(t *testing.T) {
	for _, s := range []string{
		"q() :- R(x), S(x, y), T(y)",
		"q() :- R(x), S(x), T(x, y), U(y)",
		"q() :- R(x, z), S(y, u), T(z), U(u), M(x, y, z, u)",
	} {
		q := cq.MustParse(s)
		plans := MinimalPlans(q, nil)
		for i := range plans {
			for j := range plans {
				if i == j {
					continue
				}
				di, dj := plan.DeltaOf(q, plans[i]), plan.DeltaOf(q, plans[j])
				if di.LE(dj) {
					t.Errorf("%s: plan %d's dissociation %s ⪯ plan %d's %s", s, i, di, j, dj)
				}
			}
		}
	}
}

// TestAllPlansAreSafeDissociations: Theorem 18 — every enumerated plan
// corresponds to a safe dissociation, and distinct plans give distinct
// dissociations (1-to-1).
func TestAllPlansAreSafeDissociations(t *testing.T) {
	for _, s := range []string{
		"q() :- R(x), S(x, y), T(y)",
		"q() :- R(x), S(x), T(x, y), U(y)",
		"q() :- R1('a', x1), R2(x2), R0(x1, x2)",
	} {
		q := cq.MustParse(s)
		seen := map[string]bool{}
		for _, p := range SafeDissociationPlans(q) {
			d := plan.DeltaOf(q, p)
			if !d.IsSafeFor(q) {
				t.Errorf("%s: plan %s has unsafe dissociation %s", s, plan.String(p), d)
			}
			if seen[d.Key()] {
				t.Errorf("%s: dissociation %s corresponds to two plans", s, d)
			}
			seen[d.Key()] = true
		}
	}
}

// TestAllPlansCountEqualsSafeDissociations validates the 1-to-1
// correspondence numerically: #plans == #safe dissociations.
func TestAllPlansCountEqualsSafeDissociations(t *testing.T) {
	for _, s := range []string{
		"q() :- R(x), S(x, y), T(y)",
		"q() :- R(x), S(x), T(x, y), U(y)",
		"q() :- R1(x0, x1), R2(x1, x2), R3(x2, x3)",
	} {
		q := cq.MustParse(s)
		safe := 0
		for _, d := range Dissociations(q) {
			if d.IsSafeFor(q) {
				safe++
			}
		}
		if got := len(SafeDissociationPlans(q)); got != safe {
			t.Errorf("%s: #plans = %d, #safe dissociations = %d", s, got, safe)
		}
	}
}

func hasMin(n plan.Node) bool {
	if _, ok := n.(*plan.Min); ok {
		return true
	}
	for _, c := range n.Children() {
		if hasMin(c) {
			return true
		}
	}
	return false
}

func planStrings(ps []plan.Node) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = plan.String(p)
	}
	return out
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestTheorem24AgainstLattice cross-validates the DR-modified algorithm
// against brute force: enumerate all safe dissociations, group them into
// ≡p equivalence classes (equal extras on probabilistic relations),
// find the minimal classes under ⪯p, and check that MinimalPlans
// returns exactly one plan per minimal class, with its dissociation a
// member of that class.
func TestTheorem24AgainstLattice(t *testing.T) {
	cases := []struct {
		q   string
		det []string
	}{
		{"q() :- R(x), S(x, y), T(y)", []string{"T"}},
		{"q() :- R(x), S(x, y), T(y)", []string{"R"}},
		{"q() :- R(x), S(x, y), T(y)", []string{"R", "T"}},
		{"q() :- R(x), S(x), T(x, y), U(y)", []string{"S"}},
		{"q() :- R(x), S(x), T(x, y), U(y)", []string{"U"}},
		{"q() :- R(x), S(y), T(x, y)", []string{"T"}},
		{"q() :- A(x), B(y), M(x, y)", []string{"A", "B"}},
	}
	for _, c := range cases {
		q := cq.MustParse(c.q)
		det := map[string]bool{}
		for _, r := range c.det {
			det[r] = true
		}
		sch := &Schema{Det: det}
		isProb := func(rel string) bool { return !det[rel] }

		// Brute force: safe dissociations grouped by their probabilistic
		// extras (the ≡p class key).
		classKey := func(d plan.Dissociation) string {
			r := plan.NewDissociation()
			for rel, extra := range d.Extra {
				if isProb(rel) {
					for v := range extra {
						r.Add(rel, v)
					}
				}
			}
			return r.Key()
		}
		classes := map[string][]plan.Dissociation{}
		for _, d := range Dissociations(q) {
			if d.IsSafeFor(q) {
				classes[classKey(d)] = append(classes[classKey(d)], d)
			}
		}
		// Partial order on class keys: compare probabilistic extras.
		le := func(a, b plan.Dissociation) bool { return a.LEProb(b, isProb) }
		var minimalKeys []string
		for ka, as := range classes {
			dominated := false
			for kb, bs := range classes {
				if ka == kb {
					continue
				}
				if le(bs[0], as[0]) && !le(as[0], bs[0]) {
					dominated = true
					break
				}
			}
			if !dominated {
				minimalKeys = append(minimalKeys, ka)
			}
		}

		plans := MinimalPlans(q, sch)
		if len(plans) != len(minimalKeys) {
			t.Errorf("%s det=%v: %d plans, %d minimal ≡p classes", c.q, c.det, len(plans), len(minimalKeys))
			continue
		}
		seen := map[string]bool{}
		for _, p := range plans {
			key := classKey(plan.DeltaOf(q, p))
			if _, ok := classes[key]; !ok {
				t.Errorf("%s det=%v: plan dissociation %s not in any safe class", c.q, c.det, key)
				continue
			}
			if seen[key] {
				t.Errorf("%s det=%v: two plans in class %s", c.q, c.det, key)
			}
			seen[key] = true
			found := false
			for _, mk := range minimalKeys {
				if mk == key {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s det=%v: plan class %s is not minimal (minimal: %v)", c.q, c.det, key, minimalKeys)
			}
		}
	}
}
