package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"lapushdb/internal/cq"
	"lapushdb/internal/plan"
)

// TestLoweringOracleDifferential pins the lowering's three rules on
// plans built by hand through one plan.Table, each run with Opt2 on and
// off and compared bit for bit with the oracle, which walks the plan by
// its own recursion. The steps are counted from EvalProfiled.
//
//   - shared: a Join under two different Projects has no step and runs
//     fused inside each.
//   - minParent: a Join that a Min also reads is one materialized step,
//     and the Project over it reads it unfused. (A Join parent cannot be
//     built: NewJoin flattens a Join child into its parent.)
//   - unfolded: with Opt2 off there is one step per node of the
//     unfolded tree (no join there runs fused); with it on, one per
//     distinct node.
func TestLoweringOracleDifferential(t *testing.T) {
	q := cq.MustParse("q(x, y, z) :- R(x, y), S(y, z), T(x, y)")
	// R ⋈ S holds some 45 000 rows: the fused and materialized joins both
	// span many morsels.
	rng := rand.New(rand.NewSource(42))
	db := NewDB()
	for _, rel := range []struct {
		name       string
		rows, a, b int
	}{{"R", 1500, 300, 20}, {"S", 600, 20, 50}, {"T", 1500, 300, 20}} {
		r := db.CreateRelation(rel.name, []string{"a", "b"})
		for i := 0; i < rel.rows; i++ {
			r.Insert([]Value{Value(rng.Intn(rel.a)), Value(rng.Intn(rel.b))}, rng.Float64())
		}
	}
	tab := plan.NewTable()
	r := tab.NewScan(q.Atoms[0], nil)
	s := tab.NewScan(q.Atoms[1], nil)
	tt := tab.NewScan(q.Atoms[2], nil)
	x, y, z := []cq.Var{"x"}, []cq.Var{"y"}, []cq.Var{"z"}

	rs := tab.NewJoin(r, s)
	shared := tab.NewJoin(tab.NewProject(x, rs), tab.NewProject(z, rs))
	minParent := tab.NewJoin(tab.NewProject(x, rs), tab.NewMin(rs, tab.NewJoin(tt, s)))
	v := tab.NewProject(y, s)
	unfolded := tab.NewMin(tab.NewJoin(r, v), tab.NewJoin(tt, v))

	cases := []struct {
		label string
		root  plan.Node
		// Steps with Opt2 off and on, and how many run fused.
		stepsOff, stepsOn, fused int
		materialized             plan.Node // a Join that must run as a step of its own
	}{
		{"shared", shared, 7, 5, 2, nil},
		{"minParent", minParent, 11, 8, 0, rs},
		{"unfolded", unfolded, 9, 7, 0, nil},
	}
	if n := treeNodes(unfolded); n != 9 {
		t.Fatalf("unfolded: the tree has %d nodes, want 9", n)
	}
	for _, c := range cases {
		for _, reuse := range []bool{false, true} {
			label := fmt.Sprintf("%s/opt2=%v", c.label, reuse)
			opts := Options{ReuseSubplans: reuse}
			got, stats := NewEvaluatorCtx(nil, db, nil, opts).EvalProfiled(c.root)
			assertIdenticalResults(t, label, EvalPlansOracle(nil, db, nil, []plan.Node{c.root}, opts), got)
			want := c.stepsOff
			if reuse {
				want = c.stepsOn
			}
			fused, materialized := 0, false
			for _, st := range stats {
				if st.Fused {
					fused++
				}
				if c.materialized != nil && st.Node.ID() == c.materialized.ID() {
					materialized = true
				}
			}
			if len(stats) != want || (reuse && fused != c.fused) {
				t.Errorf("%s: %d steps, %d fused; want %d steps, %d fused:\n%s", label, len(stats), fused, want, c.fused, FormatProfile(stats))
			}
			if c.materialized != nil && !materialized {
				t.Errorf("%s: %s ran as no step of its own:\n%s", label, plan.String(c.materialized), FormatProfile(stats))
			}
		}
	}
}

// treeNodes counts the nodes of the tree the DAG rooted at n unfolds to.
func treeNodes(n plan.Node) int {
	total := 1
	for _, c := range n.Children() {
		total += treeNodes(c)
	}
	return total
}
