package workload

import (
	"math/rand"
	"strings"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/engine"
)

func TestChainShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db, q := Chain(4, 100, 50, 0.5, rng)
	if len(q.Atoms) != 4 {
		t.Fatalf("atoms = %d", len(q.Atoms))
	}
	for i := 1; i <= 4; i++ {
		r := db.Relation(q.Atoms[i-1].Rel)
		if r == nil || r.Len() != 100 {
			t.Errorf("R%d missing or wrong size", i)
		}
		for j := 0; j < r.Len(); j++ {
			if p := r.Prob(j); p < 0 || p > 0.5 {
				t.Fatalf("probability %v out of [0, 0.5]", p)
			}
		}
	}
	if got := len(core.MinimalPlans(q, nil)); got != 5 {
		t.Errorf("4-chain minimal plans = %d, want 5", got)
	}
	// The query must evaluate without error end to end.
	res := engine.EvalPlansCtx(nil, db, q, core.MinimalPlans(q, nil), engine.Options{ReuseSubplans: true})
	for i := 0; i < res.Len(); i++ {
		if s := res.Score(i); s <= 0 || s > 1 {
			t.Errorf("answer score %v out of (0, 1]", s)
		}
	}
}

func TestStarShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db, q := Star(3, 200, 40, 0.5, rng)
	if len(q.Atoms) != 4 {
		t.Fatalf("atoms = %d", len(q.Atoms))
	}
	if db.Relation("R0").Len() != 200 {
		t.Errorf("hub size = %d", db.Relation("R0").Len())
	}
	if got := len(core.MinimalPlans(q, nil)); got != 6 {
		t.Errorf("3-star minimal plans = %d, want 6", got)
	}
	res := engine.EvalPlansCtx(nil, db, q, core.MinimalPlans(q, nil), engine.Options{ReuseSubplans: true})
	if res.Len() > 1 {
		t.Errorf("Boolean query returned %d answers", res.Len())
	}
}

func TestTPCHShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tp := NewTPCH(0.01, 0.5, rng)
	sup := tp.DB.Relation("Supplier")
	part := tp.DB.Relation("Part")
	ps := tp.DB.Relation("Partsupp")
	if sup.Len() != 100 || part.Len() != 2000 || ps.Len() != 8000 {
		t.Errorf("sizes = %d/%d/%d, want 100/2000/8000", sup.Len(), part.Len(), ps.Len())
	}
	// Nation keys span 0..24.
	nations := map[engine.Value]bool{}
	for i := 0; i < sup.Len(); i++ {
		nations[sup.Row(i)[1]] = true
	}
	if len(nations) != Nations {
		t.Errorf("nations = %d, want %d", len(nations), Nations)
	}
	// Part names are five distinct colors.
	name := tp.DB.Decode(part.Row(0)[1])
	words := strings.Fields(name)
	if len(words) != 5 {
		t.Errorf("part name %q should have 5 words", name)
	}
	// The query has the paper's two minimal plans and runs end to end.
	q := tp.Query(50, "%red%")
	plans := core.MinimalPlans(q, nil)
	if len(plans) != 2 {
		t.Fatalf("minimal plans = %d, want 2", len(plans))
	}
	res := engine.EvalPlansCtx(nil, tp.DB, q, plans, engine.Options{ReuseSubplans: true, SemiJoin: true})
	if res.Len() == 0 || res.Len() > Nations {
		t.Errorf("answers = %d", res.Len())
	}
}

func TestTPCHSelectivityOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tp := NewTPCH(0.01, 0.5, rng)
	count := func(pat string) int {
		q := tp.Query(tp.Suppliers, pat)
		lin := engine.EvalLineageCtx(nil, tp.DB, q, engine.SemiJoinReduceCtx(nil, tp.DB, q))
		total := 0
		for i := 0; i < lin.Len(); i++ {
			total += lin.Size(i)
		}
		return total
	}
	all := count("%")
	red := count("%red%")
	redGreen := count("%red%green%")
	if !(redGreen < red && red < all) {
		t.Errorf("selectivities not ordered: %%red%%green%%=%d %%red%%=%d %%=%d", redGreen, red, all)
	}
	if red == 0 {
		t.Error("no part names contain 'red'")
	}
}

func TestAssignProbs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db, _ := Chain(2, 50, 20, 1.0, rng)
	AssignProbs(db, "const", 0.3, rng)
	r := db.Relation("R1")
	for i := 0; i < r.Len(); i++ {
		if r.Prob(i) != 0.3 {
			t.Fatalf("const mode: prob = %v", r.Prob(i))
		}
	}
	AssignProbs(db, "uniform", 0.2, rng)
	hi := 0.0
	for i := 0; i < r.Len(); i++ {
		if p := r.Prob(i); p > hi {
			hi = p
		}
	}
	if hi > 0.2 {
		t.Errorf("uniform mode exceeded pimax: %v", hi)
	}
	// Lineage variable table must track the new probabilities.
	if db.VarProbs()[r.VarID(0)] != r.Prob(0) {
		t.Error("var prob table out of sync after AssignProbs")
	}
}

func TestColorsNonTrivial(t *testing.T) {
	if len(Colors) < 80 {
		t.Errorf("color list has %d entries, expected the TPC-H-sized list", len(Colors))
	}
	seen := map[string]bool{}
	for _, c := range Colors {
		if seen[c] {
			t.Errorf("duplicate color %q", c)
		}
		seen[c] = true
	}
}
