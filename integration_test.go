package lapushdb

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestIntegrationTPCH is the end-to-end safety net: a moderate TPC-H
// instance queried through the public API with every method and every
// optimization combination, checking the paper's invariants — upper
// bounds, exact agreement across exact methods, and ranking coherence.
func TestIntegrationTPCH(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(99))
	db := Open()
	sup, _ := db.CreateRelation("Supplier", "s", "a")
	ps, _ := db.CreateRelation("Partsupp", "s", "u")
	part, _ := db.CreateRelation("Part", "u", "n")
	if err := sup.CreateRangeIndex("s"); err != nil {
		t.Fatal(err)
	}
	colors := []string{"red", "green", "blue", "ivory", "plum"}
	nSupp, nPart := 120, 300
	for s := 1; s <= nSupp; s++ {
		if err := sup.Insert(rng.Float64()*0.4, s, rng.Intn(25)); err != nil {
			t.Fatal(err)
		}
	}
	for u := 1; u <= nPart; u++ {
		name := colors[rng.Intn(len(colors))] + " " + colors[rng.Intn(len(colors))]
		if err := part.Insert(rng.Float64()*0.4, u, name); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := ps.Insert(rng.Float64()*0.4, 1+rng.Intn(nSupp), u); err != nil {
				t.Fatal(err)
			}
		}
	}
	q := "Q(a) :- Supplier(s, a), Partsupp(s, u), Part(u, n), s <= 90, n like '%red%'"

	exactAns, err := db.RankContext(context.Background(), q, &Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	obddAns := obddScores(t, db, q, 50_000_000)
	scoreOf := func(as []Answer, v string) (float64, bool) {
		for _, a := range as {
			if a.Values[0] == v {
				return a.Score, true
			}
		}
		return 0, false
	}
	for i, a := range exactAns {
		ob, ok := obddAns[a.Values[0]]
		if !ok || math.Abs(ob-a.Score) > 1e-9 {
			t.Errorf("answer %d: DPLL %v vs OBDD %v", i, a.Score, ob)
		}
	}

	// Every dissociation configuration upper-bounds exact and produces
	// identical scores to every other configuration.
	var baseline []Answer
	for i, opts := range []*Options{
		{},
		{DisableOpt1: true},
		{DisableOpt2: true},
		{DisableOpt3: true},
		{DisableOpt1: true, DisableOpt2: true, DisableOpt3: true},
	} {
		diss, err := db.RankContext(context.Background(), q, opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if i == 0 {
			baseline = diss
		}
		if len(diss) != len(baseline) {
			t.Fatalf("opts %+v: %d answers vs %d", opts, len(diss), len(baseline))
		}
		for _, a := range diss {
			b, ok := scoreOf(baseline, a.Values[0])
			if !ok || math.Abs(a.Score-b) > 1e-9 {
				t.Errorf("opts %+v: %s score %v vs baseline %v", opts, a.Values[0], a.Score, b)
			}
			ex, ok := scoreOf(exactAns, a.Values[0])
			if !ok {
				t.Errorf("opts %+v: answer %s not in exact results", opts, a.Values[0])
			} else if a.Score < ex-1e-9 {
				t.Errorf("opts %+v: %s bound %v below exact %v", opts, a.Values[0], a.Score, ex)
			}
		}
	}

	// Top-k agrees with the full exact ranking.
	top, err := db.RankTopK(context.Background(), q, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range top {
		if math.Abs(top[i].Score-exactAns[i].Score) > 1e-9 {
			t.Errorf("top-k position %d: %v vs %v", i, top[i], exactAns[i])
		}
	}

	// Influence explains the top answer with positive sensitivities.
	infl, err := db.Influence(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(infl) == 0 || len(infl[0].Tuples) == 0 {
		t.Fatal("no influence results")
	}
	if infl[0].Tuples[0].Influence <= 0 {
		t.Errorf("top influence non-positive: %+v", infl[0].Tuples[0])
	}
	if !strings.Contains(infl[0].Tuples[0].Tuple, "(") {
		t.Errorf("influence tuple label not rendered: %q", infl[0].Tuples[0].Tuple)
	}

	// Karp-Luby tracks exact within MC noise on the top answers.
	kl, err := db.RankContext(context.Background(), q, &Options{Method: KarpLuby, MCSamples: 50000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3 && i < len(exactAns); i++ {
		got, ok := scoreOf(kl, exactAns[i].Values[0])
		if !ok || math.Abs(got-exactAns[i].Score) > 0.02 {
			t.Errorf("KL %s: %v vs exact %v", exactAns[i].Values[0], got, exactAns[i].Score)
		}
	}
}
