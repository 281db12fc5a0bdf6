// Safe plans and the dissociation lattice: a tour of the paper's worked
// examples. Shows the dichotomy (hierarchical queries are safe, others
// #P-hard), the minimal plans of Example 17 with their exact paper
// probabilities, and how keys (functional dependencies) restore safety
// (Example 23 / Section 3.3.2).
package main

import (
	"context"
	"fmt"
	"log"

	"lapushdb"
)

func main() {
	ctx := context.Background()
	// ---- Example 17: q :- R(x), S(x), T(x,y), U(y) --------------------
	db := lapushdb.Open()
	r, err := db.CreateRelation("R", "x")
	check(err)
	s, err := db.CreateRelation("S", "x")
	check(err)
	tt, err := db.CreateRelation("T", "x", "y")
	check(err)
	u, err := db.CreateRelation("U", "y")
	check(err)
	for _, v := range []int{1, 2} {
		check(r.Insert(0.5, v))
		check(s.Insert(0.5, v))
		check(u.Insert(0.5, v))
	}
	for _, row := range [][2]int{{1, 1}, {1, 2}, {2, 2}} {
		check(tt.Insert(0.5, row[0], row[1]))
	}

	q17 := "q() :- R(x), S(x), T(x, y), U(y)"
	ex, err := db.ExplainContext(ctx, q17)
	check(err)
	fmt.Println("Example 17:", q17)
	fmt.Printf("  safe: %v; the 8-element dissociation lattice has 2 minimal safe dissociations:\n", ex.Safe)
	for i, p := range ex.Plans {
		fmt.Printf("  plan %d: %-55s ∆ = %s\n", i+1, p, ex.Dissociations[i])
	}
	diss, err := db.RankContext(ctx, q17, nil)
	check(err)
	exact, err := db.RankContext(ctx, q17, &lapushdb.Options{Method: lapushdb.Exact})
	check(err)
	fmt.Printf("  paper: P(q) = 83/512 ≈ 0.1621, ρ(q) = 169/1024 ≈ 0.1650\n")
	fmt.Printf("  ours:  P(q) = %.4f, ρ(q) = %.4f\n\n", exact[0].Score, diss[0].Score)

	// ---- Dichotomy: a hierarchical query is exact with one plan -------
	dbh := lapushdb.Open()
	r2, err := dbh.CreateRelation("R", "x")
	check(err)
	s2, err := dbh.CreateRelation("S", "x", "y")
	check(err)
	check(r2.Insert(0.5, 1))
	check(s2.Insert(0.4, 1, 4))
	check(s2.Insert(0.7, 1, 5))
	exh, err := dbh.ExplainContext(ctx, "q() :- R(x), S(x, y)")
	check(err)
	ph, err := dbh.RankContext(ctx, "q() :- R(x), S(x, y)", nil)
	check(err)
	fmt.Println("Dichotomy: q() :- R(x), S(x, y) is hierarchical")
	fmt.Printf("  safe: %v, single plan: %s\n", exh.Safe, exh.Plans[0])
	fmt.Printf("  P(q) = p(1-(1-q)(1-r)) = 0.5·(1-0.6·0.3) = %.4f (exact, Example 7)\n\n", ph[0].Score)

	// ---- Example 23 / FDs: keys restore safety ------------------------
	dbk := lapushdb.Open()
	r3, err := dbk.CreateRelation("R", "x")
	check(err)
	s3, err := dbk.CreateRelation("S", "x", "y")
	check(err)
	t3, err := dbk.CreateRelation("T", "y")
	check(err)
	check(r3.Insert(0.5, 1))
	check(s3.Insert(0.6, 1, 7))
	check(t3.Insert(0.8, 7))

	qk := "q() :- R(x), S(x, y), T(y)"
	before, err := dbk.ExplainContext(ctx, qk)
	check(err)
	fmt.Println("Example 23:", qk)
	fmt.Printf("  without keys: safe=%v, %d plans (the classic #P-hard query)\n", before.Safe, len(before.Plans))

	s3.SetKey("x") // functional dependency x → y
	after, err := dbk.ExplainContext(ctx, qk)
	check(err)
	fmt.Printf("  with key S(x): safe=%v, %d plan — the FD chase dissociates R on y\n", after.Safe, len(after.Plans))
	fmt.Printf("  plan: %-50s ∆ = %s\n", after.Plans[0], after.Dissociations[0])
	pk, err := dbk.RankContext(ctx, qk, nil)
	check(err)
	pe, err := dbk.RankContext(ctx, qk, &lapushdb.Options{Method: lapushdb.Exact})
	check(err)
	fmt.Printf("  score = %.6f, exact = %.6f (equal: the plan is exact under the FD)\n", pk[0].Score, pe[0].Score)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
