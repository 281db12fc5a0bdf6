// Quickstart: a tiny uncertain movie database, one #P-hard query, and
// the three ways LaPushDB can answer it — dissociation (fast upper
// bounds, the paper's contribution), exact inference, and Monte Carlo.
package main

import (
	"context"
	"fmt"
	"log"

	"lapushdb"
)

func main() {
	ctx := context.Background()
	db := lapushdb.Open()

	// Tuple-independent probabilistic relations: every tuple carries the
	// probability that it is true.
	likes, err := db.CreateRelation("Likes", "user", "movie")
	check(err)
	stars, err := db.CreateRelation("Stars", "movie", "actor")
	check(err)
	fan, err := db.CreateRelation("Fan", "actor")
	check(err)

	check(likes.Insert(0.9, "ann", "heat"))
	check(likes.Insert(0.5, "bob", "heat"))
	check(likes.Insert(0.4, "bob", "ronin"))
	check(likes.Insert(0.8, "cyd", "ronin"))
	check(stars.Insert(0.8, "heat", "deniro"))
	check(stars.Insert(0.7, "ronin", "deniro"))
	check(stars.Insert(0.3, "heat", "pacino"))
	check(fan.Insert(0.6, "deniro"))
	check(fan.Insert(0.9, "pacino"))

	// Which users like a movie starring an actor with a fan page?
	// This is the chain-shaped query q(z) :- R(z,x), S(x,y), T(y) — the
	// canonical #P-hard query of the probabilistic-database literature.
	q := "q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)"

	ex, err := db.ExplainContext(ctx, q)
	check(err)
	fmt.Printf("query: %s\nsafe:  %v (so exact inference is #P-hard)\n\n", q, ex.Safe)
	for i, p := range ex.Plans {
		fmt.Printf("minimal plan %d: %s\n  dissociates:  %s\n", i+1, p, ex.Dissociations[i])
	}

	fmt.Println("\nranking by dissociation (guaranteed upper bounds, minimum over both plans):")
	diss, err := db.RankContext(ctx, q, nil)
	check(err)
	print(diss)

	fmt.Println("\nground truth (exact weighted model counting on the lineage):")
	exact, err := db.RankContext(ctx, q, &lapushdb.Options{Method: lapushdb.Exact})
	check(err)
	print(exact)

	fmt.Println("\nMonte Carlo with 10000 samples:")
	mcAnswers, err := db.RankContext(ctx, q, &lapushdb.Options{Method: lapushdb.MonteCarlo, MCSamples: 10000})
	check(err)
	print(mcAnswers)
}

func print(answers []lapushdb.Answer) {
	for i, a := range answers {
		fmt.Printf("  %d. %-6s %.6f\n", i+1, a.Values[0], a.Score)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
