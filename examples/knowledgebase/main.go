// Knowledge base: the motivation from the paper's introduction. Large
// automatically-constructed knowledge bases (Yago, NELL, Knowledge
// Vault) hold millions of uncertain facts; querying them is probabilistic
// inference. This example stores uncertain extraction facts, keeps the
// curated type hierarchy deterministic, and shows how schema knowledge
// (deterministic relations, keys) turns a #P-hard query into an exact
// PTIME one.
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

	// Extracted (uncertain) facts: confidence scores from the extractor.
	born, err := db.CreateRelation("BornIn", "person", "city")
	check(err)
	works, err := db.CreateRelation("WorksFor", "person", "org")
	check(err)
	// Curated (certain) facts: city locations from a trusted gazetteer.
	located, err := db.CreateDeterministicRelation("LocatedIn", "city", "country")
	check(err)

	check(born.Insert(0.9, "alice", "paris"))
	check(born.Insert(0.6, "alice", "lyon")) // conflicting extraction
	check(born.Insert(0.8, "bob", "berlin"))
	check(born.Insert(0.7, "carol", "paris"))
	check(works.Insert(0.95, "alice", "acme"))
	check(works.Insert(0.4, "bob", "acme"))
	check(works.Insert(0.85, "carol", "globex"))
	check(located.Insert(1, "paris", "france"))
	check(located.Insert(1, "lyon", "france"))
	check(located.Insert(1, "berlin", "germany"))

	// Which organizations employ someone born in France?
	// Shape: q(org) :- WorksFor(p, org), BornIn(p, c), LocatedIn(c, 'france').
	q := "q(org) :- WorksFor(p, org), BornIn(p, c), LocatedIn(c, country), country = 'france'"

	ex, err := db.ExplainContext(ctx, q)
	check(err)
	fmt.Printf("query: %s\n", q)
	fmt.Printf("safe with schema knowledge: %v — LocatedIn is deterministic,\n", ex.Safe)
	fmt.Printf("so the engine needs %d plan(s) and the scores are exact probabilities.\n\n", len(ex.Plans))

	answers, err := db.RankContext(ctx, q, nil)
	check(err)
	exact, err := db.RankContext(ctx, q, &lapushdb.Options{Method: lapushdb.Exact})
	check(err)
	fmt.Println("org        dissociation  exact")
	for i, a := range answers {
		fmt.Printf("%-10s %.6f      %.6f\n", a.Values[0], a.Score, exact[i].Score)
	}

	// Now the same query WITHOUT schema knowledge: the engine must treat
	// LocatedIn as probabilistic, the query becomes #P-hard, and two
	// plans are needed — the scores are upper bounds instead of exact.
	fmt.Println()
	ex2, err := db.ExplainContext(ctx, "q(org) :- WorksFor(p, org), BornIn(p, c), LocatedIn(c, country)",
		&lapushdb.Options{IgnoreSchema: true})
	check(err)
	bounds, err := db.RankContext(ctx, "q(org) :- WorksFor(p, org), BornIn(p, c), LocatedIn(c, country)",
		&lapushdb.Options{IgnoreSchema: true})
	check(err)
	fmt.Printf("ignoring schema knowledge the same join uses %d plans (safe=%v)\n", len(ex2.Plans), ex2.Safe)
	for _, a := range bounds {
		fmt.Printf("  %-10s <= %.6f\n", a.Values[0], a.Score)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
