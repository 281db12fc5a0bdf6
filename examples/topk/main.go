// Top-k: the dissociation upper bounds are more than a ranking
// heuristic — because every propagation score provably upper-bounds the
// true probability, they support a threshold-style top-k operator that
// returns the EXACT top answers while running exact inference on only a
// few lineages.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"lapushdb"
)

func main() {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	db := lapushdb.Open()

	orders, err := db.CreateRelation("Orders", "customer", "product")
	check(err)
	madeBy, err := db.CreateRelation("MadeBy", "product", "vendor")
	check(err)
	flagged, err := db.CreateRelation("Flagged", "vendor")
	check(err)

	products := []string{"p1", "p2", "p3", "p4", "p5", "p6"}
	vendors := []string{"acme", "globex", "initech"}
	for c := 0; c < 40; c++ {
		customer := fmt.Sprintf("cust%02d", c)
		for i := 0; i < 1+rng.Intn(3); i++ {
			check(orders.Insert(0.2+0.8*rng.Float64(), customer, products[rng.Intn(len(products))]))
		}
	}
	for _, p := range products {
		check(madeBy.Insert(0.5+0.5*rng.Float64(), p, vendors[rng.Intn(len(vendors))]))
	}
	for _, v := range vendors {
		check(flagged.Insert(rng.Float64()*0.8, v))
	}

	// Which customers most likely bought from a flagged vendor?
	q := "q(customer) :- Orders(customer, product), MadeBy(product, vendor), Flagged(vendor)"

	fmt.Println("exact top-5 via dissociation-bounded early termination:")
	top, err := db.RankTopK(ctx, q, 5, nil)
	check(err)
	for i, a := range top {
		fmt.Printf("  %d. %-8s %.6f (exact)\n", i+1, a.Values[0], a.Score)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
