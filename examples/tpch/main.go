// TPC-H ranking: a miniature of the paper's Setup 1. We build a
// TPC-H-shaped database (Supplier ⋈ Partsupp ⋈ Part with random tuple
// probabilities), then rank the 25 nations by the probability that one
// of their suppliers, below a supplier-key threshold, supplies a part
// whose name matches a pattern — comparing dissociation, exact
// inference, Monte Carlo, and the non-probabilistic lineage-size
// heuristic.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"lapushdb"
)

// A small color vocabulary, TPC-H style: part names are five words.
var colors = strings.Fields(`almond antique aquamarine azure beige bisque
	black blanched blue blush brown burlywood chartreuse chocolate coral
	cornflower cream cyan dark deep dim dodger drab firebrick floral forest
	frosted gainsboro ghost goldenrod green grey honeydew hot indian ivory
	khaki lavender lawn lemon light lime linen magenta maroon medium
	metallic midnight mint misty navajo navy olive orange orchid pale
	papaya peach peru pink plum powder puff purple red rose rosy royal
	saddle salmon sandy seashell sienna sky slate smoke snow spring steel
	tan thistle tomato turquoise violet wheat white yellow`)

const (
	nations   = 25
	suppliers = 200
	parts     = 800
)

func main() {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	db := lapushdb.Open()

	sup, err := db.CreateRelation("Supplier", "suppkey", "nationkey")
	check(err)
	ps, err := db.CreateRelation("Partsupp", "suppkey", "partkey")
	check(err)
	part, err := db.CreateRelation("Part", "partkey", "name")
	check(err)

	for s := 1; s <= suppliers; s++ {
		check(sup.Insert(rng.Float64()*0.5, s, rng.Intn(nations)))
	}
	for u := 1; u <= parts; u++ {
		name := fmt.Sprintf("%s %s %s %s %s",
			colors[rng.Intn(len(colors))], colors[rng.Intn(len(colors))],
			colors[rng.Intn(len(colors))], colors[rng.Intn(len(colors))],
			colors[rng.Intn(len(colors))])
		check(part.Insert(rng.Float64()*0.5, u, name))
		for i := 0; i < 4; i++ {
			check(ps.Insert(rng.Float64()*0.5, 1+rng.Intn(suppliers), u))
		}
	}

	// The paper's parameterized query with $1 = 150 and $2 = '%red%'.
	q := `Q(nationkey) :- Supplier(s, nationkey), Partsupp(s, u), Part(u, n), s <= 150, n like '%red%'`

	fmt.Println("ranking 25 nations:", q)
	fmt.Println()
	type method struct {
		name string
		opts *lapushdb.Options
	}
	for _, m := range []method{
		{"dissociation (ρ, upper bounds)", nil},
		{"exact (ground truth)", &lapushdb.Options{Method: lapushdb.Exact}},
		{"Monte Carlo, 1000 samples", &lapushdb.Options{Method: lapushdb.MonteCarlo, MCSamples: 1000}},
		{"lineage size (non-probabilistic)", &lapushdb.Options{Method: lapushdb.LineageSize}},
	} {
		start := time.Now()
		answers, err := db.RankContext(ctx, q, m.opts)
		check(err)
		fmt.Printf("%-34s (%6.1f ms) top 5:", m.name, float64(time.Since(start).Microseconds())/1000)
		for i := 0; i < 5 && i < len(answers); i++ {
			fmt.Printf("  %s:%.4f", answers[i].Values[0], answers[i].Score)
		}
		fmt.Println()
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
