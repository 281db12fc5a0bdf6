package lapushdb_test

import (
	"context"
	"fmt"

	"lapushdb"
)

// Example demonstrates the core workflow: build a tuple-independent
// probabilistic database and rank the answers of a #P-hard query with
// guaranteed upper bounds.
func Example() {
	db := lapushdb.Open()
	likes, _ := db.CreateRelation("Likes", "user", "movie")
	stars, _ := db.CreateRelation("Stars", "movie", "actor")
	fan, _ := db.CreateRelation("Fan", "actor")
	_ = likes.Insert(0.9, "ann", "heat")
	_ = likes.Insert(0.5, "bob", "heat")
	_ = stars.Insert(0.8, "heat", "deniro")
	_ = fan.Insert(0.6, "deniro")

	answers, _ := db.RankContext(context.Background(), "q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)", nil)
	for _, a := range answers {
		fmt.Printf("%s %.4f\n", a.Values[0], a.Score)
	}
	// Output:
	// ann 0.4320
	// bob 0.2400
}

// ExampleDB_ExplainContext shows how a query's minimal plans and their
// dissociations are inspected, and how safety is reported.
func ExampleDB_ExplainContext() {
	db := lapushdb.Open()
	r, _ := db.CreateRelation("R", "x")
	s, _ := db.CreateRelation("S", "x", "y")
	t, _ := db.CreateRelation("T", "y")
	_ = r.Insert(0.5, 1)
	_ = s.Insert(0.5, 1, 2)
	_ = t.Insert(0.5, 2)

	ex, _ := db.ExplainContext(context.Background(), "q() :- R(x), S(x, y), T(y)")
	fmt.Println("safe:", ex.Safe)
	for _, d := range ex.Dissociations {
		fmt.Println("dissociation:", d)
	}
	// Output:
	// safe: false
	// dissociation: {T^{x}}
	// dissociation: {R^{y}}
}

// ExampleDB_ExplainContext_schemaKnowledge shows keys turning a #P-hard query
// safe (Section 3.3.2 of the paper): with the functional dependency
// x → y from S's key, a single exact plan suffices.
func ExampleDB_ExplainContext_schemaKnowledge() {
	db := lapushdb.Open()
	r, _ := db.CreateRelation("R", "x")
	s, _ := db.CreateRelation("S", "x", "y")
	t, _ := db.CreateRelation("T", "y")
	s.SetKey("x")
	_ = r.Insert(0.5, 1)
	_ = s.Insert(0.5, 1, 2)
	_ = t.Insert(0.5, 2)

	ex, _ := db.ExplainContext(context.Background(), "q() :- R(x), S(x, y), T(y)")
	fmt.Println("safe:", ex.Safe, "plans:", len(ex.Plans))
	// Output:
	// safe: true plans: 1
}

// ExampleDB_LineageContext shows Boolean provenance with read-once
// factorization.
func ExampleDB_LineageContext() {
	db := lapushdb.Open()
	r, _ := db.CreateRelation("R", "x")
	s, _ := db.CreateRelation("S", "x", "y")
	_ = r.Insert(0.5, 1)
	_ = s.Insert(0.4, 1, 4)
	_ = s.Insert(0.7, 1, 5)

	infos, _ := db.LineageContext(context.Background(), "q() :- R(x), S(x, y)")
	for _, info := range infos {
		fmt.Println(info.Formula)
		fmt.Println("read-once:", info.ReadOnce)
	}
	// Output:
	// R(1)·S(1, 4) ∨ R(1)·S(1, 5)
	// read-once: true
}
