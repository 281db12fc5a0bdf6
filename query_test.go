package lapushdb

import (
	"context"
	"math"
	"testing"
)

func TestQueryBuilderMatchesString(t *testing.T) {
	db := movieDB(t)
	b := NewQuery("q").
		Head("user").
		Atom("Likes", "user", "movie").
		Atom("Stars", "movie", "actor").
		Atom("Fan", "actor")
	fromBuilder, err := db.RankQuery(context.Background(), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	fromString, err := db.RankContext(context.Background(), "q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromBuilder) != len(fromString) {
		t.Fatalf("answers %d vs %d", len(fromBuilder), len(fromString))
	}
	for i := range fromString {
		if fromBuilder[i].Values[0] != fromString[i].Values[0] ||
			math.Abs(fromBuilder[i].Score-fromString[i].Score) > 1e-12 {
			t.Errorf("answer %d: %+v vs %+v", i, fromBuilder[i], fromString[i])
		}
	}
}

func TestQueryBuilderConstantsAndPredicates(t *testing.T) {
	db := Open()
	s, _ := db.CreateRelation("S", "id", "name", "kind")
	_ = s.Insert(0.5, 1, "red apple", "fruit")
	_ = s.Insert(0.5, 2, "green pear", "fruit")
	_ = s.Insert(0.5, 30, "red chair", "furniture")

	b := NewQuery("q").
		Head("name").
		Atom("S", "id", "name", Const("fruit")).
		Where("id", "<=", 10).
		Where("name", "like", "%red%")
	answers, err := db.RankQuery(context.Background(), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 || answers[0].Values[0] != "red apple" {
		t.Errorf("answers = %+v", answers)
	}
}

func TestQueryBuilderExplain(t *testing.T) {
	db := movieDB(t)
	b := NewQuery("q").Head("movie").Atom("Stars", "movie", "actor").Atom("Fan", "actor")
	ex, err := db.ExplainQuery(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Safe || len(ex.Plans) != 1 {
		t.Errorf("safe=%v plans=%d", ex.Safe, len(ex.Plans))
	}
	if b.String() == "" {
		t.Error("String should render a valid query")
	}
}

func TestQueryBuilderErrors(t *testing.T) {
	db := movieDB(t)
	cases := []*QueryBuilder{
		NewQuery("q").Head("x"),                                       // no atoms
		NewQuery("q").Head("z").Atom("Likes", "user", "movie"),        // head var not in body
		NewQuery("q").Atom("Likes", "u", "m").Atom("Likes", "u", "m"), // self-join
		NewQuery("q").Atom("Likes", "u", 3.14),                        // bad arg type
		NewQuery("q").Atom("Likes", "u", "m").Where("u", "~", 3),      // bad operator
		NewQuery("q").Atom("Likes", "u", "m").Where("u", "<=", 1.5),   // bad const type
	}
	for i, b := range cases {
		if _, err := db.RankQuery(context.Background(), b, nil); err == nil {
			t.Errorf("case %d: expected error, query = %q", i, b.String())
		}
	}
}

func TestQueryBuilderAllOps(t *testing.T) {
	db := Open()
	r, _ := db.CreateRelation("R", "x")
	for i := 1; i <= 5; i++ {
		_ = r.Insert(0.5, i)
	}
	cases := []struct {
		op   string
		c    int
		want int
	}{
		{"<=", 3, 3}, {"<", 3, 2}, {">=", 3, 3}, {">", 3, 2}, {"=", 3, 1}, {"!=", 3, 4}, {"<>", 3, 4}, {"==", 3, 1},
	}
	for _, c := range cases {
		b := NewQuery("q").Head("x").Atom("R", "x").Where("x", c.op, c.c)
		as, err := db.RankQuery(context.Background(), b, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		if len(as) != c.want {
			t.Errorf("op %s: %d answers, want %d", c.op, len(as), c.want)
		}
	}
}
