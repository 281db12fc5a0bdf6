package lapushdb

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"lapushdb/internal/workload"
)

// biggerDB builds a database with many answers so top-k pruning has
// something to prune.
func biggerDB(t *testing.T, users int) *DB {
	t.Helper()
	db := Open()
	likes, err := db.CreateRelation("Likes", "user", "movie")
	if err != nil {
		t.Fatal(err)
	}
	stars, err := db.CreateRelation("Stars", "movie", "actor")
	if err != nil {
		t.Fatal(err)
	}
	fan, err := db.CreateRelation("Fan", "actor")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	movies := []string{"heat", "ronin", "casino", "alien", "solaris"}
	actors := []string{"a1", "a2", "a3", "a4"}
	for u := 0; u < users; u++ {
		user := string(rune('a'+u%26)) + string(rune('a'+(u/26)%26))
		for m := 0; m < 2+rng.Intn(3); m++ {
			if err := likes.Insert(rng.Float64(), user, movies[rng.Intn(len(movies))]); err != nil {
				// Ignore duplicate-shaped inserts: tuples may repeat, which
				// is fine for a probabilistic DB (distinct events).
				t.Fatal(err)
			}
		}
	}
	for _, m := range movies {
		for a := 0; a < 2; a++ {
			if err := stars.Insert(rng.Float64(), m, actors[rng.Intn(len(actors))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, a := range actors {
		if err := fan.Insert(rng.Float64(), a); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

const topkQuery = "q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)"

func TestRankTopKMatchesExact(t *testing.T) {
	db := biggerDB(t, 30)
	full, err := db.RankContext(context.Background(), topkQuery, &Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 10} {
		top, err := db.RankTopK(context.Background(), topkQuery, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := k
		if want > len(full) {
			want = len(full)
		}
		if len(top) != want {
			t.Fatalf("k=%d: got %d answers, want %d", k, len(top), want)
		}
		for i := 0; i < want; i++ {
			if math.Abs(top[i].Score-full[i].Score) > 1e-12 {
				t.Errorf("k=%d position %d: score %v, want %v (%v vs %v)",
					k, i, top[i].Score, full[i].Score, top[i].Values, full[i].Values)
			}
		}
	}
}

// TestRankTopKAnytimeMatchesFull is the differential contract of
// bound-pruned top-k: on every differential shape, RankTopKAnytime's
// converged answers are exactly the top-k slice of the full
// RankAnytime result — same values, and bit-identical [lower, upper]
// intervals, because sampler streams are derived from answer keys and
// each answer refines until its own convergence regardless of what
// else is pruned.
func TestRankTopKAnytimeMatchesFull(t *testing.T) {
	type shape struct {
		label string
		query string
		db    *DB
		k     int
	}
	rng := rand.New(rand.NewSource(57))
	var shapes []shape
	{
		edb, q := workload.Chain(3, 500, 70, 0.5, rng)
		shapes = append(shapes, shape{"chain3", q.String(), fromEngineDB(t, edb), 5})
	}
	{
		// The star query is Boolean — a single answer — so k=1 checks
		// the degenerate prune-nothing path.
		edb, q := workload.Star(3, 40, 12, 0.5, rng)
		shapes = append(shapes, shape{"star3", q.String(), fromEngineDB(t, edb), 1})
	}
	{
		tp := workload.NewTPCH(0.01, 0.1, rng)
		shapes = append(shapes, shape{"tpch", tp.Query(tp.Suppliers, "%red%").String(), fromEngineDB(t, tp.DB), 3})
	}

	for _, sh := range shapes {
		opts := AnytimeOptions{Epsilon: 0.05, Seed: 11, MCMaxSamples: 2048}
		full, err := sh.db.RankAnytimeContext(context.Background(), sh.query, &opts)
		if err != nil {
			t.Fatalf("%s: full: %v", sh.label, err)
		}
		if !full.Converged {
			t.Fatalf("%s: full run did not converge (width %g)", sh.label, full.Width)
		}
		top, err := sh.db.RankTopKAnytime(context.Background(), sh.query, sh.k, &opts)
		if err != nil {
			t.Fatalf("%s: topk: %v", sh.label, err)
		}
		if !top.Converged {
			t.Fatalf("%s: top-k run did not converge (width %g)", sh.label, top.Width)
		}
		want := sh.k
		if want > len(full.Answers) {
			want = len(full.Answers)
		}
		if len(top.Answers) != want {
			t.Fatalf("%s: %d answers, want %d", sh.label, len(top.Answers), want)
		}
		for i, a := range top.Answers {
			f := full.Answers[i]
			if stringsKey(a.Values) != stringsKey(f.Values) {
				t.Fatalf("%s rank %d: pruned answer %v, full answer %v", sh.label, i, a.Values, f.Values)
			}
			if a.Lower != f.Lower || a.Upper != f.Upper {
				t.Fatalf("%s rank %d (%v): pruned interval [%v, %v] != full [%v, %v]",
					sh.label, i, a.Values, a.Lower, a.Upper, f.Lower, f.Upper)
			}
		}
	}
}

func TestRankTopKErrors(t *testing.T) {
	db := movieDB(t)
	if _, err := db.RankTopK(context.Background(), topkQuery, 0, nil); err == nil {
		t.Error("k = 0 should fail")
	}
	if _, err := db.RankTopK(context.Background(), "broken", 3, nil); err == nil {
		t.Error("bad query should fail")
	}
	if _, err := db.RankTopK(context.Background(), "q(x) :- Missing(x)", 3, nil); err == nil {
		t.Error("unknown relation should fail")
	}
	// The bound evaluation honours the row budget like every other
	// Dissociation entry point.
	if _, err := db.RankTopK(context.Background(), topkQuery, 3, &Options{MaxIntermediateRows: 1}); !errors.Is(err, ErrBudget) {
		t.Errorf("MaxIntermediateRows 1: err = %v, want ErrBudget", err)
	}
}

func TestRankUnionDissociationUpperBound(t *testing.T) {
	db := movieDB(t)
	queries := []string{
		"q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)",
		"q(user) :- Likes(user, movie)",
	}
	diss, err := db.RankUnion(context.Background(), queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := db.RankUnion(context.Background(), queries, &Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	if len(diss) != len(ex) {
		t.Fatalf("answers %d vs %d", len(diss), len(ex))
	}
	score := func(as []Answer, v string) (float64, bool) {
		for _, a := range as {
			if a.Values[0] == v {
				return a.Score, true
			}
		}
		return 0, false
	}
	for _, a := range ex {
		got, ok := score(diss, a.Values[0])
		if !ok {
			t.Fatalf("answer %v missing from dissociation union", a.Values)
		}
		if got < a.Score-1e-12 {
			t.Errorf("%v: union upper bound %v below exact %v (FKG violated?)", a.Values, got, a.Score)
		}
	}
	// Union probabilities dominate each arm's probability.
	arm, _ := db.RankContext(context.Background(), queries[1], &Options{Method: Exact})
	for _, a := range arm {
		got, ok := score(ex, a.Values[0])
		if !ok || got < a.Score-1e-12 {
			t.Errorf("%v: union exact %v below arm exact %v", a.Values, got, a.Score)
		}
	}
}

func TestRankUnionMonteCarlo(t *testing.T) {
	db := movieDB(t)
	queries := []string{
		"q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)",
		"q(user) :- Likes(user, movie)",
	}
	ex, err := db.RankUnion(context.Background(), queries, &Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	mcAs, err := db.RankUnion(context.Background(), queries, &Options{Method: MonteCarlo, MCSamples: 100000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range ex {
		for _, b := range mcAs {
			if b.Values[0] == a.Values[0] && math.Abs(b.Score-a.Score) > 0.01 {
				t.Errorf("%v: MC %v vs exact %v", a.Values, b.Score, a.Score)
			}
		}
	}
}

func TestRankUnionErrors(t *testing.T) {
	db := movieDB(t)
	if _, err := db.RankUnion(context.Background(), nil, nil); err == nil {
		t.Error("empty union should fail")
	}
	if _, err := db.RankUnion(context.Background(), []string{"bad"}, nil); err == nil {
		t.Error("bad arm should fail")
	}
	if _, err := db.RankUnion(context.Background(), []string{
		"q(user) :- Likes(user, movie)",
		"q(user, movie) :- Likes(user, movie)",
	}, nil); err == nil {
		t.Error("mismatched arities should fail")
	}
	if _, err := db.RankUnion(context.Background(), []string{"q(user) :- Likes(user, movie)"},
		&Options{Method: LineageSize}); err == nil {
		t.Error("unsupported method should fail")
	}
}

// TestRankUnionSeedDeterministic: the union's answers are sampled in
// first-appearance order from one Seed-derived stream, so repeating a
// MonteCarlo union gives bit-identical scores every time.
func TestRankUnionSeedDeterministic(t *testing.T) {
	db := movieDB(t)
	queries := []string{
		"q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)",
		"q(user) :- Likes(user, movie)",
	}
	opts := &Options{Method: MonteCarlo, MCSamples: 1000, Seed: 3}
	first, err := db.RankUnion(context.Background(), queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		again, err := db.RankUnion(context.Background(), queries, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("call %d: %v, first call %v", i+2, again, first)
		}
	}
}
