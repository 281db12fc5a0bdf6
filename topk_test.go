package lapushdb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
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

// TestRankTopKTiesMatchExact: when many answers tie at the k-th exact
// probability, RankTopK breaks the tie as exact ranking does, by values,
// whatever order the bounds come out in. Every answer scores 0.5: alone,
// and through a join with a deterministic relation (bound = exact).
func TestRankTopKTiesMatchExact(t *testing.T) {
	for _, tc := range []struct {
		name, query string
		join        bool
	}{
		{"single", "q(x) :- R(x)", false},
		{"deterministic-join", "q(x) :- R(x), D(x, y)", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := Open()
			r, err := db.CreateRelation("R", "x")
			if err != nil {
				t.Fatal(err)
			}
			det, err := db.CreateDeterministicRelation("D", "x", "y")
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			for _, i := range rng.Perm(200) {
				v := fmt.Sprintf("v%03d", i)
				if err := r.Insert(0.5, v); err != nil {
					t.Fatal(err)
				}
				if tc.join {
					if err := det.Insert(1, v, i%7); err != nil {
						t.Fatal(err)
					}
				}
			}
			ctx := context.Background()
			full, err := db.RankContext(ctx, tc.query, &Options{Method: Exact})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 3, 10} {
				top, err := db.RankTopK(ctx, tc.query, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(top, full[:k]) {
					t.Errorf("k=%d: RankTopK = %v, exact ranking = %v", k, top, full[:k])
				}
			}
		})
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

// TestRankTopKBudgetCoversBoundsAndLineage: RankTopK computes its bounds
// and its lineages on one evaluation, so MaxIntermediateRows covers both.
// A budget that admits the bound pass alone and the lineage alone fails;
// their sum passes.
func TestRankTopKBudgetCoversBoundsAndLineage(t *testing.T) {
	db := biggerDB(t, 30)
	ctx := context.Background()
	rows := func(m Method) int {
		return minBudget(t, func(n int) error {
			_, err := db.RankContext(ctx, topkQuery, &Options{Method: m, MaxIntermediateRows: n})
			return err
		})
	}
	bounds, lineage := rows(Dissociation), rows(Exact)
	if _, err := db.RankTopK(ctx, topkQuery, 3, &Options{MaxIntermediateRows: max(bounds, lineage)}); !errors.Is(err, ErrBudget) {
		t.Errorf("budget %d (bounds %d, lineage %d rows): err = %v, want ErrBudget", max(bounds, lineage), bounds, lineage, err)
	}
	if _, err := db.RankTopK(ctx, topkQuery, 3, &Options{MaxIntermediateRows: bounds + lineage}); err != nil {
		t.Errorf("budget %d = bounds + lineage: %v", bounds+lineage, err)
	}
}

// TestRankUnionDissociationParity: a Dissociation union scores each
// answer 1 − ∏(1 − ρi), the product taken in arm order over the arms
// that hold the answer, bit for bit. The first two arms share some
// answers and not others; the third shares none.
func TestRankUnionDissociationParity(t *testing.T) {
	db := biggerDB(t, 30)
	ctx := context.Background()
	arms := []string{
		topkQuery,
		"q(user) :- Likes(user, 'heat')",
		"q(actor) :- Stars(movie, actor), Fan(actor)",
	}
	miss := map[string]float64{}
	counts := map[string]int{}
	for _, arm := range arms {
		answers, err := db.RankContext(ctx, arm, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range answers {
			key := stringsKey(a.Values)
			if _, ok := miss[key]; !ok {
				miss[key] = 1
			}
			miss[key] *= 1 - a.Score
			counts[key]++
		}
	}
	shared := 0
	for _, c := range counts {
		if c > 1 {
			shared++
		}
	}
	if shared == 0 || shared == len(counts) {
		t.Fatalf("%d of %d answers in more than one arm: want some, not all", shared, len(counts))
	}
	union, err := db.RankUnion(ctx, arms, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(union) != len(miss) {
		t.Fatalf("%d union answers, %d distinct arm answers", len(union), len(miss))
	}
	for _, a := range union {
		m, ok := miss[stringsKey(a.Values)]
		if !ok {
			t.Fatalf("answer %v in no arm", a.Values)
		}
		if math.Float64bits(a.Score) != math.Float64bits(1-m) {
			t.Errorf("answer %v: score %v, arms give %v", a.Values, a.Score, 1-m)
		}
	}
}
