package engine

import (
	"math"
	"math/rand"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
)

// indexedDB builds a relation with both index kinds declared.
func indexedDB(t *testing.T, n int) *DB {
	t.Helper()
	db := NewDB()
	s := db.CreateRelation("S", []string{"id", "tag"})
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < n; i++ {
		s.Insert([]Value{Value(i), Value(rng.Intn(10))}, rng.Float64())
	}
	if err := s.CreateIndex("tag"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateRangeIndex("id"); err != nil {
		t.Fatal(err)
	}
	return db
}

func evalQuery(db *DB, qs string) *Result {
	q := cq.MustParse(qs)
	return EvalPlans(db, q, core.MinimalPlans(q, nil), Options{})
}

func TestIndexedScansMatchFullScans(t *testing.T) {
	db := indexedDB(t, 500)
	plain := NewDB()
	p := plain.CreateRelation("S", []string{"id", "tag"})
	src := db.Relation("S")
	for i := 0; i < src.Len(); i++ {
		p.Insert(append([]Value(nil), src.Row(i)...), src.Prob(i))
	}
	queries := []string{
		"q(id) :- S(id, tag), tag = 3",
		"q(id) :- S(id, tag), id <= 100",
		"q(id) :- S(id, tag), id < 100",
		"q(id) :- S(id, tag), id >= 450",
		"q(id) :- S(id, tag), id > 450",
		"q(id) :- S(id, tag), id <= 100, tag = 3",
		"q(tag) :- S(id, tag), id <= 0",
	}
	for _, qs := range queries {
		a := evalQuery(db, qs)
		b := evalQuery(plain, qs)
		if a.Len() != b.Len() {
			t.Fatalf("%s: %d vs %d rows", qs, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			got, ok := b.ScoreOf(a.Row(i))
			if !ok || math.Abs(got-a.Score(i)) > 1e-12 {
				t.Errorf("%s: row %d mismatch", qs, i)
			}
		}
	}
}

func TestIndexConstantsInAtoms(t *testing.T) {
	db := NewDB()
	r := db.CreateRelation("R", []string{"k", "v"})
	a := db.Intern("a")
	b := db.Intern("b")
	r.Insert([]Value{a, 1}, 0.5)
	r.Insert([]Value{b, 2}, 0.5)
	r.Insert([]Value{a, 3}, 0.5)
	if err := r.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	res := evalQuery(db, "q(v) :- R('a', v)")
	if res.Len() != 2 {
		t.Errorf("rows = %d, want 2", res.Len())
	}
}

func TestIndexInvalidatedByInsert(t *testing.T) {
	db := NewDB()
	r := db.CreateRelation("R", []string{"x"})
	r.CreateIndex("x")
	r.Insert([]Value{1}, 0.5)
	if res := evalQuery(db, "q() :- R(x), x = 1"); res.BooleanScore() != 0.5 {
		t.Fatalf("before insert: %v", res.BooleanScore())
	}
	// Insert after the index was built: the lazy rebuild must pick it up.
	r.Insert([]Value{1}, 0.4)
	res := evalQuery(db, "q() :- R(x), x = 1")
	want := 1 - 0.5*0.6
	if math.Abs(res.BooleanScore()-want) > 1e-12 {
		t.Errorf("after insert: %v, want %v", res.BooleanScore(), want)
	}
}

func TestIndexErrors(t *testing.T) {
	db := NewDB()
	r := db.CreateRelation("R", []string{"x"})
	if err := r.CreateIndex("nope"); err == nil {
		t.Error("unknown column should fail")
	}
	if err := r.CreateRangeIndex("nope"); err == nil {
		t.Error("unknown column should fail")
	}
	// Idempotent declarations.
	if err := r.CreateIndex("x"); err != nil {
		t.Fatal(err)
	}
	if err := r.CreateIndex("x"); err != nil {
		t.Fatal(err)
	}
}

func TestRangeIndexSkipsStrings(t *testing.T) {
	db := NewDB()
	r := db.CreateRelation("R", []string{"x"})
	r.CreateRangeIndex("x")
	r.Insert([]Value{db.Intern("str")}, 0.5)
	r.Insert([]Value{5}, 0.5)
	r.Insert([]Value{15}, 0.5)
	// Range predicates only match numeric values; the string tuple never
	// qualifies, with or without the index.
	res := evalQuery(db, "q(x) :- R(x), x <= 10")
	if res.Len() != 1 {
		t.Errorf("rows = %d, want 1 (only the numeric 5)", res.Len())
	}
}

func BenchmarkIndexedThresholdScan(b *testing.B) {
	db := NewDB()
	s := db.CreateRelation("S", []string{"id", "tag"})
	rng := rand.New(rand.NewSource(72))
	for i := 0; i < 200000; i++ {
		s.Insert([]Value{Value(i), Value(rng.Intn(100))}, rng.Float64())
	}
	q := cq.MustParse("q(tag) :- S(id, tag), id <= 100")
	plans := core.MinimalPlans(q, nil)
	b.Run("full-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			EvalPlans(db, q, plans, Options{})
		}
	})
	s.CreateRangeIndex("id")
	b.Run("range-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			EvalPlans(db, q, plans, Options{})
		}
	})
}

// TestIndexAfterDeleteInsert: a delete followed by an insert restores
// the relation's length, which must not pass for an unchanged relation
// — the index built before the delete names rows that moved. Each case
// declares one index kind and scans through it before and after.
func TestIndexAfterDeleteInsert(t *testing.T) {
	for _, tc := range []struct {
		name          string
		index         func(*Relation) error
		query         string
		before, after Value
	}{
		{"hash", func(r *Relation) error { return r.CreateIndex("x") }, "q(y) :- R(1, y), S(y)", 20, 20},
		{"range", func(r *Relation) error { return r.CreateRangeIndex("x") }, "q(y) :- R(x, y), S(y), x >= 5", 10, 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := NewDB()
			r := db.CreateRelation("R", []string{"x", "y"})
			r.Insert([]Value{5, 10}, 0.5)
			r.Insert([]Value{1, 20}, 0.5)
			s := db.CreateRelation("S", []string{"y"})
			for _, v := range []Value{10, 20, 30} {
				s.Insert([]Value{v}, 0.5)
			}
			if err := tc.index(r); err != nil {
				t.Fatal(err)
			}
			answers := func() []Value {
				res := evalQuery(db, tc.query)
				var out []Value
				for _, i := range res.Sorted() {
					out = append(out, res.Row(i)[0])
				}
				return out
			}
			if got := answers(); len(got) != 1 || got[0] != tc.before {
				t.Fatalf("before the delete: answers %v, want [%d]", got, tc.before)
			}
			r.DeleteRow(0)
			r.Insert([]Value{7, 30}, 0.5)
			if got := answers(); len(got) != 1 || got[0] != tc.after {
				t.Errorf("after delete and insert: answers %v, want [%d]", got, tc.after)
			}
		})
	}
}
