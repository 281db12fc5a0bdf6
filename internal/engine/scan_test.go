package engine

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/plan"
)

func evalQuery(db *DB, qs string) *Result {
	q := cq.MustParse(qs)
	return EvalPlansCtx(nil, db, q, core.MinimalPlans(q, nil), Options{})
}

// booleanScore returns the score of a Boolean query's result: the single
// tuple's score, or 0 when the query has no satisfying assignment.
func booleanScore(r *Result) float64 {
	if r.Len() == 0 {
		return 0
	}
	return r.scores[0]
}

func TestIndexConstantsInAtoms(t *testing.T) {
	db := NewDB()
	r := db.CreateRelation("R", []string{"k", "v"})
	a := db.Intern("a")
	b := db.Intern("b")
	r.Insert([]Value{a, 1}, 0.5)
	r.Insert([]Value{b, 2}, 0.5)
	r.Insert([]Value{a, 3}, 0.5)
	res := evalQuery(db, "q(v) :- R('a', v)")
	if res.Len() != 2 {
		t.Errorf("rows = %d, want 2", res.Len())
	}
}

func TestIndexInvalidatedByInsert(t *testing.T) {
	db := NewDB()
	r := db.CreateRelation("R", []string{"x"})
	r.Insert([]Value{1}, 0.5)
	if res := evalQuery(db, "q() :- R(x), x = 1"); booleanScore(res) != 0.5 {
		t.Fatalf("before insert: %v", booleanScore(res))
	}
	// An insert after an evaluation: the next scan must see it.
	r.Insert([]Value{1}, 0.4)
	res := evalQuery(db, "q() :- R(x), x = 1")
	want := 1 - 0.5*0.6
	if math.Abs(booleanScore(res)-want) > 1e-12 {
		t.Errorf("after insert: %v, want %v", booleanScore(res), want)
	}
}

func TestRangeIndexSkipsStrings(t *testing.T) {
	db := NewDB()
	r := db.CreateRelation("R", []string{"x"})
	r.Insert([]Value{db.Intern("str")}, 0.5)
	r.Insert([]Value{5}, 0.5)
	r.Insert([]Value{15}, 0.5)
	// Range predicates only match numeric values: the string tuple never
	// qualifies.
	res := evalQuery(db, "q(x) :- R(x), x <= 10")
	if res.Len() != 1 {
		t.Errorf("rows = %d, want 1 (only the numeric 5)", res.Len())
	}
}

// TestScanAfterDeleteInsert: a delete followed by an insert restores the
// relation's length but moves its rows; a scan after them reads the rows
// as they are now, through a constant in an atom and through a range
// predicate alike.
func TestScanAfterDeleteInsert(t *testing.T) {
	for _, tc := range []struct {
		name          string
		query         string
		before, after Value
	}{
		{"constant", "q(y) :- R(1, y), S(y)", 20, 20},
		{"range", "q(y) :- R(x, y), S(y), x >= 5", 10, 30},
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
			answers := func() []Value {
				res := evalQuery(db, tc.query)
				var out []Value
				for _, i := range sortedRows(res) {
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

// TestScanRowOrder: a scan reads its candidates from the Opt3 reduction,
// or from the whole relation when there is none, and emits the rows that
// pass its filter in row order.
func TestScanRowOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	db := NewDB()
	r := db.CreateRelation("R", []string{"x", "y"})
	s := db.CreateRelation("S", []string{"y"})
	for i := 0; i < 500; i++ {
		r.Insert([]Value{Value(rng.Intn(100)), Value(rng.Intn(50))}, rng.Float64())
	}
	for i := 0; i < 20; i++ {
		s.Insert([]Value{Value(rng.Intn(50))}, rng.Float64())
	}
	q := cq.MustParse("q(x) :- R(x, y), S(y), x <= 60")
	for _, semi := range []bool{false, true} {
		e := NewEvaluatorCtx(nil, db, q, Options{SemiJoin: semi})
		for _, u := range plan.Distinct(core.SinglePlan(q, nil)) {
			sc, ok := u.Node.(*plan.Scan)
			if !ok {
				continue
			}
			rel, _, pos := scanLayout(db, sc)
			filter := newRowFilter(db, sc.Atom, sc.Preds)
			cand, restricted := e.reduced[rel.Name]
			if restricted != semi {
				t.Fatalf("semi-join %v: %s reduced = %v", semi, rel.Name, restricted)
			}
			if !restricted {
				for i := 0; i < rel.Len(); i++ {
					cand = append(cand, int32(i))
				}
			}
			var want []int32
			for _, i := range cand {
				if filter.ok(rel.Row(int(i))) {
					want = append(want, i)
				}
			}
			rowIDs := make([]int32, rel.Len())
			for i := range rowIDs {
				rowIDs[i] = int32(i)
			}
			out, sel := e.scan(sc, rowIDs) // gathering row ids yields the selection
			if !slices.Equal(sel, want) {
				t.Fatalf("semi-join %v: %s scans rows %v, want %v", semi, sc.Key(), sel, want)
			}
			for x, i := range sel {
				for k, j := range pos {
					if got := out.Row(x)[k]; got != rel.Row(int(i))[j] {
						t.Fatalf("semi-join %v: %s output row %d column %d = %d, relation row %d has %d",
							semi, sc.Key(), x, k, got, i, rel.Row(int(i))[j])
					}
				}
			}
		}
	}
}
