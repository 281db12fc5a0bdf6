package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/plan"
)

// budgetDB builds a database whose join q :- R(x), S(x, y) materializes
// n·m intermediate rows from n + m inputs.
func budgetDB(n, m int) *DB {
	db := NewDB()
	R := db.CreateRelation("R", []string{"a"})
	S := db.CreateRelation("S", []string{"a", "b"})
	for i := 0; i < n; i++ {
		R.Insert([]Value{1}, 0.5)
	}
	for j := 0; j < m; j++ {
		S.Insert([]Value{1, Value(j + 2)}, 0.5)
	}
	return db
}

func evalWithBudget(db *DB, maxRows int) error {
	q := cq.MustParse("q() :- R(x), S(x, y)")
	plans := core.MinimalPlans(q, nil)
	return TrapCancel(func() {
		EvalPlansCtx(nil, db, q, plans, Options{MaxIntermediateRows: maxRows})
	})
}

func TestBudgetExceededIsTyped(t *testing.T) {
	// The safe plan π{}(R ⋈ π{x}S) materializes ~302 rows here (two
	// 100-row scans plus the join); a 150-row cap must abort it.
	db := budgetDB(100, 100)
	err := evalWithBudget(db, 150)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

func TestBudgetExceededParallel(t *testing.T) {
	// The probe charges its matches once per morsel of probe rows and the
	// typed error surfaces from inside the probe loop. Drive join directly
	// so the probe spans several morsels.
	n := 3 * morselSize
	in := newResult([]cq.Var{"x"})
	for i := 0; i < n; i++ {
		in.vals[0] = append(in.vals[0], Value(i))
		in.ids[0] = append(in.ids[0], int32(i))
		in.scores = append(in.scores, 0.5)
	}
	ex := &exec{c: &canceller{}, budget: newRowBudget(n / 2)}
	err := TrapCancel(func() { join(in, in, ex) })
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

// TestBudgetBatchChargingParity is the accounting property behind the
// 422 contract: the columnar executor charges MaxIntermediateRows in
// per-batch increments (one charge per scan selection, probe chunk, or
// projection chunk), but its charge totals equal the oracle's per-tuple
// totals exactly — so for every workload the minimal budget that
// evaluates without ErrBudget is identical in both executors (stronger
// than the ±1-morsel tolerance the batching would naively allow,
// because tripping depends only on the shared running total).
func TestBudgetBatchChargingParity(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	minBudget := func(db *DB, q *cq.Query, plans []plan.Node, oracle bool) int {
		eval := func(limit int) bool {
			err := TrapCancel(func() {
				EvalPlansCtx(nil, db, q, plans, Options{
					MaxIntermediateRows: limit,
					Oracle:              oracle,
				})
			})
			if err != nil && !errors.Is(err, ErrBudget) {
				t.Fatalf("unexpected error at limit %d: %v", limit, err)
			}
			return err == nil
		}
		lo, hi := 0, 1<<22 // lo always trips (limit>0 semantics aside), hi always passes
		if !eval(hi) {
			t.Fatalf("budget %d still trips", hi)
		}
		for lo+1 < hi {
			mid := lo + (hi-lo)/2
			if mid == 0 {
				lo = 0
				continue
			}
			if eval(mid) {
				hi = mid
			} else {
				lo = mid
			}
		}
		return hi
	}
	for iter := 0; iter < 10; iter++ {
		qs := propQueries[iter%len(propQueries)]
		q := cq.MustParse(qs)
		db := randomDB(q, 4, 200, 1.0, rng)
		plans := core.MinimalPlans(q, nil)
		got := minBudget(db, q, plans, false)
		want := minBudget(db, q, plans, true)
		if got != want {
			t.Errorf("%s: minimal passing budget %d (batched) != %d (per-tuple)", qs, got, want)
		}
	}
}

func TestBudgetDisabledByDefault(t *testing.T) {
	db := budgetDB(50, 50)
	if err := evalWithBudget(db, 0); err != nil {
		t.Fatalf("unbudgeted evaluation failed: %v", err)
	}
}

func TestBudgetUnderLimitSucceedsAndMatches(t *testing.T) {
	db := budgetDB(10, 10)
	q := cq.MustParse("q() :- R(x), S(x, y)")
	plans := core.MinimalPlans(q, nil)
	free := EvalPlans(db, q, plans, Options{})
	var capped *Result
	err := TrapCancel(func() {
		capped = EvalPlansCtx(nil, db, q, plans, Options{MaxIntermediateRows: 1 << 20})
	})
	if err != nil {
		t.Fatalf("budgeted evaluation failed: %v", err)
	}
	if free.BooleanScore() != capped.BooleanScore() {
		t.Fatalf("budget changed the score: %v vs %v", capped.BooleanScore(), free.BooleanScore())
	}
}

func TestBudgetSpansAllPlans(t *testing.T) {
	// One evaluation of the plan materializes ~302 rows — under a
	// 450-row cap. Evaluating the same plan twice through EvalPlansCtx
	// must fail: the budget bounds the query, not each plan.
	db := budgetDB(100, 100)
	q := cq.MustParse("q() :- R(x), S(x, y)")
	plans := core.MinimalPlans(q, nil)
	if len(plans) != 1 {
		t.Fatalf("plans = %d, want 1", len(plans))
	}
	double := []plan.Node{plans[0], plans[0]}
	err := TrapCancel(func() {
		EvalPlansCtx(nil, db, q, double, Options{MaxIntermediateRows: 450})
	})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget across plans, got %v", err)
	}
	// Sanity: one plan alone fits the same cap.
	err = TrapCancel(func() {
		EvalPlansCtx(nil, db, q, plans, Options{MaxIntermediateRows: 450})
	})
	if err != nil {
		t.Fatalf("single plan under the same cap failed: %v", err)
	}
}

func TestBudgetErrorMentionsLimit(t *testing.T) {
	db := budgetDB(100, 100)
	err := evalWithBudget(db, 42)
	if err == nil || !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if want := fmt.Sprintf("limit %d", 42); !containsStr(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
