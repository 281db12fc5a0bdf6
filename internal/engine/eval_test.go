package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/exact"
	"lapushdb/internal/plan"
)

const eps = 1e-12

// example7DB builds the database of Example 7:
// R = {1, 2}, S = {(1,4), (1,5)} with P(R(1)) = p, P(S(1,4)) = q,
// P(S(1,5)) = r.
func example7DB(p, q, r float64) *DB {
	db := NewDB()
	R := db.CreateRelation("R", []string{"a"})
	S := db.CreateRelation("S", []string{"a", "b"})
	R.Insert([]Value{1}, p)
	R.Insert([]Value{2}, 0.3)
	S.Insert([]Value{1, 4}, q)
	S.Insert([]Value{1, 5}, r)
	return db
}

func TestSafePlanMatchesExample7(t *testing.T) {
	// q :- R(x), S(x, y) is safe; P(q) = p(1 − (1−q)(1−r)).
	p, qq, r := 0.5, 0.4, 0.7
	db := example7DB(p, qq, r)
	q := cq.MustParse("q() :- R(x), S(x, y)")
	plans := core.MinimalPlans(q, nil)
	if len(plans) != 1 {
		t.Fatalf("#plans = %d, want 1", len(plans))
	}
	res := NewEvaluatorCtx(nil, db, q, Options{}).Eval(plans[0])
	if res.Len() != 1 {
		t.Fatalf("Boolean query returned %d rows", res.Len())
	}
	want := p * (1 - (1-qq)*(1-r))
	if got := res.Score(0); math.Abs(got-want) > eps {
		t.Errorf("score = %v, want %v", got, want)
	}
}

func TestDissociationScoreMatchesExample9(t *testing.T) {
	// The dissociated plan ⋈[R(x), ...] evaluated directly: Example 9
	// computes P(F') = 1 − (1−pq)(1−pr) = pq + pr − p²qr for the full
	// dissociation of q :- R(x), S(x, y) on R^y.
	p, qq, r := 0.5, 0.4, 0.7
	db := example7DB(p, qq, r)
	q := cq.MustParse("q() :- R(x), S(x, y)")
	d := plan.NewDissociation()
	d.Add("R", "y")
	pl, err := plan.PlanOf(q, d)
	if err != nil {
		t.Fatal(err)
	}
	res := NewEvaluatorCtx(nil, db, q, Options{}).Eval(pl)
	want := qq*p + r*p - p*p*qq*r
	if got := res.Score(0); math.Abs(got-want) > eps {
		t.Errorf("score = %v, want %v", got, want)
	}
}

// TestExample17Numbers reproduces the probabilities of Example 17:
// P(q) = 83/2^9, P(q∆3) = 169/2^10, P(q∆4) = 353/2^11.
func TestExample17Numbers(t *testing.T) {
	db := NewDB()
	R := db.CreateRelation("R", []string{"x"})
	S := db.CreateRelation("S", []string{"x"})
	T := db.CreateRelation("T", []string{"x", "y"})
	U := db.CreateRelation("U", []string{"y"})
	for _, v := range []Value{1, 2} {
		R.Insert([]Value{v}, 0.5)
		S.Insert([]Value{v}, 0.5)
		U.Insert([]Value{v}, 0.5)
	}
	for _, row := range [][]Value{{1, 1}, {1, 2}, {2, 2}} {
		T.Insert(row, 0.5)
	}
	q := cq.MustParse("q() :- R(x), S(x), T(x, y), U(y)")

	// Exact probability via lineage + exact WMC.
	lin := EvalLineageCtx(nil, db, q, nil)
	if lin.Len() != 1 {
		t.Fatalf("lineage answers = %d, want 1", lin.Len())
	}
	exactP := exact.Prob(lin.Clauses(0), db.VarProbs())
	if want := 83.0 / 512.0; math.Abs(exactP-want) > eps {
		t.Errorf("P(q) = %v, want %v", exactP, want)
	}

	// The two minimal plans give 169/1024 and 353/2048.
	plans := core.MinimalPlans(q, nil)
	if len(plans) != 2 {
		t.Fatalf("#plans = %d, want 2", len(plans))
	}
	var scores []float64
	for _, p := range plans {
		res := NewEvaluatorCtx(nil, db, q, Options{}).Eval(p)
		scores = append(scores, res.Score(0))
	}
	want3, want4 := 169.0/1024.0, 353.0/2048.0
	if !(approx(scores[0], want3) && approx(scores[1], want4)) &&
		!(approx(scores[0], want4) && approx(scores[1], want3)) {
		t.Errorf("plan scores = %v, want {%v, %v}", scores, want3, want4)
	}

	// The propagation score is the minimum: 169/1024.
	res := EvalPlansCtx(nil, db, q, plans, Options{})
	if got := res.Score(0); math.Abs(got-want3) > eps {
		t.Errorf("ρ(q) = %v, want %v", got, want3)
	}

	// Both are upper bounds on the exact probability (Theorem 12).
	for _, s := range scores {
		if s < exactP-eps {
			t.Errorf("plan score %v below exact %v", s, exactP)
		}
	}

	// Opt1 single plan computes the same propagation score.
	sp := core.SinglePlan(q, nil)
	spRes := NewEvaluatorCtx(nil, db, q, Options{ReuseSubplans: true}).Eval(sp)
	if got := spRes.Score(0); math.Abs(got-want3) > eps {
		t.Errorf("single-plan ρ(q) = %v, want %v", got, want3)
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) < eps }

// resultOf builds a Result over cols from rows of values and their
// scores, interning each value to a dense id through a fresh database as
// a relation's insert would: the one way tests build a Result by hand.
func resultOf(cols []cq.Var, rows [][]Value, scores []float64) *Result {
	db := NewDB()
	r := newResult(cols, nil)
	for _, row := range rows {
		for k, v := range row {
			r.ids[k] = append(r.ids[k], db.noteValue(v))
		}
	}
	r.scores, r.dict = scores, db.vals
	return r
}

func TestNonBooleanRanking(t *testing.T) {
	// q(z) :- R(z, x), S(x, y), T(y): two answers with different scores.
	db := NewDB()
	R := db.CreateRelation("R", []string{"z", "x"})
	S := db.CreateRelation("S", []string{"x", "y"})
	T := db.CreateRelation("T", []string{"y"})
	R.Insert([]Value{10, 1}, 0.9)
	R.Insert([]Value{20, 2}, 0.2)
	S.Insert([]Value{1, 5}, 0.8)
	S.Insert([]Value{2, 5}, 0.5)
	S.Insert([]Value{2, 6}, 0.4)
	T.Insert([]Value{5}, 0.7)
	T.Insert([]Value{6}, 0.6)
	q := cq.MustParse("q(z) :- R(z, x), S(x, y), T(y)")
	plans := core.MinimalPlans(q, nil)
	if len(plans) != 2 {
		t.Fatalf("#plans = %d", len(plans))
	}
	res := EvalPlansCtx(nil, db, q, plans, Options{})
	if res.Len() != 2 {
		t.Fatalf("answers = %d, want 2", res.Len())
	}
	// Cross-check each answer against the exact probability: scores are
	// upper bounds and, for this small instance, the ranking must agree.
	lin := EvalLineageCtx(nil, db, q, nil)
	for i := 0; i < lin.Len(); i++ {
		exactP := exact.Prob(lin.Clauses(i), db.VarProbs())
		score, ok := scoreOf(res, lin.Key(i))
		if !ok {
			t.Fatalf("answer %v missing from plan result", lin.Key(i))
		}
		if score < exactP-eps {
			t.Errorf("answer %v: score %v < exact %v", lin.Key(i), score, exactP)
		}
	}
	order := sortedRows(res)
	if res.Row(order[0])[0] != 10 {
		t.Errorf("expected answer 10 ranked first")
	}
}

// scoreOf returns the score of r's first row with the given values, and
// whether there is one.
func scoreOf(r *Result, key []Value) (float64, bool) {
	for i := 0; i < r.Len(); i++ {
		if slices.Equal(r.Row(i), key) {
			return r.Score(i), true
		}
	}
	return 0, false
}

// sortedRows returns r's row indices by descending score, breaking ties
// by the decoded values (not ids) ascending — the ranking order of the
// paper's experiments.
func sortedRows(r *Result) []int {
	idx := make([]int, r.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if sa, sb := r.Score(idx[a]), r.Score(idx[b]); sa != sb {
			return sa > sb
		}
		return slices.Compare(r.Row(idx[a]), r.Row(idx[b])) < 0
	})
	return idx
}

// TestFilterKernelsMatchRowCheck: the selection-vector kernels of
// rowFilter.apply — constants and repeated variables on value ids, one
// loop per predicate op on values — keep exactly the rows the
// row-at-a-time check ok keeps, over full scans and candidate sets,
// including constants no stored tuple holds and interval edges.
func TestFilterKernelsMatchRowCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	db := NewDB()
	r := db.CreateRelation("R", []string{"x", "y", "z"})
	strs := []Value{db.Intern("red"), db.Intern("blue rose"), db.Intern("x")}
	pick := func() Value {
		if rng.Intn(4) == 0 {
			return strs[rng.Intn(len(strs))]
		}
		return Value(rng.Intn(21))
	}
	for i := 0; i < 500; i++ {
		r.Insert([]Value{pick(), pick(), pick()}, 0.5)
	}
	r.Insert([]Value{math.MaxInt64, 0, 0}, 0.5)
	var cand []int32
	for i := 0; i < r.Len(); i += 3 {
		cand = append(cand, int32(i))
	}
	for _, qs := range []string{
		"q() :- R(x, y, z)",
		"q() :- R(7, y, z)",
		"q() :- R('red', y, z)",
		"q() :- R('nowhere', y, z)",
		"q() :- R(999, y, z)",
		"q() :- R(x, x, z)",
		"q() :- R(x, y, x)",
		"q() :- R(x, 3, x)",
		"q() :- R(x, y, z), x <= 10",
		"q() :- R(x, y, z), x < 0",
		"q() :- R(x, y, z), x < 10",
		"q() :- R(x, y, z), x >= 20",
		"q() :- R(x, y, z), x > 0",
		"q() :- R(x, y, z), x > 9223372036854775807",
		"q() :- R(x, y, z), x >= 9223372036854775807",
		"q() :- R(x, y, z), x <= 'red'",
		"q() :- R(x, y, z), x = 'red'",
		"q() :- R(x, y, z), x = 4, y != 'x'",
		"q() :- R(x, y, z), x != 'nowhere'",
		"q() :- R(x, y, z), y = 'nowhere'",
		"q() :- R(x, y, z), x like '%r%'",
		"q() :- R(x, y, z), z like 'blue%', y <= 12",
	} {
		q := cq.MustParse(qs)
		a := q.Atoms[0]
		f := newRowFilter(db, a, q.PredsOnAtom(a))
		for _, restricted := range []bool{false, true} {
			rows := cand
			if !restricted {
				rows = make([]int32, r.Len())
				for i := range rows {
					rows[i] = int32(i)
				}
			}
			var want []int32
			for _, i := range rows {
				if f.ok(r.Row(int(i))) {
					want = append(want, i)
				}
			}
			got, all := f.apply(r, cand, restricted, nil, nil)
			if all {
				got = rows
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s (restricted %v): kernels keep %d rows, the row check %d", qs, restricted, len(got), len(want))
			}
		}
	}
}

func TestSemiJoinReduction(t *testing.T) {
	db := NewDB()
	R := db.CreateRelation("R", []string{"x"})
	S := db.CreateRelation("S", []string{"x", "y"})
	T := db.CreateRelation("T", []string{"y"})
	// R(3) joins nothing; S(2, 9) has no T(9); T(8) has no S.
	R.Insert([]Value{1}, 0.5)
	R.Insert([]Value{2}, 0.5)
	R.Insert([]Value{3}, 0.5)
	S.Insert([]Value{1, 7}, 0.5)
	S.Insert([]Value{2, 9}, 0.5)
	T.Insert([]Value{7}, 0.5)
	T.Insert([]Value{8}, 0.5)
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	reduced := SemiJoinReduceCtx(nil, db, q)
	if got := len(reduced["R"]); got != 1 {
		t.Errorf("R reduced to %d rows, want 1", got)
	}
	if got := len(reduced["S"]); got != 1 {
		t.Errorf("S reduced to %d rows, want 1", got)
	}
	if got := len(reduced["T"]); got != 1 {
		t.Errorf("T reduced to %d rows, want 1", got)
	}
	// Scores are identical with and without the reduction.
	plans := core.MinimalPlans(q, nil)
	plain := EvalPlansCtx(nil, db, q, plans, Options{})
	red := EvalPlansCtx(nil, db, q, plans, Options{SemiJoin: true})
	if plain.Len() != red.Len() || math.Abs(plain.Score(0)-red.Score(0)) > eps {
		t.Errorf("semi-join changed the result: %v vs %v", plain.Score(0), red.Score(0))
	}
}

func TestReuseSubplansSameScores(t *testing.T) {
	db := NewDB()
	R := db.CreateRelation("R", []string{"x", "z"})
	S := db.CreateRelation("S", []string{"y", "u"})
	T := db.CreateRelation("T", []string{"z"})
	U := db.CreateRelation("U", []string{"u"})
	M := db.CreateRelation("M", []string{"x", "y", "z", "u"})
	vals := []Value{1, 2}
	p := 0.3
	for _, a := range vals {
		for _, b := range vals {
			R.Insert([]Value{a, b}, p)
			S.Insert([]Value{a, b}, p)
			for _, c := range vals {
				for _, d := range vals {
					M.Insert([]Value{a, b, c, d}, p)
				}
			}
		}
		T.Insert([]Value{a}, p)
		U.Insert([]Value{a}, p)
	}
	q := cq.MustParse("q() :- R(x, z), S(y, u), T(z), U(u), M(x, y, z, u)")
	sp := core.SinglePlan(q, nil)
	noReuse := NewEvaluatorCtx(nil, db, q, Options{}).Eval(sp)
	reuse := NewEvaluatorCtx(nil, db, q, Options{ReuseSubplans: true}).Eval(sp)
	if math.Abs(noReuse.Score(0)-reuse.Score(0)) > eps {
		t.Errorf("reuse changed score: %v vs %v", noReuse.Score(0), reuse.Score(0))
	}
	// And equals the min over all six minimal plans evaluated separately.
	all := EvalPlansCtx(nil, db, q, core.MinimalPlans(q, nil), Options{})
	if math.Abs(all.Score(0)-reuse.Score(0)) > eps {
		t.Errorf("single plan %v != min over plans %v", reuse.Score(0), all.Score(0))
	}
}

func TestConstantsInAtoms(t *testing.T) {
	db := NewDB()
	R := db.CreateRelation("R", []string{"a", "x"})
	S := db.CreateRelation("S", []string{"x"})
	av := db.Intern("a")
	R.Insert([]Value{av, 1}, 0.5)
	R.Insert([]Value{db.Intern("b"), 2}, 0.5)
	S.Insert([]Value{1}, 0.5)
	S.Insert([]Value{2}, 0.5)
	q := cq.MustParse("q() :- R('a', x), S(x)")
	plans := core.MinimalPlans(q, nil)
	res := EvalPlansCtx(nil, db, q, plans, Options{})
	// Only R('a', 1) ⋈ S(1) matches: P = 0.25.
	if got := res.Score(0); math.Abs(got-0.25) > eps {
		t.Errorf("score = %v, want 0.25", got)
	}
}

func TestRepeatedVariableInAtom(t *testing.T) {
	db := NewDB()
	R := db.CreateRelation("R", []string{"x", "y"})
	R.Insert([]Value{1, 1}, 0.5)
	R.Insert([]Value{1, 2}, 0.9)
	q := cq.MustParse("q() :- R(x, x)")
	res := EvalPlansCtx(nil, db, q, core.MinimalPlans(q, nil), Options{})
	if got := res.Score(0); math.Abs(got-0.5) > eps {
		t.Errorf("score = %v, want 0.5 (only R(1,1) matches)", got)
	}
}

func TestPredicatePushdown(t *testing.T) {
	db := NewDB()
	S := db.CreateRelation("S", []string{"s", "a"})
	S.Insert([]Value{5, 100}, 0.5)
	S.Insert([]Value{15, 100}, 0.5)
	q := cq.MustParse("q(a) :- S(s, a), s <= 10")
	res := EvalPlansCtx(nil, db, q, core.MinimalPlans(q, nil), Options{})
	if res.Len() != 1 {
		t.Fatalf("answers = %d, want 1", res.Len())
	}
	if got := res.Score(0); math.Abs(got-0.5) > eps {
		t.Errorf("score = %v, want 0.5", got)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"%red%", "dark red metallic", true},
		{"%red%", "blue", false},
		{"%red%green%", "red green", true},
		{"%red%green%", "green red", false},
		{"%red%green%", "xredxygreenz", true},
		{"%", "", true},
		{"%", "anything", true},
		{"", "", true},
		{"", "x", false},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"abc", "abc", true},
		{"%a%b%a%", "xaxbxax", true},
		{"%aa%", "aXa", false},
	}
	for _, c := range cases {
		if got := compileLike(c.pat).match(c.s); got != c.want {
			t.Errorf("compileLike(%q).match(%q) = %v, want %v", c.pat, c.s, got, c.want)
		}
		if likeOracle(c.pat, c.s) != c.want {
			t.Errorf("likeOracle(%q, %q) disagrees with the table", c.pat, c.s)
		}
	}
	for _, c := range likeSegmentCases {
		if got, want := compileLike(c.pat).match(c.s), likeOracle(c.pat, c.s); got != want {
			t.Errorf("compileLike(%q).match(%q) = %v, oracle = %v", c.pat, c.s, got, want)
		}
	}
}

func TestEvalDeterministic(t *testing.T) {
	db := NewDB()
	R := db.CreateRelation("R", []string{"z", "x"})
	S := db.CreateRelation("S", []string{"x", "y"})
	T := db.CreateRelation("T", []string{"y"})
	R.Insert([]Value{10, 1}, 0.9)
	R.Insert([]Value{20, 2}, 0.2)
	R.Insert([]Value{20, 3}, 0.2) // x=3 joins nothing
	S.Insert([]Value{1, 5}, 0.8)
	S.Insert([]Value{2, 6}, 0.4)
	T.Insert([]Value{5}, 0.7)
	T.Insert([]Value{6}, 0.6)
	q := cq.MustParse("q(z) :- R(z, x), S(x, y), T(y)")
	res := EvalDeterministicCtx(nil, db, q)
	if res.Len() != 2 {
		t.Fatalf("distinct answers = %d, want 2", res.Len())
	}
	for i := 0; i < res.Len(); i++ {
		if res.Score(i) != 1 {
			t.Errorf("deterministic score = %v, want 1", res.Score(i))
		}
	}
}

func TestLineageMatchesExample7(t *testing.T) {
	db := example7DB(0.5, 0.4, 0.7)
	q := cq.MustParse("q() :- R(x), S(x, y)")
	lin := EvalLineageCtx(nil, db, q, nil)
	if lin.Len() != 1 {
		t.Fatalf("answers = %d", lin.Len())
	}
	// F = R(1)S(1,4) ∨ R(1)S(1,5): two clauses of two variables.
	if lin.Size(0) != 2 {
		t.Errorf("lineage size = %d, want 2", lin.Size(0))
	}
	for _, c := range lin.Clauses(0) {
		if len(c) != 2 {
			t.Errorf("clause %v has %d vars, want 2", c, len(c))
		}
	}
	if lin.MaxSize() != 2 {
		t.Errorf("max size = %d", lin.MaxSize())
	}
}

func TestLineageDeterministicRelationsExcluded(t *testing.T) {
	db := NewDB()
	R := db.CreateRelation("R", []string{"x"})
	S := db.CreateDeterministicRelation("S", []string{"x", "y"})
	R.Insert([]Value{1}, 0.5)
	S.Insert([]Value{1, 2}, 1)
	q := cq.MustParse("q() :- R(x), S(x, y)")
	lin := EvalLineageCtx(nil, db, q, nil)
	if lin.Len() != 1 || lin.Size(0) != 1 {
		t.Fatalf("lineage = %v", lin)
	}
	if len(lin.Clauses(0)[0]) != 1 {
		t.Errorf("clause should only hold R's variable: %v", lin.Clauses(0))
	}
	p := exact.Prob(lin.Clauses(0), db.VarProbs())
	if math.Abs(p-0.5) > eps {
		t.Errorf("P = %v, want 0.5", p)
	}
}

func TestDeterministicRelationScores(t *testing.T) {
	// q :- R(x), S^d(x, y), T^d(y) with R probabilistic: the single plan
	// from the DR-aware algorithm computes the exact probability even
	// though R(1) joins two S rows.
	db := NewDB()
	R := db.CreateRelation("R", []string{"x"})
	S := db.CreateDeterministicRelation("S", []string{"x", "y"})
	T := db.CreateDeterministicRelation("T", []string{"y"})
	R.Insert([]Value{1}, 0.4)
	S.Insert([]Value{1, 1}, 1)
	S.Insert([]Value{1, 2}, 1)
	T.Insert([]Value{1}, 1)
	T.Insert([]Value{2}, 1)
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	sch := SchemaFor(db, q)
	plans := core.MinimalPlans(q, sch)
	if len(plans) != 1 {
		t.Fatalf("#plans = %d, want 1", len(plans))
	}
	res := NewEvaluatorCtx(nil, db, q, Options{}).Eval(plans[0])
	if got := res.Score(0); math.Abs(got-0.4) > eps {
		t.Errorf("score = %v, want exactly 0.4", got)
	}
}

func TestScaleProbs(t *testing.T) {
	db := example7DB(0.5, 0.4, 0.7)
	db2 := db.Clone()
	db2.ScaleProbs(0.1)
	q := cq.MustParse("q() :- R(x), S(x, y)")
	p1 := EvalPlansCtx(nil, db, q, core.MinimalPlans(q, nil), Options{}).Score(0)
	p2 := EvalPlansCtx(nil, db2, q, core.MinimalPlans(q, nil), Options{}).Score(0)
	if p2 >= p1 {
		t.Errorf("scaling down should lower the probability: %v vs %v", p1, p2)
	}
	// Original database unchanged.
	p3 := EvalPlansCtx(nil, db, q, core.MinimalPlans(q, nil), Options{}).Score(0)
	if math.Abs(p1-p3) > eps {
		t.Errorf("clone+scale mutated the original")
	}
}

func TestInternRoundTrip(t *testing.T) {
	db := NewDB()
	a := db.Intern("hello")
	b := db.Intern("hello")
	if a != b {
		t.Error("interning not idempotent")
	}
	if db.Decode(a) != "hello" {
		t.Errorf("decode = %q", db.Decode(a))
	}
	if db.Decode(Value(42)) != "42" {
		t.Errorf("int decode = %q", db.Decode(42))
	}
	if db.Int(-5) == Value(-5) {
		t.Error("negative ints must be interned, not used raw")
	}
	if db.Decode(db.Int(-5)) != "-5" {
		t.Errorf("negative int decode = %q", db.Decode(db.Int(-5)))
	}
}
