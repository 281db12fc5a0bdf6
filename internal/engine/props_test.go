package engine

// End-to-end property tests of the paper's theorems: random small
// databases, real plan evaluation, exact inference as the oracle.

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/exact"
	"lapushdb/internal/plan"
)

// propQueries is a pool of queries covering safe, unsafe, Boolean,
// non-Boolean, and multi-component shapes.
var propQueries = []string{
	"q() :- R(x), S(x, y), T(y)",
	"q() :- R(x), S(x), T(x, y), U(y)",
	"q(z) :- R(z, x), S(x, y), T(y)",
	"q() :- R(x), S(x, y)",
	"q() :- R1(x0, x1), R2(x1, x2), R3(x2, x3)",
	"q() :- R(x), S(y), T(x, y)",
	"q() :- A(x), B(y), M(x, y)",
	"q(w) :- R(w, x), S(x), T(x, y), U(y)",
}

// randomDB fills every relation of q with random tuples over a small
// domain, with probabilities in (0, pimax].
func randomDB(q *cq.Query, domain, maxRows int, pimax float64, rng *rand.Rand) *DB {
	db := NewDB()
	for _, a := range q.Atoms {
		cols := make([]string, len(a.Args))
		for i := range cols {
			cols[i] = string(rune('c' + i))
		}
		r := db.CreateRelation(a.Rel, cols)
		n := 1 + rng.Intn(maxRows)
		seen := map[string]bool{}
		tuple := make([]Value, len(cols))
		key := make([]byte, 0, 8*len(cols))
		for t := 0; t < n; t++ {
			key = key[:0]
			for j := range tuple {
				tuple[j] = Value(rng.Intn(domain))
				key = appendValue(key, tuple[j])
			}
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			r.Insert(tuple, math.Nextafter(0, 1)+rng.Float64()*pimax)
		}
	}
	return db
}

// exactProbs computes the exact probability of every answer via lineage +
// WMC, keyed by the answer tuple.
func exactProbs(db *DB, q *cq.Query) map[string]float64 {
	lin := EvalLineageCtx(nil, db, q, nil)
	out := map[string]float64{}
	key := make([]byte, 0, 16)
	for i := 0; i < lin.Len(); i++ {
		key = key[:0]
		for _, v := range lin.Key(i) {
			key = appendValue(key, v)
		}
		out[string(key)] = exact.Prob(lin.Clauses(i), db.VarProbs())
	}
	return out
}

func resultKey(r *Result, i int) string {
	key := make([]byte, 0, 16)
	for _, v := range r.Row(i) {
		key = appendValue(key, v)
	}
	return string(key)
}

// TestPropUpperBounds is Corollary 19: every plan's score is an upper
// bound on the exact probability, for every answer.
func TestPropUpperBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 40; iter++ {
		qs := propQueries[iter%len(propQueries)]
		q := cq.MustParse(qs)
		db := randomDB(q, 4, 8, 1.0, rng)
		truth := exactProbs(db, q)
		for _, p := range core.SafeDissociationPlans(q) {
			res := NewEvaluatorCtx(nil, db, q, Options{}).Eval(p)
			for i := 0; i < res.Len(); i++ {
				want, ok := truth[resultKey(res, i)]
				if !ok {
					t.Fatalf("%s: plan answer missing from lineage", qs)
				}
				if res.Score(i) < want-1e-9 {
					t.Errorf("%s: plan %s scores %v < exact %v", qs, plan.String(p), res.Score(i), want)
				}
			}
		}
	}
}

// TestPropSafeExact is Proposition 6 via conservativity: for safe queries
// the single minimal plan computes the exact probability.
func TestPropSafeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	safeQs := []string{
		"q() :- R(x), S(x, y)",
		"q() :- R(x), S(y), T(x, y)", // unsafe actually? at(x)={R,T}, at(y)={S,T}: overlap at T
		"q(z) :- R(z, x), S(x, y), K(x, y)",
		"q() :- A(x), B(x)",
	}
	for _, qs := range safeQs {
		q := cq.MustParse(qs)
		plans := core.MinimalPlans(q, nil)
		if len(plans) != 1 {
			continue // not safe; skip (one entry above is deliberately unsafe)
		}
		for iter := 0; iter < 10; iter++ {
			db := randomDB(q, 4, 8, 1.0, rng)
			truth := exactProbs(db, q)
			res := NewEvaluatorCtx(nil, db, q, Options{}).Eval(plans[0])
			for i := 0; i < res.Len(); i++ {
				want := truth[resultKey(res, i)]
				if math.Abs(res.Score(i)-want) > 1e-9 {
					t.Errorf("%s: safe plan score %v != exact %v", qs, res.Score(i), want)
				}
			}
		}
	}
}

// TestPropLatticeMonotonicity is Corollary 16: along the dissociation
// lattice, ∆ ⪯ ∆′ implies score(P∆) ≤ score(P∆′) for every answer,
// whenever both dissociations are safe.
func TestPropLatticeMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, qs := range []string{
		"q() :- R(x), S(x, y), T(y)",
		"q() :- R(x), S(x), T(x, y), U(y)",
	} {
		q := cq.MustParse(qs)
		var safe []plan.Dissociation
		for _, d := range core.Dissociations(q) {
			if d.IsSafeFor(q) {
				safe = append(safe, d)
			}
		}
		for iter := 0; iter < 10; iter++ {
			db := randomDB(q, 3, 6, 1.0, rng)
			scores := make([]float64, len(safe))
			for i, d := range safe {
				p, err := plan.PlanOf(q, d)
				if err != nil {
					t.Fatal(err)
				}
				scores[i] = booleanScore(NewEvaluatorCtx(nil, db, q, Options{}).Eval(p))
			}
			for i := range safe {
				for j := range safe {
					if i != j && safe[i].LE(safe[j]) && scores[i] > scores[j]+1e-9 {
						t.Errorf("%s: %s ⪯ %s but %v > %v", qs, safe[i], safe[j], scores[i], scores[j])
					}
				}
			}
		}
	}
}

// TestPropMinimalPlansSuffice is Theorem 20: the minimum score over the
// minimal plans equals the minimum over the whole plan space.
func TestPropMinimalPlansSuffice(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, qs := range []string{
		"q() :- R(x), S(x, y), T(y)",
		"q() :- R(x), S(x), T(x, y), U(y)",
		"q(z) :- R(z, x), S(x, y), T(y)",
	} {
		q := cq.MustParse(qs)
		minimal := core.MinimalPlans(q, nil)
		all := core.SafeDissociationPlans(q)
		for iter := 0; iter < 10; iter++ {
			db := randomDB(q, 3, 6, 1.0, rng)
			rhoMin := EvalPlansCtx(nil, db, q, minimal, Options{})
			rhoAll := EvalPlansCtx(nil, db, q, all, Options{})
			if rhoMin.Len() != rhoAll.Len() {
				t.Fatalf("%s: answer sets differ", qs)
			}
			for i := 0; i < rhoMin.Len(); i++ {
				want, _ := scoreOf(rhoAll, rhoMin.Row(i))
				if math.Abs(rhoMin.Score(i)-want) > 1e-9 {
					t.Errorf("%s: min over minimal plans %v != min over all plans %v",
						qs, rhoMin.Score(i), want)
				}
			}
		}
	}
}

// TestPropDRInvariance is Lemma 22: with deterministic relations, the
// DR-aware single plan computes the exact probability even though the
// query is structurally unsafe.
func TestPropDRInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	for iter := 0; iter < 20; iter++ {
		db := NewDB()
		R := db.CreateRelation("R", []string{"x"})
		S := db.CreateRelation("S", []string{"x", "y"})
		T := db.CreateDeterministicRelation("T", []string{"y"})
		for v := 0; v < 3; v++ {
			if rng.Float64() < 0.8 {
				R.Insert([]Value{Value(v)}, rng.Float64())
			}
			if rng.Float64() < 0.8 {
				T.Insert([]Value{Value(v)}, 1)
			}
			for w := 0; w < 3; w++ {
				if rng.Float64() < 0.6 {
					S.Insert([]Value{Value(v), Value(w)}, rng.Float64())
				}
			}
		}
		sch := SchemaFor(db, q)
		plans := core.MinimalPlans(q, sch)
		if len(plans) != 1 {
			t.Fatalf("DR-aware plans = %d, want 1", len(plans))
		}
		truth := exactProbs(db, q)
		res := NewEvaluatorCtx(nil, db, q, Options{}).Eval(plans[0])
		for i := 0; i < res.Len(); i++ {
			want := truth[resultKey(res, i)]
			if math.Abs(res.Score(i)-want) > 1e-9 {
				t.Errorf("iter %d: DR plan score %v != exact %v", iter, res.Score(i), want)
			}
		}
	}
}

// TestPropFDInvariance is Lemma 25: when the data satisfies the FD x→y on
// S, the FD-aware single plan computes the exact probability.
func TestPropFDInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	for iter := 0; iter < 20; iter++ {
		db := NewDB()
		R := db.CreateRelation("R", []string{"x"})
		S := db.CreateRelation("S", []string{"x", "y"})
		S.SetKey("x") // enforces FD x → y
		T := db.CreateRelation("T", []string{"y"})
		for v := 0; v < 4; v++ {
			if rng.Float64() < 0.8 {
				R.Insert([]Value{Value(v)}, rng.Float64())
			}
			if rng.Float64() < 0.8 {
				T.Insert([]Value{Value(v)}, rng.Float64())
			}
			// One y per x: the FD holds in the data.
			if rng.Float64() < 0.8 {
				S.Insert([]Value{Value(v), Value(rng.Intn(4))}, rng.Float64())
			}
		}
		sch := SchemaFor(db, q)
		plans := core.MinimalPlans(q, sch)
		if len(plans) != 1 {
			t.Fatalf("FD-aware plans = %d, want 1", len(plans))
		}
		truth := exactProbs(db, q)
		res := NewEvaluatorCtx(nil, db, q, Options{}).Eval(plans[0])
		for i := 0; i < res.Len(); i++ {
			want := truth[resultKey(res, i)]
			if math.Abs(res.Score(i)-want) > 1e-9 {
				t.Errorf("iter %d: FD plan score %v != exact %v", iter, res.Score(i), want)
			}
		}
	}
}

// TestPropScaling is Proposition 21: the relative error of ρ(q) vs P(q)
// shrinks as all probabilities are scaled down.
func TestPropScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	plans := core.MinimalPlans(q, nil)
	for iter := 0; iter < 10; iter++ {
		db := randomDB(q, 3, 8, 1.0, rng)
		relErr := func(f float64) float64 {
			d := db.Clone()
			d.ScaleProbs(f)
			rho := booleanScore(EvalPlansCtx(nil, d, q, plans, Options{}))
			p := exactProbs(d, q)[""]
			if p == 0 {
				return 0
			}
			return (rho - p) / p
		}
		e1 := relErr(1.0)
		e01 := relErr(0.1)
		e001 := relErr(0.01)
		// Below ~1e-8 the "error" is floating-point noise (e.g. when the
		// instance happens to be safe); only meaningful errors must shrink.
		const floor = 1e-8
		if (e01 > floor && e01 > e1+floor) || (e001 > floor && e001 > e01+floor) {
			t.Errorf("iter %d: relative error not decreasing: %v, %v, %v", iter, e1, e01, e001)
		}
		if e001 > 0.05 {
			t.Errorf("iter %d: relative error at f=0.01 still large: %v", iter, e001)
		}
	}
}

// TestPropOptimizationsPreserveScores: Opt1, Opt2, Opt3 and their
// combinations never change any answer's score, only the evaluation
// strategy.
func TestPropOptimizationsPreserveScores(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for iter := 0; iter < 20; iter++ {
		qs := propQueries[iter%len(propQueries)]
		q := cq.MustParse(qs)
		db := randomDB(q, 4, 10, 1.0, rng)
		plans := core.MinimalPlans(q, nil)
		base := EvalPlansCtx(nil, db, q, plans, Options{})
		sp := core.SinglePlan(q, nil)
		variants := map[string]*Result{
			"opt1":   NewEvaluatorCtx(nil, db, q, Options{}).Eval(sp),
			"opt12":  NewEvaluatorCtx(nil, db, q, Options{ReuseSubplans: true}).Eval(sp),
			"opt123": NewEvaluatorCtx(nil, db, q, Options{ReuseSubplans: true, SemiJoin: true}).Eval(sp),
			"plans3": EvalPlansCtx(nil, db, q, plans, Options{SemiJoin: true}),
		}
		for name, res := range variants {
			if res.Len() != base.Len() {
				t.Fatalf("%s/%s: answers %d vs %d", qs, name, res.Len(), base.Len())
			}
			for i := 0; i < base.Len(); i++ {
				got, ok := scoreOf(res, base.Row(i))
				if !ok || math.Abs(got-base.Score(i)) > 1e-9 {
					t.Errorf("%s/%s: score mismatch %v vs %v", qs, name, got, base.Score(i))
				}
			}
		}
	}
}

// TestPropDeterministicIsSupport: the deterministic baseline's answers
// are every plan's support. Over propQueries and a few edge shapes, the
// rows of EvalDeterministicCtx are distinct, each scored exactly 1, and
// as a set equal the answer keys of the Opt1-2-3 result and of
// Evaluator.Lineage.
func TestPropDeterministicIsSupport(t *testing.T) {
	type tc struct {
		query string
		twice bool // relation of the first atom stores one tuple twice
	}
	var cases []tc
	for _, qs := range propQueries {
		cases = append(cases, tc{query: qs})
	}
	cases = append(cases,
		tc{query: "q(x, y) :- R(x), S(x, y), T(y)"}, // the plan's root is a join
		tc{query: "q() :- R(x), S(x, y), U(y, z)"},  // Boolean head
		tc{query: "q(x) :- R(x, 'nowhere'), S(x)"},  // a constant no tuple holds
		tc{query: "q(x, y) :- R(x, y)", twice: true},
		tc{query: "q(x, y) :- R(x), S(x, y), T(y)", twice: true},
		tc{query: "q(z) :- R(z, x), S(x, y), T(y)", twice: true},
		tc{query: "q(x) :- R(x, z), S(y)"}, // disconnected
		tc{query: "q() :- A(x), B(y)"},     // disconnected, Boolean
	)
	keySet := func(r *Result) map[string]bool {
		out := map[string]bool{}
		for i := 0; i < r.Len(); i++ {
			out[resultKey(r, i)] = true
		}
		return out
	}
	rng := rand.New(rand.NewSource(35))
	for iter := 0; iter < 3*len(cases); iter++ {
		c := cases[iter%len(cases)]
		q := cq.MustParse(c.query)
		db := randomDB(q, 4, 10, 1.0, rng)
		if c.twice {
			r := db.Relation(q.Atoms[0].Rel)
			r.Insert(append([]Value(nil), r.Row(rng.Intn(r.Len()))...), 0.5)
		}
		label := fmt.Sprintf("%s/iter%d", c.query, iter)
		head := q.HeadSet().Sorted()
		var det *Result
		if err := TrapCancel(func() { det = EvalDeterministicCtx(context.Background(), db, q) }); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !varsSliceEqual(det.Cols, head) {
			t.Fatalf("%s: columns %v, want %v", label, det.Cols, head)
		}
		got := keySet(det)
		if len(got) != det.Len() {
			t.Errorf("%s: %d rows hold %d distinct answers", label, det.Len(), len(got))
		}
		for i := 0; i < det.Len(); i++ {
			if det.Score(i) != 1 {
				t.Errorf("%s: row %d scored %v, want exactly 1", label, i, det.Score(i))
			}
		}
		opt123 := NewEvaluatorCtx(nil, db, q, Options{ReuseSubplans: true, SemiJoin: true}).Eval(core.SinglePlan(q, nil))
		if want := keySet(opt123); !maps.Equal(got, want) {
			t.Errorf("%s: deterministic answers %d, Opt1-2-3 answers %d", label, len(got), len(want))
		}
		lin := NewEvaluatorCtx(nil, db, q, Options{}).Lineage(q)
		want := map[string]bool{}
		for i := 0; i < lin.Len(); i++ {
			want[string(AppendKey(nil, lin.Key(i)))] = true
		}
		if !maps.Equal(got, want) {
			t.Errorf("%s: deterministic answers %d, lineage answers %d", label, len(got), len(want))
		}
	}
}

// assertIdenticalResults asserts two results have the same Cols and, in
// the same order, the same rows with exactly equal (bit-identical)
// scores.
func assertIdenticalResults(t *testing.T, label string, seq, par *Result) {
	t.Helper()
	if !varsSliceEqual(seq.Cols, par.Cols) {
		t.Fatalf("%s: cols %v vs %v", label, seq.Cols, par.Cols)
	}
	if seq.Len() != par.Len() {
		t.Fatalf("%s: %d rows vs %d", label, seq.Len(), par.Len())
	}
	for i := 0; i < seq.Len(); i++ {
		sr, pr := seq.Row(i), par.Row(i)
		for j := range sr {
			if sr[j] != pr[j] {
				t.Fatalf("%s: row %d differs: %v vs %v", label, i, sr, pr)
			}
		}
		if math.Float64bits(seq.Score(i)) != math.Float64bits(par.Score(i)) {
			t.Fatalf("%s: row %d score %v != %v (diff %g)",
				label, i, seq.Score(i), par.Score(i), seq.Score(i)-par.Score(i))
		}
	}
}

// shuffledCopy rebuilds db with every relation's tuples re-inserted in
// a random order (so row positions, lineage variable ids and dense value
// ids all move, and the stored tuples and probabilities do not).
func shuffledCopy(db *DB, rng *rand.Rand) *DB {
	out := NewDB()
	for _, r := range db.Relations() {
		c := out.CreateRelation(r.Name, r.Cols)
		for _, i := range rng.Perm(r.Len()) {
			c.Insert(r.Row(i), r.Prob(i))
		}
	}
	return out
}

// TestPropTupleOrderInvariance pins the "one reduction order" contract
// from both sides. The order is fixed by the input: evaluating the same
// database and plans twice returns Float64bits-identical results. And it
// is only an order: re-inserting every relation's tuples shuffled leaves
// the answer set identical and every score within 1e-12 — the products
// are taken in another order, so low bits may move and nothing else may.
func TestPropTupleOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 32; iter++ {
		qs := propQueries[iter%len(propQueries)]
		q := cq.MustParse(qs)
		db := randomDB(q, 6, 40, 1.0, rng)
		shuffled := shuffledCopy(db, rng)
		plans := core.MinimalPlans(q, nil)
		for name, opts := range map[string]Options{
			"plain": {},
			"opt23": {ReuseSubplans: true, SemiJoin: true},
		} {
			label := fmt.Sprintf("%s/%s", qs, name)
			base := EvalPlansCtx(nil, db, q, plans, opts)
			again := EvalPlansCtx(nil, db, q, plans, opts)
			assertIdenticalResults(t, label+"/twice", base, again)
			got := EvalPlansCtx(nil, shuffled, q, plans, opts)
			if got.Len() != base.Len() {
				t.Fatalf("%s: %d answers after shuffling, %d before", label, got.Len(), base.Len())
			}
			for i := 0; i < base.Len(); i++ {
				score, ok := scoreOf(got, base.Row(i))
				if !ok {
					t.Fatalf("%s: answer %v missing after shuffling", label, base.Row(i))
				}
				if math.Abs(score-base.Score(i)) > 1e-12 {
					t.Errorf("%s: answer %v scores %v after shuffling, %v before", label, base.Row(i), score, base.Score(i))
				}
			}
		}
	}
}

// renamedCopy rebuilds db with every relation renamed by name, its
// tuples inserted in the same order (so row positions, lineage variable
// ids and dense value ids stay where they were).
func renamedCopy(db *DB, name map[string]string) *DB {
	out := NewDB()
	for _, r := range db.Relations() {
		c := out.CreateRelation(name[r.Name], r.Cols)
		for i := 0; i < r.Len(); i++ {
			c.Insert(r.Row(i), r.Prob(i))
		}
	}
	return out
}

// TestPropRelationRenamingInvariance: a relation's name is only a name.
// Renaming every relation by a bijection, in the database and the query
// alike, leaves the answer set identical and every ρ and every exact
// probability within 1e-12. Bits are not promised: plan node ids order a
// join's children, so a renaming can reorder them.
func TestPropRelationRenamingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 32; iter++ {
		qs := propQueries[iter%len(propQueries)]
		q := cq.MustParse(qs)
		db := randomDB(q, 6, 40, 1.0, rng)
		name := map[string]string{}
		for i, j := range rng.Perm(len(q.Atoms)) {
			name[q.Atoms[i].Rel] = fmt.Sprintf("N%d", j)
		}
		rq := &cq.Query{Name: q.Name, Head: q.Head, Preds: q.Preds}
		for _, a := range q.Atoms {
			rq.Atoms = append(rq.Atoms, cq.Atom{Rel: name[a.Rel], Args: a.Args})
		}
		rq = cq.MustParse(rq.String())
		rdb := renamedCopy(db, name)
		label := fmt.Sprintf("%s as %s", qs, rq)
		for _, opts := range []Options{{}, {ReuseSubplans: true, SemiJoin: true}} {
			base := EvalPlansCtx(nil, db, q, core.MinimalPlans(q, nil), opts)
			got := EvalPlansCtx(nil, rdb, rq, core.MinimalPlans(rq, nil), opts)
			if got.Len() != base.Len() {
				t.Fatalf("%s: %d answers after renaming, %d before", label, got.Len(), base.Len())
			}
			for i := 0; i < base.Len(); i++ {
				score, ok := scoreOf(got, base.Row(i))
				if !ok {
					t.Fatalf("%s: answer %v missing after renaming", label, base.Row(i))
				}
				if math.Abs(score-base.Score(i)) > 1e-12 {
					t.Errorf("%s: answer %v has ρ %v after renaming, %v before", label, base.Row(i), score, base.Score(i))
				}
			}
		}
		want, got := exactProbs(db, q), exactProbs(rdb, rq)
		if len(got) != len(want) {
			t.Fatalf("%s: %d lineage answers after renaming, %d before", label, len(got), len(want))
		}
		for k, p := range want {
			if math.Abs(got[k]-p) > 1e-12 {
				t.Errorf("%s: exact probability %v after renaming, %v before", label, got[k], p)
			}
		}
	}
}

// TestPropUpperBoundMonotone: a plan is products and independent ORs of
// tuple probabilities, both monotone, and raising a probability moves no
// tuple and no float operation. So on random chain and star instances,
// raising one tuple's probability never lowers any minimal plan's score
// or any answer's ρ, and adds or drops no answer.
func TestPropUpperBoundMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	rose := 0 // answers whose ρ rose: the instances reach the raised tuple
	queries := []string{
		"q() :- R1(x0, x1), R2(x1, x2), R3(x2, x3)",
		"q(x0, x3) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)",
		"q() :- R1(x1), R2(x2), R3(x3), R0(x1, x2, x3)",
		"q(x1) :- R1(x1), R2(x2), R0(x1, x2)",
	}
	for iter := 0; iter < 40; iter++ {
		qs := queries[iter%len(queries)]
		q := cq.MustParse(qs)
		db := randomDB(q, 4, 12, 1.0, rng)
		r := db.Relation(q.Atoms[rng.Intn(len(q.Atoms))].Rel)
		i := rng.Intn(r.Len())
		p := r.Prob(i) + rng.Float64()*(1-r.Prob(i))
		raised := db.Clone()
		raised.Relation(r.Name).SetProb(i, p)
		label := fmt.Sprintf("%s, %s tuple %d %v → %v", qs, r.Name, i, r.Prob(i), p)
		plans := core.MinimalPlans(q, nil)
		check := func(what string, before, after *Result) {
			t.Helper()
			if after.Len() != before.Len() {
				t.Fatalf("%s %s: %d answers after raising, %d before", label, what, after.Len(), before.Len())
			}
			for j := 0; j < before.Len(); j++ {
				score, ok := scoreOf(after, before.Row(j))
				if !ok {
					t.Fatalf("%s %s: answer %v missing after raising", label, what, before.Row(j))
				}
				if score < before.Score(j) {
					t.Errorf("%s %s: answer %v scores %v after raising, %v before", label, what, before.Row(j), score, before.Score(j))
				}
				if what == "ρ" && score > before.Score(j) {
					rose++
				}
			}
		}
		for _, pl := range plans {
			check(plan.String(pl), NewEvaluatorCtx(nil, db, q, Options{}).Eval(pl), NewEvaluatorCtx(nil, raised, q, Options{}).Eval(pl))
		}
		opts := Options{ReuseSubplans: true, SemiJoin: true}
		check("ρ", EvalPlansCtx(nil, db, q, plans, opts), EvalPlansCtx(nil, raised, q, plans, opts))
	}
	if rose < 20 {
		t.Fatalf("only %d answers' ρ rose over 40 raised tuples", rose)
	}
}

// TestPropOracleBothPaths is the exact-inference cross-check:
// dissociation scores upper-bound the exact probability on every answer,
// and safe queries match it exactly.
func TestPropOracleBothPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	safeSet := map[string]bool{
		"q() :- R(x), S(x, y)": true,
		"q() :- A(x), B(x)":    true,
	}
	queries := append(append([]string(nil), propQueries...), "q() :- A(x), B(x)")
	for iter := 0; iter < 24; iter++ {
		qs := queries[iter%len(queries)]
		q := cq.MustParse(qs)
		db := randomDB(q, 4, 8, 1.0, rng)
		truth := exactProbs(db, q)
		res := EvalPlansCtx(nil, db, q, core.MinimalPlans(q, nil), Options{})
		for i := 0; i < res.Len(); i++ {
			want, ok := truth[resultKey(res, i)]
			if !ok {
				t.Fatalf("%s: answer missing from lineage", qs)
			}
			if res.Score(i) < want-1e-9 {
				t.Errorf("%s: dissociation %v below exact %v", qs, res.Score(i), want)
			}
			if safeSet[qs] && math.Abs(res.Score(i)-want) > 1e-9 {
				t.Errorf("%s: safe query score %v != exact %v", qs, res.Score(i), want)
			}
		}
	}
}

// TestPropExecutorOracleDifferential: the columnar executor returns
// byte-identical results to the retained row-at-a-time oracle on random
// instances, across the optimization variants — and, with Opt3 on, the
// same bits whether EvalPlans computes the semi-join reduction itself
// (once, for all plans) or is handed a precomputed one.
func TestPropExecutorOracleDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 24; iter++ {
		qs := propQueries[iter%len(propQueries)]
		q := cq.MustParse(qs)
		db := randomDB(q, 4, 12, 1.0, rng)
		plans := core.MinimalPlans(q, nil)
		for name, opts := range map[string]Options{
			"plain": {},
			"opt23": {ReuseSubplans: true, SemiJoin: true},
		} {
			got := EvalPlansCtx(nil, db, q, plans, opts)
			want := EvalPlansOracle(nil, db, q, plans, opts)
			assertIdenticalResults(t, fmt.Sprintf("%s/%s", qs, name), want, got)
			if opts.SemiJoin {
				opts.Reduced = SemiJoinReduceCtx(nil, db, q)
				pre := EvalPlansCtx(nil, db, q, plans, opts)
				assertIdenticalResults(t, fmt.Sprintf("%s/%s/reduced", qs, name), got, pre)
			}
		}
	}
}

// TestExecutorOracleDifferentialLarge runs the executor-vs-oracle
// differential on chain, star and wide-key instances larger than a
// morsel — one chain with a non-aligned tail chunk — where the streaming
// fused Project(Join), the join build and its two probe passes run over
// several morsels of rows and the projection folds several chunks (the
// stats sink proves it did). wide3 joins on a three-variable key, so the
// build table compares full keys (keyAt/keyEqual).
func TestExecutorOracleDifferentialLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large differential skipped in -short")
	}
	rng := rand.New(rand.NewSource(24))
	const chain3 = "q(x0, x3) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)"
	shapes := []struct {
		label  string
		query  string
		rels   map[string]int // relation name -> arity
		rows   int
		domain int
	}{
		{"chain3", chain3, map[string]int{"R1": 2, "R2": 2, "R3": 2}, 2*morselSize + 31, 250},
		{"star3", "q(x1) :- R0(x1, x2, x3), R1(x1), R2(x2), R3(x3)",
			map[string]int{"R0": 3, "R1": 1, "R2": 1, "R3": 1}, 2*morselSize + 31, 250},
		{"chain3-tail", chain3, map[string]int{"R1": 2, "R2": 2, "R3": 2}, 3*morselSize + 17, 300},
		{"wide3", "q(x3) :- R(x0, x1, x2), S(x0, x1, x2, x3)",
			map[string]int{"R": 3, "S": 4}, 2*morselSize + 31, 12},
	}
	for _, sh := range shapes {
		q := cq.MustParse(sh.query)
		db := NewDB()
		for name, ar := range sh.rels {
			cols := make([]string, ar)
			for i := range cols {
				cols[i] = string(rune('a' + i))
			}
			r := db.CreateRelation(name, cols)
			rows := sh.rows
			if ar == 1 {
				rows = sh.domain // unary sides stay dense but small
			}
			tuple := make([]Value, ar)
			for i := 0; i < rows; i++ {
				for j := range tuple {
					tuple[j] = Value(rng.Intn(sh.domain))
				}
				r.Insert(tuple, rng.Float64())
			}
		}
		plans := core.MinimalPlans(q, nil)
		stats := &EvalStats{}
		got := EvalPlansCtx(nil, db, q, plans, Options{ReuseSubplans: true, SemiJoin: true, Stats: stats})
		if stats.Partitions() == 0 {
			t.Fatalf("%s: expected multi-chunk projections on %d-row inputs", sh.label, sh.rows)
		}
		want := EvalPlansOracle(nil, db, q, plans, Options{ReuseSubplans: true, SemiJoin: true})
		assertIdenticalResults(t, sh.label, want, got)
	}
}

// fanoutDB builds probe R and build S for the fused π(⋈) of
// q(heads..., z) :- R(heads..., y), S(y, z): R has np rows, row i with y
// = i mod keys and head column c = i mod heads[c]; S holds fanout rows
// per join key, row j of key y with z = (y·fanout + j) mod zs, or no z
// column when zs is 0. Rows repeat freely, so S's fan-out is exact.
func fanoutDB(np, keys, fanout int, heads []int, zs int) *DB {
	db := NewDB()
	var rCols []string
	for c := range heads {
		rCols = append(rCols, fmt.Sprintf("h%d", c))
	}
	R := db.CreateRelation("R", append(rCols, "y"))
	sCols := []string{"y"}
	if zs > 0 {
		sCols = append(sCols, "z")
	}
	S := db.CreateRelation("S", sCols)
	for i := 0; i < np; i++ {
		tuple := make([]Value, 0, len(heads)+1)
		for _, h := range heads {
			tuple = append(tuple, Value(i%h))
		}
		R.Insert(append(tuple, Value(1000+i%keys)), float64(1+i%97)/100)
	}
	for y := 0; y < keys; y++ {
		for j := 0; j < fanout; j++ {
			tuple := []Value{Value(1000 + y)}
			if zs > 0 {
				tuple = append(tuple, Value(2000+(y*fanout+j)%zs))
			}
			S.Insert(tuple, float64(1+(y+j)%89)/100)
		}
	}
	return db
}

// TestDirectGroupingOracleDifferential pins both ways the fused π(⋈)
// finds a join row's group on instances either side of the rule that
// picks one (stream.go): the executor matches the row-at-a-time oracle
// bit for bit, the profile reports which way ran (Direct, rendered
// "fused, direct"), and each way runs on some case. The cases move one
// input across the rule at a time: build fan-out 3 vs 5, a code product
// at and just over 2 × the input rows, a side with no key column, keys
// of three and four columns split across the sides, and join rows
// spanning several morsels.
func TestDirectGroupingOracleDifferential(t *testing.T) {
	cases := []struct {
		label  string
		query  string
		db     *DB
		direct bool
	}{
		// 400 probe + 200 build rows over 40 keys: 1 200 cells allowed.
		{"fanout5", "q(h0, z) :- R(h0, y), S(y, z)", fanoutDB(400, 40, 5, []int{10}, 10), true},
		{"fanout3", "q(h0, z) :- R(h0, y), S(y, z)", fanoutDB(400, 40, 3, []int{10}, 10), false},
		{"cells-at-limit", "q(h0, z) :- R(h0, y), S(y, z)", fanoutDB(400, 40, 5, []int{30}, 40), true},
		{"cells-over-limit", "q(h0, z) :- R(h0, y), S(y, z)", fanoutDB(400, 40, 5, []int{31}, 40), false},
		{"no-build-key", "q(h0) :- R(h0, y), S(y)", fanoutDB(400, 40, 5, []int{10}, 0), true},
		{"no-probe-key", "q(z) :- R(y), S(y, z)", fanoutDB(400, 40, 5, nil, 10), true},
		{"key-2+1", "q(h0, h1, z) :- R(h0, h1, y), S(y, z)", fanoutDB(400, 40, 5, []int{4, 5}, 10), true},
		{"key-3+0", "q(h0, h1, h2) :- R(h0, h1, h2, y), S(y)", fanoutDB(400, 40, 5, []int{2, 3, 5}, 0), true},
		// 2 000 × 5 and 3 000 × 3 join rows: five morsels or more each.
		{"morsels-direct", "q(h0, z) :- R(h0, y), S(y, z)", fanoutDB(2000, 100, 5, []int{8}, 10), true},
		{"morsels-hashed", "q(h0, z) :- R(h0, y), S(y, z)", fanoutDB(3000, 100, 3, []int{8}, 10), false},
	}
	ran := map[bool]bool{}
	for _, c := range cases {
		q := cq.MustParse(c.query)
		plans := core.MinimalPlans(q, nil)
		if len(plans) != 1 {
			t.Fatalf("%s: %d minimal plans, want the one safe plan", c.label, len(plans))
		}
		for name, opts := range map[string]Options{
			"plain": {},
			"opt23": {ReuseSubplans: true, SemiJoin: true},
		} {
			label := c.label + "/" + name
			opts.Stats = &EvalStats{}
			got, stats := NewEvaluatorCtx(nil, c.db, q, opts).EvalProfiled(plans[0])
			root := stats[len(stats)-1]
			if !root.Fused || root.Direct != c.direct {
				t.Fatalf("%s: root ran fused=%v direct=%v, want fused, direct=%v:\n%s",
					label, root.Fused, root.Direct, c.direct, FormatProfile(stats))
			}
			if prof := FormatProfile(stats); strings.Contains(prof, "fused, direct)") != c.direct {
				t.Fatalf("%s: profile does not render direct=%v:\n%s", label, c.direct, prof)
			}
			if strings.HasPrefix(c.label, "morsels") && opts.Stats.Partitions() == 0 {
				t.Fatalf("%s: expected a projection folding several chunks", label)
			}
			ran[root.Direct] = true
			want := EvalPlansOracle(nil, c.db, q, plans, opts)
			assertIdenticalResults(t, label, want, got)
		}
	}
	if !ran[true] || !ran[false] {
		t.Fatalf("ways run: %v, want both", ran)
	}
}

// TestPropSinglePlanWithSchema: the merged plan under schema knowledge
// (DRs + FDs) computes the same score as the min over the schema-aware
// minimal plans, and both are exact when the schema makes the query
// safe.
func TestPropSinglePlanWithSchema(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	for iter := 0; iter < 15; iter++ {
		db := NewDB()
		R := db.CreateRelation("R", []string{"x"})
		S := db.CreateRelation("S", []string{"x", "y"})
		var T *Relation
		detT := iter%2 == 0
		if detT {
			T = db.CreateDeterministicRelation("T", []string{"y"})
		} else {
			T = db.CreateRelation("T", []string{"y"})
		}
		keyed := iter%3 == 0
		if keyed {
			S.SetKey("x")
		}
		for v := 0; v < 4; v++ {
			if rng.Float64() < 0.8 {
				R.Insert([]Value{Value(v)}, rng.Float64())
			}
			p := rng.Float64()
			if detT {
				p = 1
			}
			if rng.Float64() < 0.8 {
				T.Insert([]Value{Value(v)}, p)
			}
			if keyed {
				if rng.Float64() < 0.8 {
					S.Insert([]Value{Value(v), Value(rng.Intn(4))}, rng.Float64())
				}
			} else {
				for w := 0; w < 3; w++ {
					if rng.Float64() < 0.5 {
						S.Insert([]Value{Value(v), Value(w)}, rng.Float64())
					}
				}
			}
		}
		sch := SchemaFor(db, q)
		plans := core.MinimalPlans(q, sch)
		all := booleanScore(EvalPlansCtx(nil, db, q, plans, Options{}))
		sp := core.SinglePlan(q, sch)
		merged := booleanScore(NewEvaluatorCtx(nil, db, q, Options{ReuseSubplans: true}).Eval(sp))
		if math.Abs(all-merged) > 1e-9 {
			t.Errorf("iter %d: min-over-plans %v != merged %v", iter, all, merged)
		}
		if detT || keyed {
			truth := exactProbs(db, q)[""]
			if math.Abs(merged-truth) > 1e-9 {
				t.Errorf("iter %d (det=%v key=%v): schema-safe score %v != exact %v", iter, detT, keyed, merged, truth)
			}
		}
	}
}
