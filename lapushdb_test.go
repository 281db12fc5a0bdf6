package lapushdb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"lapushdb/internal/obdd"
)

// movieDB builds a small uncertain movie-recommendation database used
// across the façade tests.
func movieDB(t *testing.T) *DB {
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
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(likes.Insert(0.9, "ann", "heat"))
	must(likes.Insert(0.5, "bob", "heat"))
	must(likes.Insert(0.4, "bob", "ronin"))
	must(stars.Insert(0.8, "heat", "deniro"))
	must(stars.Insert(0.7, "ronin", "deniro"))
	must(stars.Insert(0.3, "heat", "pacino"))
	must(fan.Insert(0.6, "deniro"))
	must(fan.Insert(0.9, "pacino"))
	return db
}

func TestRankDissociationUpperBoundsExact(t *testing.T) {
	db := movieDB(t)
	q := "q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)"
	diss, err := db.RankContext(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := db.RankContext(context.Background(), q, &Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	if len(diss) != 2 || len(ex) != 2 {
		t.Fatalf("answers: diss=%d exact=%d, want 2", len(diss), len(ex))
	}
	score := func(as []Answer, v string) float64 {
		for _, a := range as {
			if a.Values[0] == v {
				return a.Score
			}
		}
		t.Fatalf("answer %s missing", v)
		return 0
	}
	for _, u := range []string{"ann", "bob"} {
		if score(diss, u) < score(ex, u)-1e-12 {
			t.Errorf("%s: dissociation %v below exact %v", u, score(diss, u), score(ex, u))
		}
	}
	// Same ranking on this instance.
	if diss[0].Values[0] != ex[0].Values[0] {
		t.Errorf("rankings disagree: %v vs %v", diss[0], ex[0])
	}
}

func TestRankAllMethodsAgreeOnSupport(t *testing.T) {
	db := movieDB(t)
	q := "q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)"
	for _, m := range []Method{Dissociation, Exact, MonteCarlo, LineageSize, Deterministic} {
		as, err := db.RankContext(context.Background(), q, &Options{Method: m, MCSamples: 200})
		if err != nil {
			t.Fatalf("method %d: %v", m, err)
		}
		if len(as) != 2 {
			t.Errorf("method %d: %d answers, want 2", m, len(as))
		}
	}
}

func TestOptimizationsGiveSameScores(t *testing.T) {
	db := movieDB(t)
	q := "q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)"
	base, err := db.RankContext(context.Background(), q, &Options{DisableOpt1: true, DisableOpt2: true, DisableOpt3: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []*Options{
		{},
		{DisableOpt1: true},
		{DisableOpt2: true},
		{DisableOpt3: true},
		{DisableOpt1: true, DisableOpt3: true},
	} {
		got, err := db.RankContext(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if got[i].Values[0] != base[i].Values[0] || math.Abs(got[i].Score-base[i].Score) > 1e-12 {
				t.Errorf("opts %+v: answer %d = %+v, want %+v", opts, i, got[i], base[i])
			}
		}
	}
}

func TestExplainUnsafeQuery(t *testing.T) {
	db := movieDB(t)
	ex, err := db.ExplainContext(context.Background(), "q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Safe {
		t.Error("3-chain-shaped query should be unsafe")
	}
	if len(ex.Plans) != 2 {
		t.Errorf("plans = %d, want 2", len(ex.Plans))
	}
	if len(ex.Dissociations) != len(ex.Plans) {
		t.Error("dissociations should parallel plans")
	}
	if !strings.Contains(ex.SinglePlan, "min[") {
		t.Errorf("single plan should contain min: %s", ex.SinglePlan)
	}
}

func TestExplainSafeQuery(t *testing.T) {
	db := movieDB(t)
	ex, err := db.ExplainContext(context.Background(), "q(movie) :- Stars(movie, actor), Fan(actor)")
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Safe {
		t.Error("query should be safe")
	}
	if len(ex.Plans) != 1 {
		t.Errorf("plans = %d, want 1", len(ex.Plans))
	}
}

func TestSchemaKnowledgeChangesPlans(t *testing.T) {
	db := Open()
	r, _ := db.CreateRelation("R", "x")
	s, _ := db.CreateRelation("S", "x", "y")
	u, _ := db.CreateDeterministicRelation("T", "y")
	_ = r.Insert(0.5, 1)
	_ = s.Insert(0.5, 1, 2)
	_ = u.Insert(1, 2)
	ex, err := db.ExplainContext(context.Background(), "q() :- R(x), S(x, y), T(y)")
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Safe || len(ex.Plans) != 1 {
		t.Errorf("with deterministic T the query should be safe with 1 plan; got safe=%v plans=%d", ex.Safe, len(ex.Plans))
	}
	// Keys widen safety too.
	db2 := Open()
	r2, _ := db2.CreateRelation("R", "x")
	s2, _ := db2.CreateRelation("S", "x", "y")
	t2, _ := db2.CreateRelation("T", "y")
	s2.SetKey("x")
	_ = r2.Insert(0.5, 1)
	_ = s2.Insert(0.5, 1, 2)
	_ = t2.Insert(0.5, 2)
	ex2, err := db2.ExplainContext(context.Background(), "q() :- R(x), S(x, y), T(y)")
	if err != nil {
		t.Fatal(err)
	}
	if !ex2.Safe || len(ex2.Plans) != 1 {
		t.Errorf("with key S(x) the query should be safe; got safe=%v plans=%d", ex2.Safe, len(ex2.Plans))
	}
}

func TestErrors(t *testing.T) {
	db := movieDB(t)
	if _, err := db.RankContext(context.Background(), "not a query", nil); err == nil {
		t.Error("bad syntax should fail")
	}
	if _, err := db.RankContext(context.Background(), "q(x) :- Missing(x)", nil); err == nil {
		t.Error("unknown relation should fail")
	}
	if _, err := db.RankContext(context.Background(), "q(x) :- Likes(x)", nil); err == nil {
		t.Error("wrong arity should fail")
	}
	if _, err := db.CreateRelation("Likes", "a"); err == nil {
		t.Error("duplicate relation should fail")
	}
	likes := db.Relation("Likes")
	if err := likes.Insert(1.5, "a", "b"); err == nil {
		t.Error("probability out of range should fail")
	}
	if err := likes.Insert(0.5, "only-one"); err == nil {
		t.Error("wrong value count should fail")
	}
	if err := likes.Insert(0.5, 3.14, "b"); err == nil {
		t.Error("unsupported value type should fail")
	}
}

func TestPredicatesInQuery(t *testing.T) {
	db := Open()
	s, _ := db.CreateRelation("S", "id", "name")
	_ = s.Insert(0.5, 1, "red apple")
	_ = s.Insert(0.5, 2, "green pear")
	_ = s.Insert(0.5, 30, "red cherry")
	as, err := db.RankContext(context.Background(), "q(name) :- S(id, name), id <= 10, name like '%red%'", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 1 || as[0].Values[0] != "red apple" {
		t.Errorf("answers = %+v", as)
	}
}

func TestScaleProbsAndClone(t *testing.T) {
	db := movieDB(t)
	q := "q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)"
	before, _ := db.RankContext(context.Background(), q, nil)
	c := db.Clone()
	if err := c.ScaleProbs(0.5); err != nil {
		t.Fatal(err)
	}
	afterClone, _ := c.RankContext(context.Background(), q, nil)
	afterOrig, _ := db.RankContext(context.Background(), q, nil)
	if afterClone[0].Score >= before[0].Score {
		t.Error("scaling down should lower scores")
	}
	if math.Abs(afterOrig[0].Score-before[0].Score) > 1e-12 {
		t.Error("scaling a clone mutated the original")
	}
}

// TestProbabilityValidation: a tuple probability is checked in one
// place. Insert and SetProbAt refuse NaN and values outside [0, 1],
// Insert refuses p ≠ 1 on a deterministic relation, and ScaleProbs
// refuses a factor outside (0, 1]. Each refusal is an error, not a
// panic, and leaves the database as it was; the boundary values pass.
func TestProbabilityValidation(t *testing.T) {
	db := Open()
	r, err := db.CreateRelation("R", "x")
	if err != nil {
		t.Fatal(err)
	}
	d, err := db.CreateDeterministicRelation("D", "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(0.5, "a"); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(1, "a"); err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	refused := map[string]func() error{
		"Insert/NaN":              func() error { return r.Insert(nan, "b") },
		"Insert/negative":         func() error { return r.Insert(-0.1, "b") },
		"Insert/above one":        func() error { return r.Insert(1.5, "b") },
		"Insert/deterministic":    func() error { return d.Insert(0.5, "b") },
		"Insert/deterministicNaN": func() error { return d.Insert(nan, "b") },
		"SetProbAt/NaN":           func() error { return r.SetProbAt(0, nan) },
		"SetProbAt/above one":     func() error { return r.SetProbAt(0, 2) },
		"ScaleProbs/NaN":          func() error { return db.ScaleProbs(nan) },
		"ScaleProbs/zero":         func() error { return db.ScaleProbs(0) },
		"ScaleProbs/above one":    func() error { return db.ScaleProbs(2) },
	}
	// guard turns a panic of f into a failure of t.
	guard := func(t *testing.T, f func()) {
		defer func() {
			if v := recover(); v != nil {
				t.Errorf("panicked: %v", v)
			}
		}()
		f()
	}
	for name, call := range refused {
		t.Run(name, func(t *testing.T) {
			guard(t, func() {
				if err := call(); err == nil {
					t.Error("accepted")
				}
			})
		})
	}
	for q, want := range map[string]float64{"q(x) :- R(x)": 0.5, "q(x) :- D(x)": 1} {
		guard(t, func() {
			ans, err := db.RankContext(context.Background(), q, nil)
			if err != nil || len(ans) != 1 || ans[0].Score != want {
				t.Errorf("%s after the refusals: %+v, err %v; want one answer scoring %v", q, ans, err, want)
			}
		})
	}
	for name, err := range map[string]error{
		"Insert(0)":     r.Insert(0, "b"),
		"Insert(1)":     r.Insert(1, "c"),
		"SetProbAt(1)":  r.SetProbAt(0, 1),
		"ScaleProbs(1)": db.ScaleProbs(1),
	} {
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestMonteCarloApproximatesExact(t *testing.T) {
	db := movieDB(t)
	q := "q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)"
	ex, _ := db.RankContext(context.Background(), q, &Options{Method: Exact})
	mcAs, err := db.RankContext(context.Background(), q, &Options{Method: MonteCarlo, MCSamples: 100000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ex {
		var got float64
		for _, a := range mcAs {
			if a.Values[0] == ex[i].Values[0] {
				got = a.Score
			}
		}
		if math.Abs(got-ex[i].Score) > 0.01 {
			t.Errorf("%s: MC %v vs exact %v", ex[i].Values[0], got, ex[i].Score)
		}
	}
}

func TestSaveLoadFacade(t *testing.T) {
	db := movieDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := "q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)"
	a, _ := db.RankContext(context.Background(), q, nil)
	b, err := loaded.RankContext(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("answers %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Values[0] != b[i].Values[0] || a[i].Score != b[i].Score {
			t.Errorf("answer %d differs after reload: %+v vs %+v", i, a[i], b[i])
		}
	}
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("loading junk should fail")
	}
}

func TestLineageFacade(t *testing.T) {
	db := movieDB(t)
	infos, err := db.LineageContext(context.Background(), "q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("answers = %d", len(infos))
	}
	for _, info := range infos {
		if info.Size < 1 {
			t.Errorf("%v: empty lineage", info.Values)
		}
		if !strings.Contains(info.Formula, "Likes(") {
			t.Errorf("%v: formula %q should name tuples", info.Values, info.Formula)
		}
	}
	// bob's lineage (two movies, shared actor fan-page tuple) is NOT
	// read-once: Fan(deniro) occurs in both clauses together with
	// different Likes/Stars tuples... it factors as Fan·(L1·S1 + L2·S2),
	// which IS read-once. Verify the library agrees with exactness:
	for _, info := range infos {
		if info.ReadOnce && info.Factorization == "" {
			t.Errorf("%v: read-once without factorization", info.Values)
		}
	}
	if _, err := db.LineageContext(context.Background(), "broken"); err == nil {
		t.Error("bad query should fail")
	}
}

func TestKarpLubyMethod(t *testing.T) {
	db := movieDB(t)
	q := "q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)"
	ex, _ := db.RankContext(context.Background(), q, &Options{Method: Exact})
	kl, err := db.RankContext(context.Background(), q, &Options{Method: KarpLuby, MCSamples: 100000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ex {
		var got float64
		for _, a := range kl {
			if a.Values[0] == ex[i].Values[0] {
				got = a.Score
			}
		}
		if math.Abs(got-ex[i].Score) > 0.01 {
			t.Errorf("%s: KL %v vs exact %v", ex[i].Values[0], got, ex[i].Score)
		}
	}
}

func TestProfileFacade(t *testing.T) {
	db := movieDB(t)
	prof, err := db.Profile(context.Background(), "q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"min (2 alternatives)", "scan Likes(user, movie)", "rows="} {
		if !strings.Contains(prof, want) {
			t.Errorf("profile missing %q:\n%s", want, prof)
		}
	}
	if _, err := db.Profile(context.Background(), "nope("); err == nil {
		t.Error("bad query should fail")
	}
	// PlanDOT facade.
	dot, err := db.PlanDOT("q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)", "plans")
	if err != nil || !strings.Contains(dot, "digraph plans") {
		t.Errorf("PlanDOT: %v\n%s", err, dot)
	}
	if _, err := db.PlanDOT("q(m) :- Stars(m, a)", "lattice"); err != nil {
		t.Errorf("lattice DOT: %v", err)
	}
	if _, err := db.PlanDOT("q(m) :- Stars(m, a)", "bogus"); err == nil {
		t.Error("bad DOT kind should fail")
	}
}

// TestFacadeIndexes: a threshold predicate through the public API is
// answered by a plain scan of the relation.
func TestFacadeIndexes(t *testing.T) {
	db := Open()
	s, _ := db.CreateRelation("S", "id", "name")
	for i := 0; i < 100; i++ {
		_ = s.Insert(0.5, i, "x")
	}
	as, err := db.RankContext(context.Background(), "q(id) :- S(id, name), id <= 10", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 11 {
		t.Errorf("answers = %d, want 11", len(as))
	}
}

// obddScores compiles every answer's lineage into a reduced ordered BDD
// (internal/obdd, an exact solver independent of the DPLL kernel) and
// returns the probabilities keyed by the answer's values joined with
// NUL.
func obddScores(t *testing.T, db *DB, query string, budget int) map[string]float64 {
	t.Helper()
	q, err := parseChecked(db, query)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := db.evalLineage(context.Background(), q, &Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64, lin.Len())
	for i := 0; i < lin.Len(); i++ {
		b, err := obdd.Build(lin.Clauses(i), obdd.FrequencyOrder(lin.Clauses(i)), budget)
		if err != nil {
			t.Fatal(err)
		}
		out[strings.Join(db.decode(lin.Key(i)), "\x00")] = b.Prob(db.db.VarProbs())
	}
	return out
}

func TestExactOBDDMatchesExact(t *testing.T) {
	db := movieDB(t)
	q := "q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)"
	a, err := db.RankContext(context.Background(), q, &Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	b := obddScores(t, db, q, DefaultExactBudget)
	if len(a) != len(b) {
		t.Fatalf("DPLL %d answers, OBDD %d", len(a), len(b))
	}
	for i := range a {
		if ob, ok := b[a[i].Values[0]]; !ok || math.Abs(a[i].Score-ob) > 1e-9 {
			t.Errorf("answer %d: DPLL %+v vs OBDD %v", i, a[i], ob)
		}
	}
}

// wideDB holds W of the given arity and a unary V, for queries with as
// many variables as W has columns.
func wideDB(t *testing.T, arity int) *DB {
	t.Helper()
	db := Open()
	cols := make([]string, arity)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i+1)
	}
	if _, err := db.CreateRelation("W", cols...); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("V", "c1"); err != nil {
		t.Fatal(err)
	}
	return db
}

// wideQuery is q() :- W(x1, ..., xn), V(x1): connected, with n
// existential variables.
func wideQuery(n int) string {
	vars := make([]string, n)
	for i := range vars {
		vars[i] = fmt.Sprintf("x%d", i+1)
	}
	return "q() :- W(" + strings.Join(vars, ", ") + "), V(x1)"
}

// TestWideQueryRefused: plan enumeration numbers variables in a 64-bit
// mask, so a query with more variables is refused with an error when it
// is prepared or ranked, by every method, instead of enumerating no cuts
// and panicking; 64 variables still work.
func TestWideQueryRefused(t *testing.T) {
	db := wideDB(t, 65)
	q := wideQuery(65)
	if _, err := db.PrepareContext(context.Background(), q, nil); err == nil || !strings.Contains(err.Error(), "at most 64") {
		t.Errorf("PrepareContext: err = %v, want the width refusal", err)
	}
	for _, m := range []Method{Dissociation, Exact, Deterministic} {
		if _, err := db.RankContext(context.Background(), q, &Options{Method: m}); err == nil {
			t.Errorf("Rank with %s accepted a 65-variable query", m)
		}
	}
	db = wideDB(t, 64)
	p, err := db.PrepareContext(context.Background(), wideQuery(64), nil)
	if err != nil {
		t.Fatalf("64 variables: %v", err)
	}
	if len(p.plans) != 1 || !p.Safe() {
		t.Errorf("64 variables: %d plans, safe %v; want the one safe plan", len(p.plans), p.Safe())
	}
}

// TestCancelledContextEveryEntry: every exported operation that
// evaluates a query takes a context first and returns context.Canceled
// when it is already done.
func TestCancelledContextEveryEntry(t *testing.T) {
	db := movieDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := "q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)"
	union := []string{q, "q(user) :- Likes(user, movie)"}
	calls := map[string]func() error{
		"RankTopK":       func() error { _, err := db.RankTopK(ctx, q, 1, nil); return err },
		"Influence":      func() error { _, err := db.Influence(ctx, q, 0); return err },
		"Profile":        func() error { _, err := db.Profile(ctx, q); return err },
		"LineageContext": func() error { _, err := db.LineageContext(ctx, q); return err },
		"ExplainContext": func() error { _, err := db.ExplainContext(ctx, q); return err },
	}
	for _, m := range []Method{Dissociation, Exact, MonteCarlo} {
		calls["RankUnion/"+m.String()] = func() error {
			_, err := db.RankUnion(ctx, union, &Options{Method: m})
			return err
		}
	}
	for _, m := range []Method{Dissociation, Exact, MonteCarlo, KarpLuby, LineageSize, Deterministic} {
		calls["RankContext/"+m.String()] = func() error {
			_, err := db.RankContext(ctx, q, &Options{Method: m})
			return err
		}
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestBudgetEveryMethod: Options.MaxIntermediateRows bounds every
// method, not only Dissociation. On the served chain a 10-row budget
// fails each method with ErrBudget, and the same query unbudgeted
// returns answers.
func TestBudgetEveryMethod(t *testing.T) {
	db := servedChain(t)
	const q = "q(x0, x3) :- BenchR1(x0, x1), BenchR2(x1, x2), BenchR3(x2, x3), x0 <= 1, x1 <= 5"
	for _, m := range []Method{Dissociation, Exact, MonteCarlo, KarpLuby, LineageSize, Deterministic} {
		ans, err := db.RankContext(context.Background(), q, &Options{Method: m, MCSamples: 100})
		if err != nil || len(ans) == 0 {
			t.Fatalf("%s unbudgeted: %d answers, err %v", m, len(ans), err)
		}
		ans, err = db.RankContext(context.Background(), q, &Options{Method: m, MCSamples: 100, MaxIntermediateRows: 10})
		if !errors.Is(err, ErrBudget) {
			t.Errorf("%s with a 10-row budget: %d answers, err %v, want ErrBudget", m, len(ans), err)
		}
	}
}

// TestAnswerValuesAreSeparate: the answers of one ranking decode into one
// shared backing slice, each answer's Values clamped to its own cells, so
// appending to one answer's Values never writes its neighbour's, for the
// dissociation and the deterministic paths alike.
func TestAnswerValuesAreSeparate(t *testing.T) {
	db := movieDB(t)
	for _, m := range []Method{Dissociation, Deterministic} {
		ans, err := db.RankContext(context.Background(), "q(u, m) :- Likes(u, m), Stars(m, a)", &Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		if len(ans) < 2 {
			t.Fatalf("%s: %d answers, want at least 2", m, len(ans))
		}
		before := make([][]string, len(ans))
		for i, a := range ans {
			before[i] = slices.Clone(a.Values)
		}
		for i := range ans {
			_ = append(ans[i].Values, "extra")
			for j, a := range ans {
				if !slices.Equal(a.Values, before[j]) {
					t.Fatalf("%s: appending to answer %d changed answer %d from %v to %v", m, i, j, before[j], a.Values)
				}
			}
		}
	}
}
