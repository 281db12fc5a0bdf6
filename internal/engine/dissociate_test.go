package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/exact"
	"lapushdb/internal/plan"
)

// TestMaterializedDissociationExample11 reproduces Example 11: for
// q :- R(x), S(x, y) and ∆ = ({y}, ∅), R^y contains each R tuple copied
// once per y in the active domain.
func TestMaterializedDissociationExample11(t *testing.T) {
	db := example7DB(0.5, 0.4, 0.7)
	q := cq.MustParse("q() :- R(x), S(x, y)")
	d := plan.NewDissociation()
	d.Add("R", "y")
	ddb, dq := materializeDissociation(db, q, d)
	// ADom(y) = {4, 5}: R^y = {(1,4), (1,5), (2,4), (2,5)}.
	ry := ddb.Relation("R")
	if ry.Len() != 4 {
		t.Fatalf("R^y has %d tuples, want 4", ry.Len())
	}
	if ry.Arity() != 2 {
		t.Errorf("R^y arity = %d, want 2", ry.Arity())
	}
	// Copies keep the original probability but are independent events.
	if ry.Prob(0) != 0.5 || ry.Prob(1) != 0.5 {
		t.Errorf("copy probabilities = %v, %v", ry.Prob(0), ry.Prob(1))
	}
	if ry.VarID(0) == ry.VarID(1) {
		t.Error("copies must be independent lineage variables")
	}
	// The dissociated query is hierarchical and its exact probability on
	// D∆ equals Example 9's dissociated value pq + pr − p²qr.
	if !dq.IsHierarchical() {
		t.Error("q∆ should be hierarchical")
	}
	lin := EvalLineageCtx(nil, ddb, dq, nil)
	got := exact.Prob(lin.Clauses(0), ddb.VarProbs())
	want := 0.5*0.4 + 0.5*0.7 - 0.25*0.4*0.7
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("P(q∆) on D∆ = %v, want %v", got, want)
	}
}

// TestTheorem18ScoreEqualsMaterialized is Theorem 18(2) end to end: for
// every safe dissociation ∆ of a query, score(P∆) computed on the
// ORIGINAL database equals the exact probability of q∆ on the
// MATERIALIZED dissociated database.
func TestTheorem18ScoreEqualsMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	queries := []string{
		"q() :- R(x), S(x, y), T(y)",
		"q() :- R(x), S(x), T(x, y), U(y)",
	}
	for _, qs := range queries {
		q := cq.MustParse(qs)
		var safe []plan.Dissociation
		for _, d := range core.Dissociations(q) {
			if d.IsSafeFor(q) {
				safe = append(safe, d)
			}
		}
		for iter := 0; iter < 5; iter++ {
			db := randomDB(q, 3, 5, 1.0, rng)
			for _, d := range safe {
				p, err := plan.PlanOf(q, d)
				if err != nil {
					t.Fatal(err)
				}
				score := booleanScore(NewEvaluatorCtx(nil, db, q, Options{}).Eval(p))
				ddb, dq := materializeDissociation(db, q, d)
				lin := EvalLineageCtx(nil, ddb, dq, nil)
				var exactP float64
				if lin.Len() > 0 {
					exactP = exact.Prob(lin.Clauses(0), ddb.VarProbs())
				}
				if math.Abs(score-exactP) > 1e-9 {
					t.Errorf("%s ∆=%s: score(P∆)=%v on D, P(q∆)=%v on D∆", qs, d, score, exactP)
				}
			}
		}
	}
}

// TestTheorem12UpperBoundMaterialized is Theorem 12 on the materialized
// side: P(q∆) on D∆ upper-bounds P(q) on D for every dissociation
// (safe or not — here checked on safe ones where exactness is cheap).
func TestTheorem12UpperBoundMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	for iter := 0; iter < 5; iter++ {
		db := randomDB(q, 3, 5, 1.0, rng)
		truth := exactProbs(db, q)[""]
		for _, d := range core.Dissociations(q) {
			ddb, dq := materializeDissociation(db, q, d)
			lin := EvalLineageCtx(nil, ddb, dq, nil)
			var p float64
			if lin.Len() > 0 {
				p = exact.Prob(lin.Clauses(0), ddb.VarProbs())
			}
			if p < truth-1e-9 {
				t.Errorf("∆=%s: P(q∆)=%v < P(q)=%v", d, p, truth)
			}
		}
	}
}

// TestMaterializeDeterministicPreserved: dissociating a deterministic
// relation produces a deterministic relation, and the probability stays
// exactly P(q) (Lemma 22).
func TestMaterializeDeterministicPreserved(t *testing.T) {
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
	d := plan.NewDissociation()
	d.Add("T", "x")
	ddb, dq := materializeDissociation(db, q, d)
	if !ddb.Relation("T").Deterministic {
		t.Error("dissociated deterministic relation lost its flag")
	}
	lin := EvalLineageCtx(nil, ddb, dq, nil)
	got := exact.Prob(lin.Clauses(0), ddb.VarProbs())
	if math.Abs(got-0.4) > 1e-12 {
		t.Errorf("P(q∆) = %v, want 0.4 (Lemma 22)", got)
	}
}

// materializeDissociation builds the dissociated database D∆ of
// Definition 10: every relation Ri dissociated on variables yi is
// replaced by Ri^yi, holding one copy of each tuple per combination of
// values in the active domains of yi; each copy keeps the original
// tuple's probability but becomes an independent event (a fresh lineage
// variable).
//
// The paper's algorithms never materialize D∆ — Theorem 18 lets plans
// run on the original database — so this test helper validates
// that shortcut: the exact probability of q∆ on the materialized D∆
// must equal score(P∆) on D. It returns the new database and the
// dissociated query q∆ (same relation symbols, extended atoms).
func materializeDissociation(db *DB, q *cq.Query, d plan.Dissociation) (*DB, *cq.Query) {
	dq := d.Apply(q)
	// Active domain per variable: union over atoms containing it.
	adom := map[cq.Var][]Value{}
	varDomain := func(v cq.Var) []Value {
		if vals, ok := adom[v]; ok {
			return vals
		}
		set := map[Value]bool{}
		for _, a := range q.Atoms {
			rel := db.Relation(a.Rel)
			if rel == nil {
				panic(fmt.Sprintf("engine: unknown relation %s", a.Rel))
			}
			for j, t := range a.Args {
				if t.Var != v {
					continue
				}
				for i := 0; i < rel.Len(); i++ {
					set[rel.Row(i)[j]] = true
				}
			}
		}
		vals := make([]Value, 0, len(set))
		for val := range set {
			vals = append(vals, val)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		adom[v] = vals
		return vals
	}

	out := NewDB()
	out.strs = append([]string(nil), db.strs...)
	for s, id := range db.strIDs {
		out.strIDs[s] = id
	}
	for _, a := range q.Atoms {
		rel := db.Relation(a.Rel)
		extra := d.ExtraOf(a.Rel).Sorted()
		cols := append([]string(nil), rel.Cols...)
		for _, v := range extra {
			cols = append(cols, "y_"+string(v))
		}
		var nr *Relation
		if rel.Deterministic {
			nr = out.CreateDeterministicRelation(rel.Name, cols)
		} else {
			nr = out.CreateRelation(rel.Name, cols)
		}
		// Cartesian product of the extra variables' active domains.
		domains := make([][]Value, len(extra))
		for i, v := range extra {
			domains[i] = varDomain(v)
		}
		tuple := make([]Value, len(cols))
		var emit func(i int, base []Value, p float64)
		emit = func(i int, base []Value, p float64) {
			if i == len(domains) {
				copy(tuple, base)
				nr.Insert(tuple, p)
				return
			}
			for _, val := range domains[i] {
				base[len(rel.Cols)+i] = val
				emit(i+1, base, p)
			}
		}
		base := make([]Value, len(cols))
		for r := 0; r < rel.Len(); r++ {
			copy(base, rel.Row(r))
			emit(0, base, rel.Prob(r))
		}
	}
	return out, dq
}
