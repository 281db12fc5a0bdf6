package lapushdb

// Differential tests of the engine at the workload and public-API level:
// for TPC-H-style instances and the paper's chain and star
// micro-benchmarks, the columnar executor must return the same columns,
// the same rows in the same order, and bit-identical scores as the
// retained row-at-a-time oracle.

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/engine"
	"lapushdb/internal/engine/oracle"
	"lapushdb/internal/plan"
	"lapushdb/internal/workload"
)

// assertSameResult compares two engine results for exact equality of
// columns, row order, and scores.
func assertSameResult(t *testing.T, label string, seq, par *engine.Result) {
	t.Helper()
	if seq.Len() != par.Len() {
		t.Fatalf("%s: %d rows vs %d", label, seq.Len(), par.Len())
	}
	if len(seq.Cols) != len(par.Cols) {
		t.Fatalf("%s: cols %v vs %v", label, seq.Cols, par.Cols)
	}
	for i := range seq.Cols {
		if seq.Cols[i] != par.Cols[i] {
			t.Fatalf("%s: cols %v vs %v", label, seq.Cols, par.Cols)
		}
	}
	for i := 0; i < seq.Len(); i++ {
		sr, pr := seq.Row(i), par.Row(i)
		for j := range sr {
			if sr[j] != pr[j] {
				t.Fatalf("%s: row %d differs: %v vs %v", label, i, sr, pr)
			}
		}
		if seq.Score(i) != par.Score(i) {
			t.Fatalf("%s: row %d score %v != %v", label, i, seq.Score(i), par.Score(i))
		}
	}
}

// diffWorkload evaluates q's minimal plans on the columnar executor and
// on the retained row-at-a-time oracle and asserts the outputs are
// identical.
func diffWorkload(t *testing.T, label string, db *engine.DB, q *cq.Query) {
	t.Helper()
	plans := core.MinimalPlans(q, nil)
	opts := engine.Options{ReuseSubplans: true, SemiJoin: true}
	assertSameResult(t, label, oracle.EvalPlans(db, q, plans, opts), engine.EvalPlans(db, q, plans, opts))
}

// TestDifferentialWorkloads runs the executor-vs-oracle differential on
// the paper's three workload generators.
func TestDifferentialWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db, q := workload.Chain(3, 3000, 400, 0.5, rng)
	diffWorkload(t, "chain3", db, q)
	db, q = workload.Star(3, 2500, 300, 0.5, rng)
	diffWorkload(t, "star3", db, q)
	tp := workload.NewTPCH(0.02, 0.1, rng)
	diffWorkload(t, "tpch", tp.DB, tp.Query(tp.Suppliers, "%red%"))
}

// TestDifferentialPublicAPI checks the user-visible contract: Rank on
// multi-chunk relations — through the snapshot round trip, the prepared
// single plan and answer decoding — returns exactly the answers and
// score bits the oracle computes for that plan on the generated
// database, and the same bytes when asked again.
func TestDifferentialPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	edb, q := workload.Chain(3, 3000, 400, 0.5, rng)
	db := fromEngineDB(t, edb)
	query := q.String()
	got, err := db.RankContext(context.Background(), query, nil)
	if err != nil {
		t.Fatal(err)
	}
	single := []plan.Node{core.SinglePlan(q, engine.SchemaFor(edb, q))}
	want := oracle.EvalPlans(edb, q, single, engine.Options{ReuseSubplans: true, SemiJoin: true})
	if len(got) == 0 || len(got) != want.Len() {
		t.Fatalf("%d answers, oracle has %d", len(got), want.Len())
	}
	wantScore := map[string]float64{}
	for i := 0; i < want.Len(); i++ {
		vals := make([]string, len(want.Row(i)))
		for j, v := range want.Row(i) {
			vals[j] = edb.Decode(v)
		}
		wantScore[strings.Join(vals, "\x00")] = want.Score(i)
	}
	again, err := db.RankContext(context.Background(), query, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range got {
		if s, ok := wantScore[strings.Join(a.Values, "\x00")]; !ok || s != a.Score {
			t.Fatalf("answer %d %v scores %v, oracle %v (present %v)", i, a.Values, a.Score, s, ok)
		}
		if again[i].Score != a.Score || strings.Join(again[i].Values, "\x00") != strings.Join(a.Values, "\x00") {
			t.Fatalf("answer %d differs between two Rank calls: %v vs %v", i, again[i], a)
		}
	}
}

// fromEngineDB round-trips a generated engine.DB into the public DB via
// the snapshot format (the only conversion path, and it exercises
// persistence of the interned value ids too).
func fromEngineDB(t testing.TB, edb *engine.DB) *DB {
	t.Helper()
	var buf bytes.Buffer
	if err := edb.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return db
}
