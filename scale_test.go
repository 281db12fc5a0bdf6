package lapushdb_test

import (
	"context"
	"math"
	"testing"

	"lapushdb"
	"lapushdb/internal/store"
)

// TestScaleProbsKeepsDeterministicCertain: scaling multiplies every
// lineage variable's probability, and a deterministic tuple has none, so
// it stays certain. On R(1, 2) at 0.5 and deterministic D(2), the safe
// query q(x) :- R(x, y), D(y) must score the same by dissociation and by
// exact inference after a scale by 0.5 — applied directly, through a
// scale_probs batch of the store, after a reopen that replays that batch
// from the WAL, and after a checkpoint and a second reopen.
func TestScaleProbsKeepsDeterministicCertain(t *testing.T) {
	seed := func() *lapushdb.DB {
		db := lapushdb.Open()
		r, err := db.CreateRelation("R", "x", "y")
		if err != nil {
			t.Fatal(err)
		}
		d, err := db.CreateDeterministicRelation("D", "y")
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Insert(0.5, 1, 2); err != nil {
			t.Fatal(err)
		}
		if err := d.Insert(1, 2); err != nil {
			t.Fatal(err)
		}
		return db
	}
	check := func(label string, db *lapushdb.DB) {
		t.Helper()
		ctx := context.Background()
		score := func(query string, m lapushdb.Method) float64 {
			t.Helper()
			answers, err := db.RankContext(ctx, query, &lapushdb.Options{Method: m})
			if err != nil {
				t.Fatalf("%s: %s: %v", label, query, err)
			}
			if len(answers) != 1 {
				t.Fatalf("%s: %s: %d answers, want 1", label, query, len(answers))
			}
			return answers[0].Score
		}
		const q = "q(x) :- R(x, y), D(y)"
		diss, exact := score(q, lapushdb.Dissociation), score(q, lapushdb.Exact)
		if math.Abs(diss-exact) > 1e-12 || math.Abs(exact-0.25) > 1e-12 {
			t.Errorf("%s: %s scores %v by dissociation and %v exactly, want 0.25 both", label, q, diss, exact)
		}
		if p := score("q(y) :- D(y)", lapushdb.Dissociation); p != 1 {
			t.Errorf("%s: the deterministic tuple has probability %v, want 1", label, p)
		}
	}

	db := seed()
	if err := db.ScaleProbs(0.5); err != nil {
		t.Fatal(err)
	}
	check("ScaleProbs", db)

	dir := t.TempDir()
	opts := store.Options{Dir: dir, Fsync: store.FsyncNever, CheckpointEvery: -1}
	st, err := store.Open(seed(), opts)
	if err != nil {
		t.Fatal(err)
	}
	v, err := st.Apply([]store.Mutation{{Op: store.OpScaleProbs, Factor: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	check("store.Apply", v.DB)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"WAL replay", "checkpoint"} {
		st, err = store.Open(nil, opts)
		if err != nil {
			t.Fatalf("%s: reopen: %v", label, err)
		}
		check(label, st.Current().DB)
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
