package engine

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	q := cq.MustParse("q(z) :- R(z, x), S(x, y), T(y)")
	db := randomDB(q, 4, 10, 1.0, rng)
	db.Relation("S").SetKey("c", "d") // column names are c, d in randomDB
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Same relations, sizes, keys, determinism.
	for _, r := range db.Relations() {
		lr := loaded.Relation(r.Name)
		if lr == nil {
			t.Fatalf("relation %s missing after load", r.Name)
		}
		if lr.Len() != r.Len() || lr.Deterministic != r.Deterministic || len(lr.Key) != len(r.Key) {
			t.Errorf("relation %s metadata mismatch", r.Name)
		}
	}
	// Same query results, bit for bit.
	plans := core.MinimalPlans(q, nil)
	a := EvalPlansCtx(nil, db, q, plans, Options{})
	b := EvalPlansCtx(nil, loaded, q, plans, Options{})
	if a.Len() != b.Len() {
		t.Fatalf("answers %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		got, ok := scoreOf(b, a.Row(i))
		if !ok || math.Abs(got-a.Score(i)) != 0 {
			t.Errorf("answer %d: %v vs %v", i, a.Score(i), got)
		}
	}
}

func TestSaveLoadStringDictionary(t *testing.T) {
	db := NewDB()
	r := db.CreateRelation("Names", []string{"id", "name"})
	r.Insert([]Value{1, db.Intern("alice")}, 0.5)
	r.Insert([]Value{2, db.Intern("bob")}, 0.7)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lr := loaded.Relation("Names")
	if got := loaded.Decode(lr.Row(0)[1]); got != "alice" {
		t.Errorf("decoded %q, want alice", got)
	}
	// Interning the same string must return the same id.
	if loaded.Intern("bob") != db.Intern("bob") {
		t.Error("dictionary ids diverged after load")
	}
	// New strings get fresh ids past the loaded ones.
	if loaded.Intern("carol") == loaded.Intern("alice") {
		t.Error("fresh intern collided")
	}
}

func TestSaveLoadDeterministicRelations(t *testing.T) {
	db := NewDB()
	d := db.CreateDeterministicRelation("D", []string{"x"})
	p := db.CreateRelation("P", []string{"x"})
	d.Insert([]Value{1}, 1)
	p.Insert([]Value{1}, 0.5)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Relation("D").Deterministic {
		t.Error("determinism lost")
	}
	if len(loaded.varProb) != 1 {
		t.Errorf("lineage vars = %d, want 1", len(loaded.varProb))
	}
	if loaded.Relation("P").VarID(0) != 0 || loaded.Relation("D").VarID(0) != -1 {
		t.Error("lineage variable ids wrong after load")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage input should fail")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
}

// persistTestBytes saves a small two-relation database (probabilistic +
// deterministic, interned strings, a key) for the corruption tests.
func persistTestBytes(t *testing.T) []byte {
	t.Helper()
	db := NewDB()
	r := db.CreateRelation("Likes", []string{"user", "movie"})
	r.Insert([]Value{db.Intern("ann"), db.Intern("heat")}, 0.9)
	r.Insert([]Value{db.Intern("bob"), db.Intern("heat")}, 0.5)
	d := db.CreateDeterministicRelation("Fan", []string{"actor"})
	d.Insert([]Value{db.Intern("deniro")}, 1)
	r.SetKey("user", "movie")
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadRejectsFutureVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snapshot{Version: snapshotVersion + 1}); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf)
	if err == nil {
		t.Fatal("snapshot from a future version must be rejected")
	}
	want := fmt.Sprintf("unsupported snapshot version %d", snapshotVersion+1)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the version: want %q", err, want)
	}
}

// TestLoadRejectsTruncatedSnapshot cuts a valid snapshot at every byte
// boundary: every proper prefix must fail with an error, never a panic
// or a silently partial database.
func TestLoadRejectsTruncatedSnapshot(t *testing.T) {
	data := persistTestBytes(t)
	for n := 0; n < len(data); n++ {
		if _, err := Load(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded without error", n, len(data))
		}
	}
}

// TestLoadCorruptedByteNoPanic flips each byte of a valid snapshot in
// turn. Load may reject or (for benign flips, e.g. inside string
// content) accept the result, but it must never panic.
func TestLoadCorruptedByteNoPanic(t *testing.T) {
	data := persistTestBytes(t)
	for i := range data {
		c := append([]byte(nil), data...)
		c[i] ^= 0xFF
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Load panicked with byte %d flipped: %v", i, r)
				}
			}()
			Load(bytes.NewReader(c)) //nolint:errcheck // only the no-panic property matters
		}()
	}
}

func TestLoadRejectsDanglingStringReference(t *testing.T) {
	s := snapshot{
		Version: snapshotVersion,
		Strings: []string{"a"},
		VarProb: []float64{0.5},
		Order:   []string{"R"},
		Relations: []relationSnapshot{{
			Name: "R", Cols: []string{"x"},
			Rows: []Value{-5}, // string index 4, dictionary has 1 entry
			Prob: []float64{0.5}, Vars: []int32{0},
		}},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf)
	if err == nil || !strings.Contains(err.Error(), "string") {
		t.Fatalf("want dangling-string error, got: %v", err)
	}
}

func TestLoadRejectsBadProbabilities(t *testing.T) {
	base := func() snapshot {
		return snapshot{
			Version: snapshotVersion,
			VarProb: []float64{0.5},
			Order:   []string{"R"},
			Relations: []relationSnapshot{{
				Name: "R", Cols: []string{"x"},
				Rows: []Value{1}, Prob: []float64{0.5}, Vars: []int32{0},
			}},
		}
	}
	tampered := map[string]snapshot{}
	s := base()
	s.Relations[0].Prob[0] = 1.5
	tampered["tuple probability above 1"] = s
	s = base()
	s.Relations[0].Prob[0] = math.NaN()
	tampered["NaN tuple probability"] = s
	s = base()
	s.VarProb[0] = -0.25
	tampered["negative lineage probability"] = s
	for name, snap := range tampered {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "[0, 1]") {
			t.Errorf("%s: want out-of-range error, got: %v", name, err)
		}
	}
}
