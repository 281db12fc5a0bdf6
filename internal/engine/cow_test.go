package engine

import (
	"bytes"
	"slices"
	"testing"
)

// saveBytes serializes the database; byte equality of two snapshots is
// the strongest available state-equality check (gob of the snapshot
// struct is deterministic: slices only, no maps).
func saveBytes(t *testing.T, db *DB) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := db.Save(&b); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return b.Bytes()
}

func cowSeedDB() *DB {
	db := NewDB()
	r := db.CreateRelation("R", []string{"x", "y"})
	r.Insert([]Value{db.Intern("a"), db.Int(1)}, 0.5)
	r.Insert([]Value{db.Intern("b"), db.Int(2)}, 0.25)
	s := db.CreateDeterministicRelation("S", []string{"y"})
	s.Insert([]Value{db.Int(1)}, 1)
	return db
}

func TestCloneCOWEqualsParent(t *testing.T) {
	db := cowSeedDB()
	c := db.CloneCOW()
	if !bytes.Equal(saveBytes(t, db), saveBytes(t, c)) {
		t.Fatal("CloneCOW snapshot differs from parent")
	}
}

func TestCloneCOWMutationsDoNotLeakToParent(t *testing.T) {
	db := cowSeedDB()
	before := saveBytes(t, db)

	c := db.CloneCOW()
	r := c.Relation("R")
	// Every mutation class: in-place probability write, append with a
	// brand-new string (dictionary copy path), append with existing
	// values, delete, new relation, key change, scaling.
	r.SetProb(0, 0.9)
	r.Insert([]Value{c.Intern("fresh-string"), c.Int(7)}, 0.1)
	r.Insert([]Value{c.Intern("a"), c.Int(1)}, 0.2)
	r.DeleteRow(1)
	c.CreateRelation("T", []string{"z"}).Insert([]Value{c.Int(3)}, 0.3)
	r.SetKey("x")
	c.ScaleProbs(0.5)

	if got := saveBytes(t, db); !bytes.Equal(before, got) {
		t.Fatal("mutating a CloneCOW copy changed the parent snapshot")
	}
	if db.Relation("T") != nil {
		t.Fatal("relation created on clone visible in parent")
	}
	if db.Relation("R").Prob(0) != 0.5 {
		t.Fatalf("parent probability changed: %v", db.Relation("R").Prob(0))
	}
	if len(db.Relation("R").Key) != 0 {
		t.Fatal("SetKey on clone changed parent key")
	}
	if _, ok := db.strIDs["fresh-string"]; ok {
		t.Fatal("clone intern leaked into parent dictionary")
	}
}

func TestCloneCOWChain(t *testing.T) {
	// A chain of versions, each mutating its predecessor: every earlier
	// version must stay byte-stable.
	v0 := cowSeedDB()
	snaps := [][]byte{saveBytes(t, v0)}
	cur := v0
	versions := []*DB{v0}
	for i := 0; i < 5; i++ {
		next := cur.CloneCOW()
		r := next.Relation("R")
		r.SetProb(0, float64(i+1)/10)
		r.Insert([]Value{next.Intern("v"), next.Int(int64(100 + i))}, 0.5)
		if i%2 == 1 {
			r.DeleteRow(r.Len() - 1)
		}
		snaps = append(snaps, saveBytes(t, next))
		versions = append(versions, next)
		cur = next
	}
	for i, v := range versions {
		if !bytes.Equal(snaps[i], saveBytes(t, v)) {
			t.Fatalf("version %d snapshot changed after later mutations", i)
		}
	}
}

func TestFindRowAndDeleteRow(t *testing.T) {
	db := cowSeedDB()
	r := db.Relation("R")
	if i := r.FindRow([]Value{db.Intern("b"), db.Int(2)}); i != 1 {
		t.Fatalf("FindRow(b,2) = %d, want 1", i)
	}
	if i := r.FindRow([]Value{db.Intern("b"), db.Int(9)}); i != -1 {
		t.Fatalf("FindRow(missing) = %d, want -1", i)
	}
	if i := r.FindRow([]Value{db.Intern("b")}); i != -1 {
		t.Fatalf("FindRow(wrong arity) = %d, want -1", i)
	}
	r.DeleteRow(0)
	if r.Len() != 1 {
		t.Fatalf("Len after delete = %d, want 1", r.Len())
	}
	if i := r.FindRow([]Value{db.Intern("b"), db.Int(2)}); i != 0 {
		t.Fatalf("FindRow after delete = %d, want 0", i)
	}
	// Variable ids keep allocating densely after a delete: the deleted
	// tuple's id stays orphaned in varProb, the next insert takes id 2.
	r.Insert([]Value{db.Intern("c"), db.Int(3)}, 0.1)
	if got := r.VarID(1); got != 2 {
		t.Fatalf("VarID after delete+insert = %d, want 2", got)
	}
}

func TestLookupConstReadOnly(t *testing.T) {
	db := cowSeedDB()
	nStrs := len(db.strs)
	if _, ok := db.LookupConst("no-such-string"); ok {
		t.Fatal("LookupConst found a string that was never interned")
	}
	if len(db.strs) != nStrs {
		t.Fatal("LookupConst mutated the dictionary")
	}
	if v, ok := db.LookupConst("a"); !ok || v != db.strIDs["a"] {
		t.Fatalf("LookupConst(a) = %v, %v", v, ok)
	}
	if v, ok := db.LookupConst("42"); !ok || v != Value(42) {
		t.Fatalf("LookupConst(42) = %v, %v", v, ok)
	}
}

// TestCloneCOWInsertOwnsVarProb: an Insert on a CloneCOW copy appends to
// the capacity-clamped lineage-probability table, which reallocates, so
// the copy owns the new array and a following SetProb writes it in place
// instead of copying the table a second time. The parent's table keeps
// its length and values.
func TestCloneCOWInsertOwnsVarProb(t *testing.T) {
	db := cowSeedDB()
	parent := append([]float64(nil), db.varProb...)
	c := db.CloneCOW()
	r := c.Relation("R")
	r.Insert([]Value{c.Intern("c"), c.Int(3)}, 0.125)
	inserted := &c.varProb[0]
	r.SetProb(0, 0.75)
	if &c.varProb[0] != inserted {
		t.Fatal("SetProb after Insert copied the lineage-probability table again")
	}
	if got := []float64{c.varProb[0], c.varProb[2]}; got[0] != 0.75 || got[1] != 0.125 {
		t.Fatalf("clone probabilities %v, want [0.75 0.125]", got)
	}
	if !slices.Equal(db.varProb, parent) {
		t.Fatalf("parent table changed: %v, was %v", db.varProb, parent)
	}
}
