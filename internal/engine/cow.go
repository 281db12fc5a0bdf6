package engine

// Copy-on-write cloning. CloneCOW backs the versioned store: a single
// serialized applier builds the next database version as a cheap copy
// that shares storage with the published one, while any number of
// queries keep reading the published version lock-free.
//
// Sharing discipline:
//
//   - Slices are shared with their capacity clamped to their length, so
//     every append on the clone reallocates instead of writing into the
//     shared backing array. Appends on the (frozen) parent beyond the
//     clone's length would not be visible to the clone either, but the
//     contract is stronger: once cloned, the parent must not be mutated
//     at all (the store only mutates the newest, still-private clone).
//   - The string dictionary and value-id maps are shared until the
//     clone's first write (a new string or value), at which point they
//     are copied in full — probability-only batches never pay for them.
//     The id-to-value slice is append-only and shared capacity-clamped.
//   - The lineage-probability table varProb is the one copy of every
//     tuple probability. In-place writes (SetProb, ScaleProbs) copy it
//     first unless an append (Insert) has already reallocated it, which
//     clears its copy-on-write flag.
//   - Deletions rebuild the relation's value ids and lineage variables
//     into fresh arrays.

// clampCap returns s with its capacity clamped to its length, so that
// appending to the result always reallocates. nil stays nil.
func clampCap[T any](s []T) []T {
	if s == nil {
		return nil
	}
	return s[:len(s):len(s)]
}

// CloneCOW returns a copy of the database that shares storage with the
// receiver as described above. The receiver must be treated as frozen
// for mutation afterwards; both copies remain safe to read (and the
// clone safe to mutate) concurrently.
func (db *DB) CloneCOW() *DB {
	c := &DB{
		rels:       make(map[string]*Relation, len(db.rels)),
		order:      clampCap(db.order),
		strs:       clampCap(db.strs),
		strIDs:     db.strIDs,
		varProb:    clampCap(db.varProb),
		valIDs:     db.valIDs,
		vals:       clampCap(db.vals),
		cowDicts:   true,
		cowVarProb: true,
	}
	for name, r := range db.rels {
		c.rels[name] = &Relation{
			Name:          r.Name,
			Cols:          clampCap(r.Cols),
			Deterministic: r.Deterministic,
			Key:           clampCap(r.Key),
			db:            c,
			n:             r.n,
			vids:          clampCap(r.vids),
			vars:          clampCap(r.vars),
		}
	}
	return c
}

// ensureOwnedDicts copies the shared string and value dictionaries
// before the first write on a copy-on-write clone.
func (db *DB) ensureOwnedDicts() {
	if !db.cowDicts {
		return
	}
	strIDs := make(map[string]Value, len(db.strIDs)+1)
	for s, id := range db.strIDs {
		strIDs[s] = id
	}
	valIDs := make(map[Value]int32, len(db.valIDs)+1)
	for v, id := range db.valIDs {
		valIDs[v] = id
	}
	db.strIDs, db.valIDs = strIDs, valIDs
	db.cowDicts = false
}

// ensureOwnedVarProb copies the shared lineage-probability table before
// an in-place write.
func (db *DB) ensureOwnedVarProb() {
	if !db.cowVarProb {
		return
	}
	db.varProb = append(make([]float64, 0, len(db.varProb)), db.varProb...)
	db.cowVarProb = false
}

// LookupConst resolves an external value to its interned form without
// mutating the dictionary. ok is false when the value is a string that
// occurs nowhere in the database (it can match no stored tuple).
func (db *DB) LookupConst(lit string) (Value, bool) {
	v := db.lookupConst(lit)
	return v, v != noValue
}

// FindRow returns the index of the first tuple equal to the given
// values, or -1. Duplicate tuples (same values, distinct lineage
// variables) resolve to the first occurrence. It compares value ids and
// assigns none: a value without one is stored nowhere and matches
// nothing.
func (r *Relation) FindRow(tuple []Value) int {
	a := len(r.Cols)
	if len(tuple) != a {
		return -1
	}
	ids := make([]int32, a)
	for j, v := range tuple {
		id, ok := r.db.valIDs[v]
		if !ok {
			return -1
		}
		ids[j] = id
	}
outer:
	for i := 0; i < r.n; i++ {
		row := r.vidRow(i)
		for j := range row {
			if row[j] != ids[j] {
				continue outer
			}
		}
		return i
	}
	return -1
}

// DeleteRow removes the i-th tuple, rebuilding the relation's storage
// into fresh arrays (copy-on-write safe); row ids past i shift down. The
// tuple's lineage variable id stays allocated but unreferenced, so
// variable-id assignment — and with it WAL replay — remains
// deterministic.
func (r *Relation) DeleteRow(i int) {
	a := len(r.Cols)
	if i < 0 || i >= r.n {
		panic("engine: DeleteRow index out of range")
	}
	vids := make([]int32, 0, (r.n-1)*a)
	vids = append(vids, r.vids[:i*a]...)
	r.vids = append(vids, r.vids[(i+1)*a:]...)
	r.n--
	if !r.Deterministic {
		vars := make([]int32, 0, r.n)
		vars = append(vars, r.vars[:i]...)
		r.vars = append(vars, r.vars[i+1:]...)
	}
}
