package lapushdb

import (
	"fmt"
	"strconv"

	"lapushdb/internal/engine"
)

// Mutation support for the versioned store (internal/store): a
// copy-on-write clone plus tuple-addressed updates and deletes. The
// store builds each new database version by cloning the published one
// and applying a mutation batch to the private copy.

// CloneCOW returns a copy-on-write copy of the database: storage is
// shared with the receiver until the copy mutates it, so cloning is
// cheap and probability-only updates touch just the probability
// columns. After cloning, the receiver must be treated as frozen for
// mutation; both copies remain safe to read concurrently.
func (d *DB) CloneCOW() *DB { return &DB{db: d.db.CloneCOW()} }

// Deterministic reports whether the relation's tuples are all certain.
func (r *Relation) Deterministic() bool { return r.r.Deterministic }

// Find returns the index of the first tuple equal to the given values
// (string, int, or int64, as in Insert), or ok=false. The lookup is
// read-only: probing for values that occur nowhere never grows the
// string dictionary.
func (r *Relation) Find(values ...any) (int, bool) {
	if len(values) != len(r.r.Cols) {
		return 0, false
	}
	tuple := make([]engine.Value, len(values))
	for i, v := range values {
		ev, ok := r.lookupValue(v)
		if !ok {
			return 0, false
		}
		tuple[i] = ev
	}
	if i := r.r.FindRow(tuple); i >= 0 {
		return i, true
	}
	return 0, false
}

// lookupValue resolves one external value read-only (see engine
// LookupConst); ok=false means the value occurs nowhere in the
// database.
func (r *Relation) lookupValue(v any) (engine.Value, bool) {
	switch t := v.(type) {
	case string:
		return r.db.LookupConst(t)
	case int:
		return r.lookupInt(int64(t))
	case int64:
		return r.lookupInt(t)
	default:
		return 0, false
	}
}

func (r *Relation) lookupInt(i int64) (engine.Value, bool) {
	if i >= 0 {
		return engine.Value(i), true
	}
	return r.db.LookupConst(strconv.FormatInt(i, 10))
}

// SetProbAt updates the probability of the i-th tuple (and its lineage
// variable). Deterministic relations reject updates.
func (r *Relation) SetProbAt(i int, p float64) error {
	if r.r.Deterministic {
		return fmt.Errorf("lapushdb: cannot set probability on deterministic relation %s", r.r.Name)
	}
	if i < 0 || i >= r.r.Len() {
		return fmt.Errorf("lapushdb: %s has no tuple %d", r.r.Name, i)
	}
	if err := r.checkProb(p); err != nil {
		return err
	}
	r.r.SetProb(i, p)
	return nil
}

// DeleteAt removes the i-th tuple. The tuple's lineage variable stays
// allocated (unreferenced), keeping variable-id assignment — and WAL
// replay — deterministic.
func (r *Relation) DeleteAt(i int) error {
	if i < 0 || i >= r.r.Len() {
		return fmt.Errorf("lapushdb: %s has no tuple %d", r.r.Name, i)
	}
	r.r.DeleteRow(i)
	return nil
}
