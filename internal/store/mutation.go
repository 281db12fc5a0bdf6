package store

import (
	"fmt"

	"lapushdb"
)

// Mutation op names. A WAL record is a batch of these; the same encoding
// travels over POST /v1/ingest.
const (
	// OpCreateRelation adds a relation (Rel, Cols, Deterministic, Key).
	OpCreateRelation = "create_relation"
	// OpInsert adds one tuple (Rel, Tuple, P; P defaults to 1 for
	// deterministic relations and is required otherwise).
	OpInsert = "insert"
	// OpSetProb updates the probability of the first tuple equal to
	// Tuple (Rel, Tuple, P).
	OpSetProb = "set_prob"
	// OpDelete removes the first tuple equal to Tuple (Rel, Tuple).
	OpDelete = "delete"
	// OpScaleProbs multiplies every probabilistic tuple's probability by
	// Factor in (0, 1] — the paper's probability-scaling knob
	// (Proposition 21) as an online operation.
	OpScaleProbs = "scale_probs"
)

// Mutation is one element of a mutation batch. Tuples are addressed by
// their external string values, exactly as they appear in CSV input:
// numeric-looking strings encode as integers, everything else interns
// into the string dictionary, so a tuple inserted from a CSV row and a
// tuple addressed by a mutation resolve identically.
type Mutation struct {
	// Op selects the mutation kind (see the Op* constants).
	Op string `json:"op"`
	// Rel names the target relation (every op except scale_probs).
	Rel string `json:"rel,omitempty"`
	// Cols names the new relation's attribute columns (create_relation).
	Cols []string `json:"cols,omitempty"`
	// Deterministic marks the new relation's tuples as all certain
	// (create_relation).
	Deterministic bool `json:"deterministic,omitempty"`
	// Key optionally declares the new relation's primary key columns
	// (create_relation).
	Key []string `json:"key,omitempty"`
	// Tuple holds the external string values addressing or defining a
	// tuple (insert, set_prob, delete). Duplicate tuples resolve to the
	// first occurrence.
	Tuple []string `json:"tuple,omitempty"`
	// P is the tuple probability in [0, 1] (insert, set_prob). Optional
	// for inserts into deterministic relations, where it must be 1.
	P *float64 `json:"p,omitempty"`
	// Factor is the global probability scale factor in (0, 1]
	// (scale_probs).
	Factor float64 `json:"factor,omitempty"`
}

// applyMutation validates and applies one mutation to db. Validation is
// strict enough that no engine-level panic is reachable from a
// mutation, however malformed: panics would poison WAL replay.
func applyMutation(db *lapushdb.DB, m Mutation) error {
	switch m.Op {
	case OpCreateRelation:
		if m.Rel == "" {
			return fmt.Errorf("missing relation name")
		}
		if len(m.Cols) == 0 {
			return fmt.Errorf("relation %s needs at least one column", m.Rel)
		}
		for _, k := range m.Key {
			if !contains(m.Cols, k) {
				return fmt.Errorf("key column %q is not a column of %s", k, m.Rel)
			}
		}
		var (
			r   *lapushdb.Relation
			err error
		)
		if m.Deterministic {
			r, err = db.CreateDeterministicRelation(m.Rel, m.Cols...)
		} else {
			r, err = db.CreateRelation(m.Rel, m.Cols...)
		}
		if err != nil {
			return err
		}
		if len(m.Key) > 0 {
			r.SetKey(m.Key...)
		}
		return nil

	case OpInsert:
		r := db.Relation(m.Rel)
		if r == nil {
			return fmt.Errorf("unknown relation %q", m.Rel)
		}
		p := 1.0
		if m.P != nil {
			p = *m.P
		} else if !r.Deterministic() {
			return fmt.Errorf("insert into %s requires a probability", m.Rel)
		}
		return r.Insert(p, anyValues(m.Tuple)...)

	case OpSetProb:
		r, i, err := findTuple(db, m)
		if err != nil {
			return err
		}
		if m.P == nil {
			return fmt.Errorf("set_prob on %s requires a probability", m.Rel)
		}
		return r.SetProbAt(i, *m.P)

	case OpDelete:
		r, i, err := findTuple(db, m)
		if err != nil {
			return err
		}
		return r.DeleteAt(i)

	case OpScaleProbs:
		return db.ScaleProbs(m.Factor)

	default:
		return fmt.Errorf("unknown mutation op %q", m.Op)
	}
}

// findTuple resolves the relation and row index a tuple-addressed
// mutation targets.
func findTuple(db *lapushdb.DB, m Mutation) (*lapushdb.Relation, int, error) {
	r := db.Relation(m.Rel)
	if r == nil {
		return nil, 0, fmt.Errorf("unknown relation %q", m.Rel)
	}
	i, ok := r.Find(anyValues(m.Tuple)...)
	if !ok {
		return nil, 0, fmt.Errorf("no tuple %v in %s", m.Tuple, m.Rel)
	}
	return r, i, nil
}

// applyBatch applies a mutation batch in order, stopping at the first
// failure. The caller provides atomicity by applying to a private
// copy-on-write clone and discarding it on error.
func applyBatch(db *lapushdb.DB, muts []Mutation) error {
	for i := range muts {
		if err := applyMutation(db, muts[i]); err != nil {
			return fmt.Errorf("mutation %d (%s): %w", i, muts[i].Op, err)
		}
	}
	return nil
}

func anyValues(tuple []string) []any {
	out := make([]any, len(tuple))
	for i, s := range tuple {
		out[i] = s
	}
	return out
}

func contains(ss []string, s string) bool {
	for _, c := range ss {
		if c == s {
			return true
		}
	}
	return false
}
