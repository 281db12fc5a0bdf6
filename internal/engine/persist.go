package engine

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// snapshot is the serialized form of a database. All fields are exported
// for encoding/gob; the format is versioned so later releases can evolve
// it.
type snapshot struct {
	Version   int
	Strings   []string
	VarProb   []float64
	Order     []string
	Relations []relationSnapshot
}

type relationSnapshot struct {
	Name          string
	Cols          []string
	Deterministic bool
	Key           []int
	Rows          []Value
	Prob          []float64
	Vars          []int32
}

const snapshotVersion = 1

// Save writes the database to w in a binary snapshot format readable by
// Load. A relation stores each tuple once, so Rows and Prob are decoded
// here: Rows from the value ids, Prob from the lineage variables (1 for
// a deterministic tuple).
func (db *DB) Save(w io.Writer) error {
	s := snapshot{
		Version: snapshotVersion,
		Strings: db.strs,
		VarProb: db.varProb,
		Order:   db.order,
	}
	for _, name := range db.order {
		r := db.rels[name]
		rows := make([]Value, len(r.vids))
		for i, id := range r.vids {
			rows[i] = db.vals[id]
		}
		prob := make([]float64, r.n)
		for i := range prob {
			prob[i] = r.Prob(i)
		}
		s.Relations = append(s.Relations, relationSnapshot{
			Name:          r.Name,
			Cols:          r.Cols,
			Deterministic: r.Deterministic,
			Key:           r.Key,
			Rows:          rows,
			Prob:          prob,
			Vars:          r.vars,
		})
	}
	return gob.NewEncoder(w).Encode(s)
}

// Load reads a database snapshot written by Save. A probabilistic
// tuple's Prob must equal its lineage variable's VarProb, since the
// database keeps only the latter. A deterministic relation's Prob values
// are not read (its tuples are certain): a snapshot saved while scaling
// also scaled them still opens.
func Load(r io.Reader) (*DB, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("engine: load snapshot: %w", err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("engine: unsupported snapshot version %d (this build reads version %d)", s.Version, snapshotVersion)
	}
	for _, p := range s.VarProb {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return nil, fmt.Errorf("engine: lineage variable probability %v out of [0, 1]", p)
		}
	}
	db := NewDB()
	db.strs = s.Strings
	db.varProb = s.VarProb
	db.order = s.Order
	for i, str := range s.Strings {
		db.strIDs[str] = Value(-int64(i) - 1)
	}
	// Save writes the relations in Order, once each; anything else would
	// re-save differently.
	if len(s.Order) != len(s.Relations) {
		return nil, fmt.Errorf("engine: snapshot orders %d relations but holds %d", len(s.Order), len(s.Relations))
	}
	for k, rs := range s.Relations {
		if _, ok := db.rels[rs.Name]; ok || rs.Name != s.Order[k] {
			return nil, fmt.Errorf("engine: relation %s is repeated or out of order in snapshot", rs.Name)
		}
		n := len(rs.Prob)
		if len(rs.Rows) != n*len(rs.Cols) {
			return nil, fmt.Errorf("engine: relation %s has %d values but %d probabilities for arity %d", rs.Name, len(rs.Rows), n, len(rs.Cols))
		}
		if !rs.Deterministic && len(rs.Vars) != n {
			return nil, fmt.Errorf("engine: relation %s has %d tuples but %d lineage variables", rs.Name, n, len(rs.Vars))
		}
		rel := &Relation{
			Name:          rs.Name,
			Cols:          rs.Cols,
			Deterministic: rs.Deterministic,
			Key:           rs.Key,
			db:            db,
			n:             n,
			vids:          make([]int32, len(rs.Rows)),
		}
		for i, v := range rs.Rows {
			if v < 0 && int(-v-1) >= len(s.Strings) {
				return nil, fmt.Errorf("engine: relation %s references string %d beyond dictionary size %d", rs.Name, -v-1, len(s.Strings))
			}
			rel.vids[i] = db.noteValue(v)
		}
		if !rs.Deterministic {
			for i, id := range rs.Vars {
				if int(id) >= len(s.VarProb) || id < 0 {
					return nil, fmt.Errorf("engine: relation %s references unknown lineage variable %d", rs.Name, id)
				}
				if p := rs.Prob[i]; math.IsNaN(p) || p < 0 || p > 1 {
					return nil, fmt.Errorf("engine: relation %s has probability %v out of [0, 1]", rs.Name, p)
				} else if p != s.VarProb[id] {
					return nil, fmt.Errorf("engine: relation %s tuple %d has probability %v but its lineage variable %d has %v", rs.Name, i, p, id, s.VarProb[id])
				}
			}
			rel.vars = rs.Vars
		}
		db.rels[rs.Name] = rel
	}
	return db, nil
}
