// Package engine is the in-memory relational substrate: tuple-independent
// probabilistic relations, the operators of probabilistic query plans
// (selection scan, k-ary hash join, probabilistic projection, per-tuple
// min), plan evaluation under the extensional score semantics of Section 2
// of the paper, lineage extraction, deterministic evaluation, and the
// deterministic semi-join reduction of Optimization 3.
//
// The paper runs its plans on PostgreSQL / SQL Server; this package plays
// that role so the whole system is self-contained. Values are interned
// int64s: non-negative values are integers, negative values index a
// per-database string dictionary, so joins and group-bys hash machine
// words.
package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Value is an interned attribute value. Non-negative values represent the
// integer itself; negative values are indices into the database's string
// dictionary.
type Value int64

// noValue is the resolution of a query constant that appears nowhere in
// the database: it compares unequal to every stored Value and fails every
// numeric comparison, so scans filter correctly without mutating the
// string dictionary at query time (which would race between concurrent
// queries).
const noValue Value = -1 << 62

// DB is a tuple-independent probabilistic database: a set of relations
// plus a probability per tuple. Every tuple is also a Boolean lineage
// variable, identified by a dense global id.
type DB struct {
	rels    map[string]*Relation
	order   []string
	strs    []string
	strIDs  map[string]Value
	varProb []float64 // probability per lineage variable id

	// valIDs assigns a dense int32 id to every distinct Value stored in
	// any relation, in first-insertion order. Join and group-by keys are
	// built from these ids ([]int32) instead of per-row byte encodings:
	// keys of arity <= 2 pack exactly into one uint64 map key. vals is
	// its inverse, indexed by id: operators carry ids only, and results
	// decode them through vals where they leave the engine.
	valIDs map[Value]int32
	vals   []Value

	// Copy-on-write state (see cow.go). cowDicts marks strIDs/valIDs as
	// shared with the parent of a CloneCOW copy; cowVarProb marks
	// varProb as shared for in-place writes (appends are safe: shared
	// slices are capacity-clamped).
	cowDicts   bool
	cowVarProb bool
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{rels: map[string]*Relation{}, strIDs: map[string]Value{}, valIDs: map[Value]int32{}}
}

// Relation is one probabilistic relation. All tuples of a deterministic
// relation have probability 1 and are not assigned lineage variables.
type Relation struct {
	Name string
	Cols []string
	// Deterministic marks relations whose tuples are all certain.
	Deterministic bool
	// Key lists the positions of the primary key, or nil. Keys contribute
	// functional dependencies to plan enumeration.
	Key []int

	db   *DB
	rows []Value   // flattened: len = arity * count
	vids []int32   // dense value ids, parallel to rows
	prob []float64 // per tuple; nil for deterministic relations
	vars []int32   // lineage variable ids; nil for deterministic relations

	// cowProb marks prob as shared with a CloneCOW parent for in-place
	// writes (see cow.go).
	cowProb bool
}

// CreateRelation adds a probabilistic relation with the given attribute
// names. It panics if the name is taken — schema setup errors are
// programming errors.
func (db *DB) CreateRelation(name string, cols []string) *Relation {
	if _, ok := db.rels[name]; ok {
		panic(fmt.Sprintf("engine: relation %s already exists", name))
	}
	r := &Relation{Name: name, Cols: append([]string(nil), cols...), db: db}
	db.rels[name] = r
	db.order = append(db.order, name)
	return r
}

// CreateDeterministicRelation adds a relation whose tuples are all
// certain (probability 1).
func (db *DB) CreateDeterministicRelation(name string, cols []string) *Relation {
	r := db.CreateRelation(name, cols)
	r.Deterministic = true
	return r
}

// Relation returns the named relation, or nil.
func (db *DB) Relation(name string) *Relation { return db.rels[name] }

// Relations returns all relations in creation order.
func (db *DB) Relations() []*Relation {
	out := make([]*Relation, len(db.order))
	for i, n := range db.order {
		out[i] = db.rels[n]
	}
	return out
}

// VarProbs returns the probability table indexed by lineage variable id.
// The returned slice is shared; callers must not modify it.
func (db *DB) VarProbs() []float64 { return db.varProb }

// ScaleProbs multiplies every tuple probability in the database by f
// (Proposition 21 / the scaling experiments). f must be in (0, 1].
func (db *DB) ScaleProbs(f float64) {
	if !(f > 0 && f <= 1) {
		panic(fmt.Sprintf("engine: scale factor %v out of (0, 1]", f))
	}
	db.ensureOwnedVarProb()
	for _, r := range db.rels {
		r.ensureOwnedProb()
	}
	for i := range db.varProb {
		db.varProb[i] *= f
	}
	for _, r := range db.rels {
		for i := range r.prob {
			r.prob[i] *= f
		}
	}
}

// Clone returns a deep copy of the database (used by experiments that
// scale probabilities without disturbing the original).
func (db *DB) Clone() *DB {
	c := &DB{
		rels:    map[string]*Relation{},
		order:   append([]string(nil), db.order...),
		strs:    append([]string(nil), db.strs...),
		strIDs:  make(map[string]Value, len(db.strIDs)),
		varProb: append([]float64(nil), db.varProb...),
		valIDs:  make(map[Value]int32, len(db.valIDs)),
		vals:    append([]Value(nil), db.vals...),
	}
	for s, id := range db.strIDs {
		c.strIDs[s] = id
	}
	for v, id := range db.valIDs {
		c.valIDs[v] = id
	}
	for name, r := range db.rels {
		c.rels[name] = &Relation{
			Name:          r.Name,
			Cols:          append([]string(nil), r.Cols...),
			Deterministic: r.Deterministic,
			Key:           append([]int(nil), r.Key...),
			db:            c,
			rows:          append([]Value(nil), r.rows...),
			vids:          append([]int32(nil), r.vids...),
			prob:          append([]float64(nil), r.prob...),
			vars:          append([]int32(nil), r.vars...),
		}
	}
	return c
}

// noteValue returns the dense id of v, assigning the next one on first
// sight. Called at insert/load time only; evaluation reads valIDs
// read-only.
func (db *DB) noteValue(v Value) int32 {
	if id, ok := db.valIDs[v]; ok {
		return id
	}
	db.ensureOwnedDicts()
	id := int32(len(db.vals))
	db.valIDs[v] = id
	db.vals = append(db.vals, v)
	return id
}

// Intern returns the Value for a string, adding it to the dictionary if
// needed.
func (db *DB) Intern(s string) Value {
	if id, ok := db.strIDs[s]; ok {
		return id
	}
	db.ensureOwnedDicts()
	id := Value(-int64(len(db.strs)) - 1)
	db.strs = append(db.strs, s)
	db.strIDs[s] = id
	return id
}

// Int returns the Value for an integer. Negative integers are interned
// via their decimal representation to keep the id space unambiguous.
func (db *DB) Int(i int64) Value {
	if i >= 0 {
		return Value(i)
	}
	return db.Intern(strconv.FormatInt(i, 10))
}

// Decode renders a Value back to its external string form.
func (db *DB) Decode(v Value) string {
	if v >= 0 {
		return strconv.FormatInt(int64(v), 10)
	}
	return db.strs[-int64(v)-1]
}

// EncodeConst interns a query constant: numeric literals become integer
// values, everything else dictionary ids. Insert-time only — query
// evaluation resolves constants with lookupConst, which never writes.
func (db *DB) EncodeConst(lit string) Value {
	if i, ok := parseNonNeg(lit); ok {
		return Value(i)
	}
	return db.Intern(lit)
}

// parseNonNeg parses a literal that encodes itself: a base-10 integer
// that is not negative. A literal whose first byte is not a digit, '+'
// or '-' — the bytes strconv.ParseInt accepts first — skips the parse,
// whose failure would allocate its error.
func parseNonNeg(lit string) (int64, bool) {
	if lit == "" || (lit[0] < '0' || lit[0] > '9') && lit[0] != '+' && lit[0] != '-' {
		return 0, false
	}
	i, err := strconv.ParseInt(lit, 10, 64)
	return i, err == nil && i >= 0
}

// lookupConst resolves a query constant read-only: numeric literals
// encode themselves, known strings resolve to their dictionary id, and
// unknown strings resolve to noValue (they can match no stored tuple).
// Scans and predicates use this so concurrent evaluations never mutate
// the dictionary.
func (db *DB) lookupConst(lit string) Value {
	if i, ok := parseNonNeg(lit); ok {
		return Value(i)
	}
	if id, ok := db.strIDs[lit]; ok {
		return id
	}
	return noValue
}

// VarLabels returns a human-readable label for every lineage variable,
// of the form "Rel(v1, v2)". Used to render lineage formulas.
func (db *DB) VarLabels() map[int32]string {
	out := make(map[int32]string, len(db.varProb))
	for _, name := range db.order {
		r := db.rels[name]
		if r.Deterministic {
			continue
		}
		for i := 0; i < r.Len(); i++ {
			row := r.Row(i)
			parts := make([]string, len(row))
			for j, v := range row {
				parts[j] = db.Decode(v)
			}
			out[r.vars[i]] = r.Name + "(" + strings.Join(parts, ", ") + ")"
		}
	}
	return out
}

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.Cols) }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	if len(r.Cols) == 0 {
		return len(r.prob)
	}
	return len(r.rows) / len(r.Cols)
}

// Insert adds one tuple with the given probability. Deterministic
// relations require p == 1. Values must already be encoded via the
// owning database (Intern/Int/EncodeConst). Every check runs before the
// first append, so a refused tuple leaves the relation as it was.
func (r *Relation) Insert(tuple []Value, p float64) {
	if len(tuple) != len(r.Cols) {
		panic(fmt.Sprintf("engine: %s arity %d, got %d values", r.Name, len(r.Cols), len(tuple)))
	}
	if !(p >= 0 && p <= 1) {
		panic(fmt.Sprintf("engine: probability %v out of [0, 1]", p))
	}
	if r.Deterministic && p != 1 {
		panic(fmt.Sprintf("engine: deterministic relation %s requires p = 1", r.Name))
	}
	r.rows = append(r.rows, tuple...)
	for _, v := range tuple {
		r.vids = append(r.vids, r.db.noteValue(v))
	}
	if r.Deterministic {
		r.prob = append(r.prob, 1)
		return
	}
	r.prob = append(r.prob, p)
	id := int32(len(r.db.varProb))
	r.db.varProb = append(r.db.varProb, p)
	r.vars = append(r.vars, id)
}

// Row returns the i-th tuple (a view into internal storage; do not
// modify).
func (r *Relation) Row(i int) []Value {
	a := len(r.Cols)
	return r.rows[i*a : (i+1)*a]
}

// vidRow returns the dense value ids of the i-th tuple (a view; do not
// modify).
func (r *Relation) vidRow(i int) []int32 {
	a := len(r.Cols)
	return r.vids[i*a : (i+1)*a]
}

// Prob returns the probability of the i-th tuple.
func (r *Relation) Prob(i int) float64 { return r.prob[i] }

// VarID returns the lineage variable id of the i-th tuple, or -1 for
// tuples of deterministic relations.
func (r *Relation) VarID(i int) int32 {
	if r.Deterministic {
		return -1
	}
	return r.vars[i]
}

// SetProb updates the probability of the i-th tuple (and its lineage
// variable).
func (r *Relation) SetProb(i int, p float64) {
	if r.Deterministic {
		panic("engine: cannot set probability on a deterministic relation")
	}
	if !(p >= 0 && p <= 1) {
		panic(fmt.Sprintf("engine: probability %v out of [0, 1]", p))
	}
	r.ensureOwnedProb()
	r.db.ensureOwnedVarProb()
	r.prob[i] = p
	r.db.varProb[r.vars[i]] = p
}

// colIndex returns the position of a column by name, or -1.
func (r *Relation) colIndex(name string) int {
	for i, c := range r.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// SetKey declares the primary key by column names. The key contributes
// functional dependencies to plan enumeration (Section 3.3.2).
func (r *Relation) SetKey(cols ...string) {
	// Fresh allocation: Key may share backing storage with a CloneCOW
	// parent, so never truncate-and-append in place.
	r.Key = make([]int, 0, len(cols))
	for _, c := range cols {
		i := r.colIndex(c)
		if i < 0 {
			panic(fmt.Sprintf("engine: relation %s has no column %s", r.Name, c))
		}
		r.Key = append(r.Key, i)
	}
	sort.Ints(r.Key)
}
