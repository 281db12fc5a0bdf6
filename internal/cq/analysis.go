package cq

import (
	"fmt"
	"math/bits"
	"sort"
)

// IsHierarchical reports whether the query is hierarchical (Definition 1):
// for any two existential variables x, y, the sets of atoms containing them
// are nested or disjoint. Head variables are ignored — the test treats them
// as constants, which matches the evaluation of non-Boolean queries.
func (q *Query) IsHierarchical() bool {
	evars := q.EVars()
	// atomsOf[x] is the set of atom indices containing x.
	atomsOf := make(map[Var]map[int]bool, len(evars))
	for _, x := range evars {
		atomsOf[x] = map[int]bool{}
	}
	head := q.HeadSet()
	for i, a := range q.Atoms {
		for _, v := range a.Vars() {
			if !head.Has(v) {
				atomsOf[v][i] = true
			}
		}
	}
	for i := 0; i < len(evars); i++ {
		for j := i + 1; j < len(evars); j++ {
			ax, ay := atomsOf[evars[i]], atomsOf[evars[j]]
			if !nestedOrDisjoint(ax, ay) {
				return false
			}
		}
	}
	return true
}

func nestedOrDisjoint(a, b map[int]bool) bool {
	common, aOnly, bOnly := false, false, false
	for i := range a {
		if b[i] {
			common = true
		} else {
			aOnly = true
		}
	}
	for i := range b {
		if !a[i] {
			bOnly = true
		}
	}
	return !common || !aOnly || !bOnly
}

// SeparatorVars returns the separator (root) variables of the query: the
// existential variables that occur in every atom.
func (q *Query) SeparatorVars() VarSet {
	out := VarSet{}
	head := q.HeadSet()
	for _, v := range q.Vars() {
		if head.Has(v) {
			continue
		}
		in := true
		for _, a := range q.Atoms {
			if !a.HasVar(v) {
				in = false
				break
			}
		}
		if in {
			out.Add(v)
		}
	}
	return out
}

// maxWidth is the most atoms, and the most variables, a query may have:
// Bits numbers each in one 64-bit mask.
const maxWidth = 64

// CheckWidth reports an error when q has more atoms or more variables
// than maxWidth, which the mask analyses below cannot number.
func (q *Query) CheckWidth() error {
	if n := len(q.Atoms); n > maxWidth {
		return fmt.Errorf("cq: query %s has %d atoms; at most %d are supported", q.Name, n, maxWidth)
	}
	args := 0
	for _, a := range q.Atoms {
		args += len(a.Args)
	}
	if args <= maxWidth {
		return nil // too few argument positions to hold too many variables
	}
	if n := len(q.Vars()); n > maxWidth {
		return fmt.Errorf("cq: query %s has %d variables; at most %d are supported", q.Name, n, maxWidth)
	}
	return nil
}

// Bits is the bitmask view of a query that the structural analyses run
// on. Atoms are numbered by body position and variables in name order,
// so a sub-query of q — some of its atoms, with some of their variables
// acting as constants — is a pair of masks: an atom mask and a mask of
// the variables read as constants (the sub-query's head). Two sub-queries
// with the same masks are the same sub-query, whatever order their head
// variables were added in.
type Bits struct {
	q        *Query
	vars     []Var    // bit i of a variable mask is vars[i]
	atomVars []uint64 // atomVars[i]: the variables of atom i
	varAtoms []uint64 // varAtoms[i]: the atoms containing vars[i]
}

// NewBits numbers q's atoms and variables. It panics when q fails
// CheckWidth.
func NewBits(q *Query) *Bits {
	if err := q.CheckWidth(); err != nil {
		panic(err.Error())
	}
	b := &Bits{q: q, vars: q.Vars()}
	sort.Slice(b.vars, func(i, j int) bool { return b.vars[i] < b.vars[j] })
	b.atomVars = make([]uint64, len(q.Atoms))
	b.varAtoms = make([]uint64, len(b.vars))
	for i, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				v := b.index(t.Var)
				b.atomVars[i] |= 1 << v
				b.varAtoms[v] |= 1 << i
			}
		}
	}
	return b
}

func (b *Bits) index(v Var) int {
	return sort.Search(len(b.vars), func(i int) bool { return b.vars[i] >= v })
}

// bit returns the mask of variable v, or 0 when the query lacks it.
func (b *Bits) bit(v Var) uint64 {
	if i := b.index(v); i < len(b.vars) && b.vars[i] == v {
		return 1 << i
	}
	return 0
}

// Query returns the numbered query.
func (b *Bits) Query() *Query { return b.q }

// AllAtoms returns the mask of every atom of the query.
func (b *Bits) AllAtoms() uint64 { return 1<<len(b.q.Atoms) - 1 }

// VarMask returns the mask of the given variables; variables the query
// does not have are ignored.
func (b *Bits) VarMask(vs []Var) uint64 {
	var m uint64
	for _, v := range vs {
		m |= b.bit(v)
	}
	return m
}

// VarsOf returns the mask of the variables of the given atoms.
func (b *Bits) VarsOf(atoms uint64) uint64 {
	var m uint64
	for ; atoms != 0; atoms &= atoms - 1 {
		m |= b.atomVars[bits.TrailingZeros64(atoms)]
	}
	return m
}

// VarList returns the variables of a mask, in name order.
func (b *Bits) VarList(vars uint64) []Var {
	out := make([]Var, 0, bits.OnesCount64(vars))
	for ; vars != 0; vars &= vars - 1 {
		out = append(out, b.vars[bits.TrailingZeros64(vars)])
	}
	return out
}

// Sub materialises the sub-query (atoms, head): the atoms in body order,
// the head variables in name order, and the predicates on its variables.
func (b *Bits) Sub(atoms, head uint64) *Query {
	return b.sub(atoms, b.VarList(head&b.VarsOf(atoms)))
}

// sub is Sub with the head given as a list, kept in its order but
// restricted to the variables of the atoms.
func (b *Bits) sub(atoms uint64, head []Var) *Query {
	vars := b.VarsOf(atoms)
	out := &Query{Name: b.q.Name}
	for rest := atoms; rest != 0; rest &= rest - 1 {
		out.Atoms = append(out.Atoms, b.q.Atoms[bits.TrailingZeros64(rest)])
	}
	for _, h := range head {
		if vars&b.bit(h) != 0 {
			out.Head = append(out.Head, h)
		}
	}
	for _, p := range b.q.Preds {
		if vars&b.bit(p.Var) != 0 {
			out.Preds = append(out.Preds, p)
		}
	}
	return out
}

// component returns the connected component, within atoms, of the lowest
// atom of atoms: two atoms are connected when they share a variable that
// is not in consts.
func (b *Bits) component(atoms, consts uint64) uint64 {
	comp := atoms & -atoms
	var followed uint64
	for frontier := comp; frontier != 0; {
		vs := b.VarsOf(frontier) &^ (consts | followed)
		followed |= vs
		var reach uint64
		for ; vs != 0; vs &= vs - 1 {
			reach |= b.varAtoms[bits.TrailingZeros64(vs)]
		}
		frontier = reach & atoms &^ comp
		comp |= frontier
	}
	return comp
}

// Components returns the connected components of the given atoms, with
// the variables of consts acting as constants that connect nothing, as
// atom masks ordered by their lowest atom.
func (b *Bits) Components(atoms, consts uint64) []uint64 {
	var out []uint64
	for atoms != 0 {
		c := b.component(atoms, consts)
		out = append(out, c)
		atoms &^= c
	}
	return out
}

// splits reports whether, with consts acting as constants, the given
// atoms fall into at least two components that each meet need.
func (b *Bits) splits(atoms, consts, need uint64) bool {
	n := 0
	for atoms != 0 {
		c := b.component(atoms, consts)
		atoms &^= c
		if c&need != 0 {
			if n++; n == 2 {
				return true
			}
		}
	}
	return false
}

// MinCuts returns the minimal cut-sets of the sub-query (atoms, head)
// (Section 3.2), as variable masks: the minimal sets y of its existential
// variables such that, with y acting as constants too, the atoms fall
// into at least two components that each meet need — every component
// when need holds all the atoms (MinCuts), the probabilistic ones
// (MinPCuts). A sub-query already split that way has the one cut ∅.
//
// Every cut holds the separator variables, the existential variables of
// every atom, since any one left out keeps all the atoms connected. So
// the search grows the separator by the other existential variables,
// one size at a time, and never extends a set that already holds a cut:
// each cut it finds is minimal, and it never lists the 2ⁿ subsets.
func (b *Bits) MinCuts(atoms, head, need uint64) []uint64 {
	if b.component(atoms, head) != atoms {
		if b.splits(atoms, head, need) {
			return []uint64{0}
		}
		return nil
	}
	evars := b.VarsOf(atoms) &^ head
	sep := evars
	for rest := atoms; rest != 0; rest &= rest - 1 {
		sep &= b.atomVars[bits.TrailingZeros64(rest)]
	}
	var free []uint64 // the other existential variables, one bit each
	for m := evars &^ sep; m != 0; m &= m - 1 {
		free = append(free, m&-m)
	}
	var cuts []uint64
	var grow func(from, left int, y uint64)
	grow = func(from, left int, y uint64) {
		for _, c := range cuts {
			if c&^y == 0 {
				return // y and every extension of it hold a cut: not minimal
			}
		}
		if left == 0 {
			if b.splits(atoms, head|y, need) {
				cuts = append(cuts, y)
			}
			return
		}
		for i := from; i <= len(free)-left; i++ {
			grow(i+1, left-1, y|free[i])
		}
	}
	for size := 0; size <= len(free); size++ {
		grow(0, size, sep)
	}
	return cuts
}

// Components partitions the query's atoms into connected components, where
// two atoms are connected when they share an existential variable. Head
// variables act as constants and never connect atoms. Each component is
// returned as a query whose head is the subset of q's head variables that
// occur in it; predicates follow their variable. Components are ordered by
// the first atom position, so the result is deterministic.
func (q *Query) Components() []*Query {
	b := NewBits(q)
	comps := b.Components(b.AllAtoms(), b.VarMask(q.Head))
	out := make([]*Query, len(comps))
	for i, c := range comps {
		out[i] = b.sub(c, q.Head)
	}
	return out
}

// WithHead returns a copy of q whose head variables are replaced by hs.
func (q *Query) WithHead(hs []Var) *Query {
	c := q.Clone()
	c.Head = append([]Var(nil), hs...)
	return c
}

// MinCuts enumerates the minimal cut-sets of the query (Section 3.2): the
// minimal sets y of existential variables such that removing y disconnects
// the query. For a disconnected query it returns {∅}. See Bits.MinCuts.
func (q *Query) MinCuts() []VarSet {
	b := NewBits(q)
	return q.cutSets(b, b.AllAtoms())
}

// MinPCuts is the deterministic-relations variant of MinCuts (Section
// 3.3.1): it keeps only cut-sets that split the query into at least two
// components containing *probabilistic* atoms, where isProb reports whether
// a relation symbol is probabilistic.
func (q *Query) MinPCuts(isProb func(rel string) bool) []VarSet {
	var need uint64
	for i, a := range q.Atoms {
		if isProb(a.Rel) {
			need |= 1 << i
		}
	}
	return q.cutSets(NewBits(q), need)
}

func (q *Query) cutSets(b *Bits, need uint64) []VarSet {
	var out []VarSet
	for _, y := range b.MinCuts(b.AllAtoms(), b.VarMask(q.Head), need) {
		out = append(out, NewVarSet(b.VarList(y)...))
	}
	return out
}

// FD is a functional dependency over query variables, written src → dst.
// FDs arise from schema keys: a key constraint on relation R(x, y) with key
// x contributes the FD {x} → y for every non-key variable y.
type FD struct {
	Src []Var
	Dst Var
}

// Closure computes the closure x⁺ of the variable set x under the given
// FDs.
func Closure(x VarSet, fds []FD) VarSet {
	out := x.Clone()
	for changed := true; changed; {
		changed = false
		for _, fd := range fds {
			if out.Has(fd.Dst) {
				continue
			}
			all := true
			for _, s := range fd.Src {
				if !out.Has(s) {
					all = false
					break
				}
			}
			if all {
				out.Add(fd.Dst)
				changed = true
			}
		}
	}
	return out
}

// KeyFDs derives the FDs contributed by a key declaration on an atom: for
// atom a with key positions keyPos (indices into a.Args), each non-key
// variable of a is functionally determined by the key variables.
func KeyFDs(a Atom, keyPos []int) []FD {
	var src []Var
	for _, i := range keyPos {
		if a.Args[i].IsVar() {
			src = append(src, a.Args[i].Var)
		}
	}
	inKey := NewVarSet(src...)
	var out []FD
	for _, v := range a.Vars() {
		if !inKey.Has(v) {
			out = append(out, FD{Src: src, Dst: v})
		}
	}
	return out
}
