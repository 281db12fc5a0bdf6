// Package plan defines probabilistic query plans (Definition 4 of the
// paper) and their connection to query dissociations (Section 3.2).
//
// A plan is a DAG of scans, duplicate-eliminating projections, natural
// joins, and — for the Opt1 merged plan — per-tuple min nodes. Every node
// carries a fixed-size structural id, hashed from its kind, its own fields
// and its children's ids, so two subplans that differ only in join order
// have the same id, mirroring the paper's convention that
// ⋈[P1, P2] = ⋈[P2, P1]. A Table interns nodes by id: built through one
// table, a subplan that recurs is one node, which is Algorithm 3's views
// in the representation itself. Each node also has a canonical string
// key, rendered only when asked for; join and min children are kept in
// the order of their keys.
//
// Under the extensional score semantics (implemented by internal/engine)
// every plan for a query q computes an upper bound of P(q); the plan is
// exact iff it is safe (every join's children share the same head
// variables).
package plan

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"lapushdb/internal/cq"
)

// Node is a query plan node.
type Node interface {
	// Head returns the node's head variables in sorted order.
	Head() []cq.Var
	// HeadSet returns the node's head variables as a set.
	HeadSet() cq.VarSet
	// ID returns the node's structural id. Two subplans are structurally
	// identical (up to join order) iff their ids match.
	ID() ID
	// Key returns the canonical string form of the subplan, rendered on
	// the first call. Two subplans are structurally identical (up to join
	// order) iff their keys match.
	Key() string
	// Children returns the direct subplans.
	Children() []Node

	meta() *base
}

// ID is a node's 128-bit structural id. Ids are hashed with seeds drawn
// once per process: they agree across queries and tables within one
// process, and mean nothing outside it.
type ID struct{ Hi, Lo uint64 }

var seeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

// Node kinds, the first byte of every id's hash input.
const (
	kindScan byte = 1 + iota
	kindProject
	kindJoin
	kindMin
)

func hashID(b []byte) ID { return ID{maphash.Bytes(seeds[0], b), maphash.Bytes(seeds[1], b)} }

func appendID(b []byte, id ID) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(b, id.Hi), id.Lo)
}

func (a ID) less(b ID) bool { return a.Hi < b.Hi || (a.Hi == b.Hi && a.Lo < b.Lo) }

// base holds what every node kind carries: its id, and once first asked
// for, its key and the sorted relation symbols beneath it.
type base struct {
	id   ID
	key  atomic.Pointer[string]
	rels atomic.Pointer[[]string]
}

func (b *base) meta() *base { return b }

// ID implements Node.
func (b *base) ID() ID { return b.id }

// keyOf returns n's key, rendering and remembering it on the first call.
func (b *base) keyOf(n Node) string {
	if k := b.key.Load(); k != nil {
		return *k
	}
	var sb strings.Builder
	writeKey(&sb, n)
	k := sb.String()
	b.key.Store(&k)
	return k
}

// Table interns plan nodes by id: its constructors return the node
// already built for a shape instead of a copy, so the plans built through
// one table are one DAG. A Table is not safe for concurrent use; the
// nodes it returns are immutable and are. A nil *Table is valid and
// interns nothing: the package-level constructors use it.
type Table struct {
	nodes    map[ID]Node
	stripped map[*cq.Query]map[Node]Node // Strip's memo, per target query
}

// NewTable returns an empty interning table.
func NewTable() *Table { return &Table{nodes: map[ID]Node{}} }

// lookup returns the interned node with the given id, if any.
func (t *Table) lookup(id ID) Node {
	if t == nil {
		return nil
	}
	return t.nodes[id]
}

// intern records a freshly built node.
func (t *Table) intern(n Node) Node {
	if t != nil {
		t.nodes[n.ID()] = n
	}
	return n
}

// Scan reads one relational atom, applying any pushed-down predicates and
// constant selections. Its head variables are the variables of the atom.
type Scan struct {
	base
	Atom  cq.Atom
	Preds []cq.Predicate
	head  []cq.Var
	text  string // the key, built with the scan: it is short
}

// NewScan builds a scan of the given atom with pushed-down predicates.
func NewScan(atom cq.Atom, preds []cq.Predicate) *Scan { return (*Table)(nil).NewScan(atom, preds) }

// NewScan is the interning form of the package-level NewScan.
func (t *Table) NewScan(atom cq.Atom, preds []cq.Predicate) *Scan {
	var b strings.Builder
	b.WriteString(atom.String())
	if len(preds) > 0 {
		ps := make([]string, len(preds))
		for i, p := range preds {
			ps[i] = p.String()
		}
		sort.Strings(ps)
		b.WriteString("[" + strings.Join(ps, " and ") + "]")
	}
	key := b.String()
	id := hashID(append([]byte{kindScan}, key...))
	if n := t.lookup(id); n != nil {
		return n.(*Scan)
	}
	s := &Scan{Atom: atom, Preds: preds, text: key}
	s.id = id
	s.head = append([]cq.Var(nil), atom.Vars()...)
	slices.Sort(s.head)
	t.intern(s)
	return s
}

// Head implements Node.
func (s *Scan) Head() []cq.Var { return s.head }

// HeadSet implements Node.
func (s *Scan) HeadSet() cq.VarSet { return cq.NewVarSet(s.head...) }

// Key implements Node.
func (s *Scan) Key() string { return s.text }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Project is the probabilistic duplicate-eliminating projection π^p onto
// the variables OnTo. Duplicates are combined as independent events:
// score(t) = 1 − ∏(1 − score(ti)).
type Project struct {
	base
	OnTo   []cq.Var
	Child  Node
	prefix string // the key up to the child's: "π{" + OnTo + "}("
}

// NewProject builds a projection of child onto the variables onto. If the
// projection is trivial (onto equals the child's head) the child itself is
// returned, which keeps plans in the alternating join/projection normal
// form of Definition 4.
func NewProject(onto []cq.Var, child Node) Node { return (*Table)(nil).NewProject(onto, child) }

// NewProject is the interning form of the package-level NewProject.
func (t *Table) NewProject(onto []cq.Var, child Node) Node {
	hs, owned := onto, false
	if !sortedUnique(hs) {
		hs, owned = append([]cq.Var(nil), onto...), true
		slices.Sort(hs)
		hs = dedupVars(hs)
	}
	if varsEqual(hs, child.Head()) {
		return child
	}
	var buf [128]byte
	in := appendID(append(buf[:0], kindProject), child.ID())
	for _, v := range hs {
		in = append(append(in, v...), 0)
	}
	id := hashID(in)
	if n := t.lookup(id); n != nil {
		return n
	}
	if !owned {
		hs = append([]cq.Var(nil), hs...) // the node must not alias the caller's slice
	}
	p := &Project{OnTo: hs, Child: child, prefix: "π{" + joinVars(hs) + "}("}
	p.id = id
	return t.intern(p)
}

// Head implements Node.
func (p *Project) Head() []cq.Var { return p.OnTo }

// HeadSet implements Node.
func (p *Project) HeadSet() cq.VarSet { return cq.NewVarSet(p.OnTo...) }

// Key implements Node.
func (p *Project) Key() string { return p.keyOf(p) }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// Away returns the variables the projection removes, i.e. the child's head
// variables that are not kept. Used for the paper's project-away notation.
func (p *Project) Away() []cq.Var {
	keep := p.HeadSet()
	var out []cq.Var
	for _, v := range p.Child.Head() {
		if !keep.Has(v) {
			out = append(out, v)
		}
	}
	return out
}

// Join is the k-ary natural join ⋈^p[P1, ..., Pk]; the score of a joined
// tuple is the product of the children's scores. Children are stored
// sorted by canonical key.
type Join struct {
	base
	Subs []Node
	head []cq.Var
}

// NewJoin builds a join. Nested joins are flattened and children sorted by
// key, producing the canonical form. A single-child join collapses to the
// child.
func NewJoin(children ...Node) Node { return (*Table)(nil).NewJoin(children...) }

// NewJoin is the interning form of the package-level NewJoin.
func (t *Table) NewJoin(children ...Node) Node {
	flat := children
	for _, c := range children {
		if _, ok := c.(*Join); ok {
			flat = nil
			for _, c := range children {
				if j, ok := c.(*Join); ok {
					flat = append(flat, j.Subs...)
				} else {
					flat = append(flat, c)
				}
			}
			break
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	id := listID(kindJoin, flat)
	if n := t.lookup(id); n != nil {
		return n
	}
	j := &Join{Subs: append([]Node(nil), flat...)}
	j.id = id
	SortByKey(j.Subs)
	for _, c := range j.Subs {
		j.head = append(j.head, c.Head()...)
	}
	slices.Sort(j.head)
	j.head = dedupVars(j.head)
	return t.intern(j)
}

// Head implements Node.
func (j *Join) Head() []cq.Var { return j.head }

// HeadSet implements Node.
func (j *Join) HeadSet() cq.VarSet { return cq.NewVarSet(j.head...) }

// Key implements Node.
func (j *Join) Key() string { return j.keyOf(j) }

// Children implements Node.
func (j *Join) Children() []Node { return j.Subs }

// Min combines alternative subplans with identical heads by keeping, for
// every output tuple, the minimum score over the alternatives. It is the
// operator Opt1 (Algorithm 2) pushes into the plan to merge all minimal
// plans into a single one.
type Min struct {
	base
	Subs []Node
}

// NewMin builds a min node over alternatives that must all have the same
// head variables. Nested mins are flattened and duplicate alternatives
// (same id) removed; a single remaining alternative collapses to itself.
func NewMin(children ...Node) Node { return (*Table)(nil).NewMin(children...) }

// NewMin is the interning form of the package-level NewMin.
func (t *Table) NewMin(children ...Node) Node {
	var uniq []Node
	add := func(c Node) {
		for _, u := range uniq {
			if u.ID() == c.ID() {
				return
			}
		}
		uniq = append(uniq, c)
	}
	for _, c := range children {
		if m, ok := c.(*Min); ok {
			for _, cc := range m.Subs {
				add(cc)
			}
		} else {
			add(c)
		}
	}
	switch len(uniq) {
	case 0:
		panic("plan: min over no alternatives")
	case 1:
		return uniq[0]
	}
	for _, c := range uniq[1:] {
		if !varsEqual(c.Head(), uniq[0].Head()) {
			panic(fmt.Sprintf("plan: min over different heads %v vs %v", uniq[0].Head(), c.Head()))
		}
	}
	id := listID(kindMin, uniq)
	if n := t.lookup(id); n != nil {
		return n
	}
	SortByKey(uniq)
	m := &Min{Subs: uniq}
	m.id = id
	return t.intern(m)
}

// Head implements Node.
func (m *Min) Head() []cq.Var { return m.Subs[0].Head() }

// HeadSet implements Node.
func (m *Min) HeadSet() cq.VarSet { return m.Subs[0].HeadSet() }

// Key implements Node.
func (m *Min) Key() string { return m.keyOf(m) }

// Children implements Node.
func (m *Min) Children() []Node { return m.Subs }

// listID hashes a join's or min's kind with its children's ids in id
// order, so the id does not depend on the order the children came in.
func listID(kind byte, subs []Node) ID {
	var idBuf [16]ID
	ids := idBuf[:0]
	for _, c := range subs {
		id := c.ID()
		i := len(ids)
		ids = append(ids, id)
		for ; i > 0 && id.less(ids[i-1]); i-- {
			ids[i] = ids[i-1]
		}
		ids[i] = id
	}
	var buf [1 + 16*16]byte
	in := append(buf[:0], kind)
	for _, id := range ids {
		in = appendID(in, id)
	}
	return hashID(in)
}

// IsSafe reports whether the plan is safe (Definition 5): every join's
// children have pairwise equal head variables. Safe plans compute the
// exact query probability (Proposition 6). The query's head variables act
// as per-answer constants, so children may differ on them; pass the
// query's head set (or nil for a Boolean query's plan).
func IsSafe(n Node, head cq.VarSet) bool {
	safe := true
	walk(n, func(n Node) bool {
		if j, ok := n.(*Join); ok {
			first := j.Subs[0].HeadSet().Minus(head)
			for _, c := range j.Subs[1:] {
				if !c.HeadSet().Minus(head).Equal(first) {
					safe = false
				}
			}
		}
		return safe
	})
	return safe
}

// Relations returns the relation symbols of all atoms beneath the node, in
// sorted order. Each node computes them once, from its children's, and
// keeps them, so all calls together do one step per distinct node. The
// slice is shared and must not be modified.
func Relations(n Node) []string {
	b := n.meta()
	if r := b.rels.Load(); r != nil {
		return *r
	}
	var out []string
	switch t := n.(type) {
	case *Scan:
		out = []string{t.Atom.Rel}
	case *Project:
		out = Relations(t.Child)
	default:
		for _, c := range n.Children() {
			out = append(out, Relations(c)...)
		}
		sort.Strings(out)
		out = slices.Compact(out)
	}
	if visitHook != nil {
		visitHook(n)
	}
	b.rels.Store(&out)
	return out
}

// Atoms returns the distinct scan atoms beneath the node.
func Atoms(n Node) []cq.Atom {
	var out []cq.Atom
	walk(n, func(n Node) bool {
		if s, ok := n.(*Scan); ok {
			out = append(out, s.Atom)
		}
		return true
	})
	return out
}

// Label returns n's own operator, without its children: a scan's key
// (its atom and any pushed-down predicates), "π-x,y" for a projection
// that removes x and y, "⋈" for a join and "min" for a min node.
func Label(n Node) string {
	switch t := n.(type) {
	case *Scan:
		return t.Key()
	case *Project:
		return "π-" + joinVars(t.Away())
	case *Join:
		return "⋈"
	case *Min:
		return "min"
	default:
		panic("plan: unknown node type")
	}
}

// Use is one distinct node of a plan with the number of parent slots
// that hold it: a node two joins share, or one join holds twice, has 2;
// the root has 0.
type Use struct {
	Node    Node
	Parents int
}

// Distinct returns the distinct nodes of the DAG rooted at n, children
// before their parents, so the root comes last. A non-scan node with two
// or more parents is a view of the paper's Opt2 (Algorithm 3): a subplan
// evaluated once and reused.
func Distinct(n Node) []Use {
	var out []Use
	at := map[ID]int{}
	walk(n, func(n Node) bool {
		for _, c := range n.Children() {
			out[at[c.ID()]].Parents++
		}
		at[n.ID()] = len(out)
		out = append(out, Use{Node: n})
		return true
	})
	return out
}

// String renders the plan in the paper's project-away notation, e.g.
// "π-x ⋈[R(x), S(x), π-y ⋈[T(x, y), U(y)]]". Each view (see Distinct) is
// named once, children first, and referred to by its name after that:
// "v1 = π-y ⋈[T(x, y), U(y)]; min[⋈[R(x), v1], ⋈[S(x), v1]]". The text
// is linear in the plan's distinct nodes and their child slots, however
// large the tree the DAG unfolds to.
func String(n Node) string {
	var b strings.Builder
	names := map[ID]string{}
	var write func(Node)
	write = func(n Node) {
		if name, ok := names[n.ID()]; ok {
			b.WriteString(name)
			return
		}
		b.WriteString(Label(n))
		switch t := n.(type) {
		case *Project:
			b.WriteByte(' ')
			write(t.Child)
		case *Join, *Min:
			b.WriteByte('[')
			for i, c := range t.Children() {
				if i > 0 {
					b.WriteString(", ")
				}
				write(c)
			}
			b.WriteByte(']')
		}
	}
	views, viewNames := Views(n)
	for _, v := range views {
		name := viewNames[v.ID()]
		b.WriteString(name + " = ")
		write(v)
		b.WriteString("; ")
		names[v.ID()] = name
	}
	write(n)
	return b.String()
}

// Views returns the views of the DAG rooted at n (see Distinct), children
// first, and the name String gives each: v1, v2, … in that order.
func Views(n Node) ([]Node, map[ID]string) {
	var views []Node
	names := map[ID]string{}
	for _, u := range Distinct(n) {
		if _, scan := u.Node.(*Scan); scan || u.Parents < 2 {
			continue
		}
		views = append(views, u.Node)
		names[u.Node.ID()] = "v" + strconv.Itoa(len(views))
	}
	return views, names
}

// visitHook, when set (by tests), sees every node walk visits and every
// node Relations computes.
var visitHook func(Node)

// walk calls visit once per distinct node (by id) of the DAG rooted at n,
// children before their parents, and stops early when visit returns
// false. The walkers of this package go through it (Relations keeps its
// answer per node instead), so none of them unfolds the DAG into its
// tree.
func walk(n Node, visit func(Node) bool) {
	seen := map[ID]bool{}
	var rec func(Node) bool
	rec = func(n Node) bool {
		if seen[n.ID()] {
			return true
		}
		seen[n.ID()] = true
		for _, c := range n.Children() {
			if !rec(c) {
				return false
			}
		}
		if visitHook != nil {
			visitHook(n)
		}
		return visit(n)
	}
	rec(n)
}

func sortedUnique(vs []cq.Var) bool {
	for i := 1; i < len(vs); i++ {
		if vs[i-1] >= vs[i] {
			return false
		}
	}
	return true
}

func dedupVars(vs []cq.Var) []cq.Var {
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || vs[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

func varsEqual(a, b []cq.Var) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func joinVars(vs []cq.Var) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = string(v)
	}
	return strings.Join(parts, ",")
}
