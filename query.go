package lapushdb

import (
	"context"
	"fmt"

	"lapushdb/internal/cq"
)

// QueryBuilder constructs a conjunctive query programmatically — the
// type-safe alternative to writing the datalog string. Terms are
// strings: names registered with Var become variables, everything else
// is a constant (ints are accepted directly).
//
//	q := lapushdb.NewQuery("q").
//		Head("user").
//		Atom("Likes", "user", "movie").
//		Atom("Stars", "movie", "actor").
//		Atom("Fan", "actor").
//		Where("actor", "!=", "pacino")
//	answers, err := db.RankQuery(ctx, q, nil)
//
// Every identifier used in Head, in Where, or as an atom argument is
// implicitly a variable; use Const to force a string constant that
// collides with a variable name.
type QueryBuilder struct {
	name   string
	head   []string
	atoms  []builderAtom
	preds  []builderPred
	consts map[string]bool
	err    error
}

type builderAtom struct {
	rel  string
	args []any
}

type builderPred struct {
	v, op string
	c     any
}

// NewQuery starts a query with the given head-predicate name.
func NewQuery(name string) *QueryBuilder {
	return &QueryBuilder{name: name, consts: map[string]bool{}}
}

// Head declares the free (output) variables.
func (b *QueryBuilder) Head(vars ...string) *QueryBuilder {
	b.head = append(b.head, vars...)
	return b
}

// Atom adds a relational atom. Arguments may be strings (variables, or
// constants marked with Const) or ints (constants).
func (b *QueryBuilder) Atom(rel string, args ...any) *QueryBuilder {
	b.atoms = append(b.atoms, builderAtom{rel: rel, args: args})
	return b
}

// Where adds a comparison predicate: op is one of <=, <, >=, >, =, !=,
// like. The constant may be a string or an int.
func (b *QueryBuilder) Where(variable, op string, constant any) *QueryBuilder {
	b.preds = append(b.preds, builderPred{v: variable, op: op, c: constant})
	return b
}

// Const marks a string as a constant for use as an atom argument, even
// if it looks like a variable name.
type Const string

// build assembles the internal query.
func (b *QueryBuilder) build() (*cq.Query, error) {
	if b.err != nil {
		return nil, b.err
	}
	q := &cq.Query{Name: b.name}
	for _, h := range b.head {
		q.Head = append(q.Head, cq.Var(h))
	}
	for _, a := range b.atoms {
		atom := cq.Atom{Rel: a.rel}
		for _, arg := range a.args {
			switch t := arg.(type) {
			case Const:
				atom.Args = append(atom.Args, cq.C(string(t)))
			case string:
				atom.Args = append(atom.Args, cq.V(t))
			case int:
				atom.Args = append(atom.Args, cq.C(fmt.Sprint(t)))
			case int64:
				atom.Args = append(atom.Args, cq.C(fmt.Sprint(t)))
			default:
				return nil, fmt.Errorf("lapushdb: unsupported atom argument type %T", arg)
			}
		}
		q.Atoms = append(q.Atoms, atom)
	}
	for _, p := range b.preds {
		var op cq.CompareOp
		switch p.op {
		case "<=":
			op = cq.OpLE
		case "<":
			op = cq.OpLT
		case ">=":
			op = cq.OpGE
		case ">":
			op = cq.OpGT
		case "=", "==":
			op = cq.OpEQ
		case "!=", "<>":
			op = cq.OpNE
		case "like", "LIKE":
			op = cq.OpLike
		default:
			return nil, fmt.Errorf("lapushdb: unknown comparison operator %q", p.op)
		}
		var c string
		switch t := p.c.(type) {
		case string:
			c = t
		case Const:
			c = string(t)
		case int:
			c = fmt.Sprint(t)
		case int64:
			c = fmt.Sprint(t)
		default:
			return nil, fmt.Errorf("lapushdb: unsupported predicate constant type %T", p.c)
		}
		q.Preds = append(q.Preds, cq.Predicate{Var: cq.Var(p.v), Op: op, Const: c})
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// String renders the built query in datalog notation (empty on build
// errors).
func (b *QueryBuilder) String() string {
	q, err := b.build()
	if err != nil {
		return ""
	}
	return q.String()
}

// RankQuery is RankContext for a programmatically built query.
func (d *DB) RankQuery(ctx context.Context, b *QueryBuilder, opts *Options) ([]Answer, error) {
	q, err := b.build()
	if err != nil {
		return nil, err
	}
	return d.RankContext(ctx, q.String(), opts)
}

// ExplainQuery is ExplainContext for a programmatically built query.
func (d *DB) ExplainQuery(ctx context.Context, b *QueryBuilder, opts ...*Options) (*Explanation, error) {
	q, err := b.build()
	if err != nil {
		return nil, err
	}
	return d.ExplainContext(ctx, q.String(), opts...)
}
