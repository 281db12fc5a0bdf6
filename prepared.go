package lapushdb

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/plan"
)

// Method string forms, as accepted by the lapush -method flag and the
// lapushd query API.
var methodNames = map[Method]string{
	Dissociation:  "diss",
	Exact:         "exact",
	MonteCarlo:    "mc",
	LineageSize:   "lineage",
	Deterministic: "sql",
	KarpLuby:      "kl",
}

// String returns the method's canonical short name ("diss", "exact",
// "mc", "kl", "lineage", "sql").
func (m Method) String() string {
	if s, ok := methodNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// MethodNames returns the canonical method names in a stable order.
func MethodNames() []string {
	out := make([]string, 0, len(methodNames))
	for _, s := range methodNames {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// MethodFromString parses a canonical method name. The error message
// lists the valid set.
func MethodFromString(s string) (Method, error) {
	for m, name := range methodNames {
		if s == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("lapushdb: unknown method %q (want one of: %v)", s, MethodNames())
}

// Prepared is a parsed query with its minimal plans and merged single
// plan already enumerated — the expensive lifted-inference step of
// answering a query. A Prepared is immutable and safe for concurrent
// use, which makes it the unit a plan cache stores; it remains valid as
// long as the database's schema (relations, keys, determinism flags)
// does not change.
type Prepared struct {
	q            *cq.Query
	normalized   string
	ignoreSchema bool
	sch          *core.Schema
	plans        []plan.Node
	single       plan.Node
	safe         bool
}

// PrepareContext parses and validates the query and enumerates its
// minimal plans and merged single plan under the database's schema
// knowledge (subject to opts.IgnoreSchema; evaluation-strategy fields are
// ignored), polling ctx at stage boundaries.
func (d *DB) PrepareContext(ctx context.Context, query string, opts *Options) (*Prepared, error) {
	if opts == nil {
		opts = &Options{}
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	q, err := parseChecked(d, query)
	if err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	sch := d.schema(q, opts)
	plans, single := core.Plans(q, sch)
	return &Prepared{
		q:            q,
		normalized:   q.String(),
		ignoreSchema: opts.IgnoreSchema,
		sch:          sch,
		plans:        plans,
		single:       single,
		safe:         core.SafeGiven(q, sch, plans),
	}, nil
}

// Normalized returns the query's canonical rendering — constants,
// predicates and atom order normalized by the parser — suitable as a
// cache-key component.
func (p *Prepared) Normalized() string { return p.normalized }

// NormalizeQuery parses and validates the query and returns its
// canonical rendering, without enumerating plans. Syntactic variants of
// the same query (whitespace, atom order as far as the parser
// canonicalizes) normalize identically, which makes the result the
// right cache-key component for a plan cache.
func (d *DB) NormalizeQuery(query string) (string, error) {
	q, err := parseChecked(d, query)
	if err != nil {
		return "", err
	}
	return q.String(), nil
}

// Safe reports whether the query is safe under the schema knowledge the
// statement was prepared with.
func (p *Prepared) Safe() bool { return p.safe }

// NumPlans returns the number of minimal plans.
func (p *Prepared) NumPlans() int { return len(p.plans) }

// Explanation renders the prepared statement's plans, dissociations,
// and safety — the same payload Explain computes from scratch.
func (p *Prepared) Explanation() *Explanation {
	ex := &Explanation{Safe: p.safe}
	for _, pl := range p.plans {
		ex.Plans = append(ex.Plans, plan.String(pl))
		ex.Dissociations = append(ex.Dissociations, plan.DeltaOf(p.q, pl).String())
	}
	ex.SinglePlan = plan.String(p.single)
	return ex
}

// RankPrepared evaluates a prepared statement, honoring ctx: evaluation
// loops poll the context and return its error (context.Canceled or
// context.DeadlineExceeded) promptly when it is done. Under the
// Dissociation method the pre-enumerated plans are reused, skipping the
// parse and plan-search cost of Rank. Evaluation-strategy options
// (Stats, the optimization toggles) apply per call;
// only IgnoreSchema must match the preparation.
func (d *DB) RankPrepared(ctx context.Context, p *Prepared, opts *Options) ([]Answer, error) {
	if opts == nil {
		opts = &Options{}
	}
	if opts.IgnoreSchema != p.ignoreSchema {
		return nil, fmt.Errorf("lapushdb: statement prepared with IgnoreSchema=%v, ranked with %v", p.ignoreSchema, opts.IgnoreSchema)
	}
	return d.rank(ctx, p.q, p, opts)
}

// RelationInfo describes one relation of the database.
type RelationInfo struct {
	Name          string
	Cols          []string
	Deterministic bool
	Key           []string // key column names, nil when no key is declared
	Tuples        int
}

// RelationInfos lists every relation in creation order.
func (d *DB) RelationInfos() []RelationInfo {
	rels := d.db.Relations()
	out := make([]RelationInfo, len(rels))
	for i, r := range rels {
		info := RelationInfo{
			Name:          r.Name,
			Cols:          append([]string(nil), r.Cols...),
			Deterministic: r.Deterministic,
			Tuples:        r.Len(),
		}
		for _, k := range r.Key {
			info.Key = append(info.Key, r.Cols[k])
		}
		out[i] = info
	}
	return out
}

// SchemaFingerprint returns a hex digest of the database's schema and
// contents summary: relation names, columns, determinism flags, keys,
// and tuple counts. Two databases with the same fingerprint prepare
// queries to the same plans, so the fingerprint scopes plan-cache keys.
func (d *DB) SchemaFingerprint() string {
	h := sha256.New()
	for _, r := range d.RelationInfos() {
		h.Write([]byte(r.Name))
		h.Write([]byte{0})
		for _, c := range r.Cols {
			h.Write([]byte(c))
			h.Write([]byte{1})
		}
		if r.Deterministic {
			h.Write([]byte{2})
		}
		for _, k := range r.Key {
			h.Write([]byte(k))
			h.Write([]byte{3})
		}
		h.Write([]byte(strconv.Itoa(r.Tuples)))
		h.Write([]byte{4})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ctxErr is a nil-tolerant ctx.Err.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
