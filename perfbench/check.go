package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"sort"
	"strings"

	"lapushdb/internal/engine"
	"lapushdb/internal/store"
)

// Wire shapes of /v1/query replies (the fields the checks read).
type intervalReply struct {
	Lower float64 `json:"lower"`
	Upper float64 `json:"upper"`
}

type answerReply struct {
	Values   []string       `json:"values"`
	Score    float64        `json:"score"`
	Interval *intervalReply `json:"interval"`
}

type queryReply struct {
	Answers  []answerReply `json:"answers"`
	Count    int           `json:"count"`
	Degraded string        `json:"degraded"`
}

// digest accumulates normalized query → answers with score bit patterns.
// It is a function of the seed alone (the check phase replays a fixed
// prefix of the stream), so it must repeat across runs and across
// revisions that do not change answers.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) str(s string) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
	d.h.Write(n[:])
	d.h.Write([]byte(s))
}

func (d *digest) f64(f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	d.h.Write(b[:])
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// firstReads returns the first n read requests of the stream.
func firstReads(s stream, n int) []request {
	var out []request
	for i := int64(0); len(out) < n; i++ {
		if r := s(i); r.Kind != opWrite {
			out = append(out, r)
		}
	}
	return out
}

// checkReads is the check phase of a server workload: it replays the
// first reads of the stream one at a time, decodes every reply fully,
// and holds it against an in-process evaluation of the same query over
// the parity-asserted copy of the data. It returns the answers digest
// and the number of requests that failed a check.
func (e *env) checkReads(ctx context.Context, wl string, reqs []request) (sum string, failed int, firstErr error) {
	d := newDigest()
	for _, r := range reqs {
		if err := e.checkRead(ctx, wl, r, d); err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("check %s: %w", r.Query, err)
			}
		}
	}
	return d.sum(), failed, firstErr
}

func (e *env) checkRead(ctx context.Context, wl string, r request, d *digest) error {
	body, _, err := e.send(r)
	if err != nil {
		return err
	}
	var reply queryReply
	if err := json.Unmarshal(body, &reply); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	if reply.Count != len(reply.Answers) {
		return fmt.Errorf("count %d but %d answers", reply.Count, len(reply.Answers))
	}
	norm, err := e.local.NormalizeQuery(r.Query)
	if err != nil {
		return err
	}
	d.str(norm)
	for _, a := range reply.Answers {
		d.str(strings.Join(a.Values, "\x00"))
		d.f64(a.Score)
		if a.Interval != nil {
			d.f64(a.Interval.Lower)
			d.f64(a.Interval.Upper)
		}
	}
	if r.Kind == opAnytime {
		return e.checkAnytime(ctx, r, &reply)
	}
	if (wl == wlRankHot || wl == wlMixedRW) && len(reply.Answers) < e.sc.hotMinAnswers() {
		return fmt.Errorf("%d answers, the hot pool promises at least %d", len(reply.Answers), e.sc.hotMinAnswers())
	}
	// Bit-identity with in-process RankContext: same answers in the same
	// order with the same float64 bit patterns, up to the request's top.
	want, err := apiRank(ctx, e.local, r.Query)
	if err != nil {
		return fmt.Errorf("in-process rank: %w", err)
	}
	if r.Top > 0 && len(want) > r.Top {
		want = want[:r.Top]
	}
	if len(want) != len(reply.Answers) {
		return fmt.Errorf("%d answers, in-process rank has %d", len(reply.Answers), len(want))
	}
	for i, a := range reply.Answers {
		if strings.Join(a.Values, "\x00") != strings.Join(want[i].Values, "\x00") ||
			math.Float64bits(a.Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("answer %d is %v %x, in-process rank has %v %x",
				i, a.Values, math.Float64bits(a.Score), want[i].Values, math.Float64bits(want[i].Score))
		}
	}
	return nil
}

// exactSample is how many answers per anytime reply are held against the
// exact probability of their lineage.
const exactSample = 3

// checkAnytime checks an anytime reply: every interval is ordered and
// inside [0, 1]; it is as narrow as asked unless the reply says it was
// degraded; it is bit-identical to in-process RankAnytimeContext with
// the same seed; and for a sample of answers the exact probability of
// the answer's lineage lies inside it. The lower bound past the exact
// stage is a z=6 confidence bound, so the last check can fail by chance
// about once in 1e9 answers.
func (e *env) checkAnytime(ctx context.Context, r request, reply *queryReply) error {
	const slack = 1e-9
	for i, a := range reply.Answers {
		if a.Interval == nil {
			return fmt.Errorf("answer %d has no interval", i)
		}
		lo, hi := a.Interval.Lower, a.Interval.Upper
		if !(0 <= lo && lo <= hi && hi <= 1+slack) {
			return fmt.Errorf("answer %d interval [%v, %v] is not ordered inside [0, 1]", i, lo, hi)
		}
		if reply.Degraded == "" && hi-lo > r.Epsilon+slack {
			return fmt.Errorf("answer %d width %v exceeds epsilon %v and the reply is not degraded", i, hi-lo, r.Epsilon)
		}
	}
	want, err := apiRankAnytime(ctx, e.local, r.Query, r.Epsilon, r.Samples, r.Seed)
	if err != nil {
		return fmt.Errorf("in-process anytime: %w", err)
	}
	if reply.Degraded == "" && want.Degraded == "" {
		if len(want.Answers) != len(reply.Answers) {
			return fmt.Errorf("%d answers, in-process anytime has %d", len(reply.Answers), len(want.Answers))
		}
		for i, a := range reply.Answers {
			w := want.Answers[i]
			if strings.Join(a.Values, "\x00") != strings.Join(w.Values, "\x00") ||
				math.Float64bits(a.Interval.Lower) != math.Float64bits(w.Lower) ||
				math.Float64bits(a.Interval.Upper) != math.Float64bits(w.Upper) {
				return fmt.Errorf("answer %d is %v [%v, %v], in-process anytime has %v [%v, %v]",
					i, a.Values, a.Interval.Lower, a.Interval.Upper, w.Values, w.Lower, w.Upper)
			}
		}
	}

	q, err := apiParse(r.Query)
	if err != nil {
		return err
	}
	reduced, err := apiSemiJoinReduce(ctx, e.edb, q)
	if err != nil {
		return err
	}
	lin, err := apiEvalLineage(ctx, e.edb, q, reduced)
	if err != nil {
		return err
	}
	byKey := make(map[string]int, lin.Len())
	for i := 0; i < lin.Len(); i++ {
		byKey[e.decodeKey(lin.Key(i))] = i
	}
	for i, a := range reply.Answers {
		if i >= exactSample {
			break
		}
		li, ok := byKey[strings.Join(a.Values, "\x00")]
		if !ok {
			return fmt.Errorf("answer %v has no lineage", a.Values)
		}
		p := apiExactProb(lin.Clauses(li), e.edb.VarProbs())
		if p < a.Interval.Lower-slack || p > a.Interval.Upper+slack {
			return fmt.Errorf("answer %v: exact probability %v outside [%v, %v]", a.Values, p, a.Interval.Lower, a.Interval.Upper)
		}
	}
	return nil
}

func (e *env) decodeKey(key []engine.Value) string {
	parts := make([]string, len(key))
	for i, v := range key {
		parts[i] = e.edb.Decode(v)
	}
	return strings.Join(parts, "\x00")
}

// check checks one Opt1-2-3 pass against one deterministic pass over
// the same cells and digests its scores: the dissociation evaluation
// must return exactly the deterministic query's answers, each with a
// score in (0, 1], and on the cells with few minimal plans the merged
// single plan's score must equal the minimum over the separately
// evaluated plans (Def. 14; Opt1 preserves scores).
func (f *fig5) check(ctx context.Context) (sum string, failed int, firstErr error) {
	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	diss, err := f.pass(ctx)
	if err != nil {
		return "", len(f.cells), err
	}
	det, err := f.detPass(ctx)
	if err != nil {
		return "", len(f.cells), err
	}
	d := newDigest()
	for ci, c := range f.cells {
		rows := resultRows(c.DB, diss[ci])
		detRows := resultRows(c.DB, det[ci])
		d.str(c.Name)
		bad := len(rows) != len(detRows)
		for i, r := range rows {
			d.str(r.key)
			d.f64(r.score)
			if !bad && (r.key != detRows[i].key || !(r.score > 0 && r.score <= 1)) {
				bad = true
			}
		}
		if bad {
			fail(fmt.Errorf("fig5 cell %s: Opt1-2-3 answers differ from the deterministic answers or a score is outside (0, 1]", c.Name))
			continue
		}
		plans := apiMinimalPlans(c.Q, nil)
		if len(plans) > 8 {
			continue
		}
		all, err := apiEvalPlans(ctx, c.DB, c.Q, plans, nil, 1, nil)
		if err != nil {
			fail(err)
			continue
		}
		allRows := resultRows(c.DB, all)
		for i, r := range rows {
			if i >= len(allRows) || r.key != allRows[i].key || math.Abs(r.score-allRows[i].score) > 1e-9 {
				fail(fmt.Errorf("fig5 cell %s: single-plan score differs from the minimum over the %d minimal plans", c.Name, len(plans)))
				break
			}
		}
	}
	return d.sum(), failed, firstErr
}

type resultRow struct {
	key   string
	score float64
}

// resultRows lists a result's rows in key order, so two evaluations of
// one query compare row by row.
func resultRows(db *engine.DB, res *engine.Result) []resultRow {
	rows := make([]resultRow, res.Len())
	for i := range rows {
		vals := res.Row(i)
		parts := make([]string, len(vals))
		for j, v := range vals {
			parts[j] = db.Decode(v)
		}
		rows[i] = resultRow{key: strings.Join(parts, "\x00"), score: res.Score(i)}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	return rows
}

// checkDurability ends a server workload: stop serving, close the store,
// reopen it from the bytes on disk alone, and require the acknowledged
// sequence number, the fingerprint and the data to be what was served
// before the close. It returns how long the reopen (checkpoint load plus
// WAL replay) took.
func (e *env) checkDurability() (reopenMS float64, err error) {
	before := e.store.Current()
	if acked := e.acked.Load(); before.Seq != acked {
		return 0, fmt.Errorf("durability: store is at seq %d but the last acknowledged ingest was seq %d", before.Seq, acked)
	}
	wantBytes, err := snapshotBytes(before.DB)
	if err != nil {
		return 0, err
	}
	wantSeq, wantFP := before.Seq, before.Fingerprint
	e.stopServing()

	var st *store.Store
	reopenMS, err = timeMS(func() error {
		var err error
		st, err = apiOpenStore(nil, e.dir, store.FsyncAlways)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("durability: reopen: %w", err)
	}
	defer st.Close()
	after := st.Current()
	if after.Seq != wantSeq || after.Fingerprint != wantFP {
		return 0, fmt.Errorf("durability: reopened at (%d, %s), served (%d, %s) before the close", after.Seq, after.Fingerprint, wantSeq, wantFP)
	}
	gotBytes, err := snapshotBytes(after.DB)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		return 0, fmt.Errorf("durability: reopened data differs from the data served before the close")
	}
	return reopenMS, nil
}
