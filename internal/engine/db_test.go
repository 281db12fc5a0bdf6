package engine

import (
	"strconv"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
)

// TestInsertRefusedLeavesRelation: an insert the relation refuses — p ≠ 1
// into a deterministic relation — panics before it stores anything, so a
// caller that recovers holds the relation as it was, and a scan of it
// (here one with a predicate, which reads each row's probability through
// its selection) sees only the stored tuple.
func TestInsertRefusedLeavesRelation(t *testing.T) {
	db := NewDB()
	d := db.CreateDeterministicRelation("D", []string{"a", "b"})
	d.Insert([]Value{1, 2}, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("inserting p = 0.5 into a deterministic relation did not panic")
			}
		}()
		d.Insert([]Value{3, 4}, 0.5)
	}()
	if d.Len() != 1 || len(d.vids) != 2 || len(db.varProb) != 0 {
		t.Fatalf("after the refused insert: %d rows, %d value ids, %d lineage variables; want 1, 2, 0", d.Len(), len(d.vids), len(db.varProb))
	}
	q := cq.MustParse("q(x, y) :- D(x, y), x >= 0")
	res := EvalPlansCtx(nil, db, q, core.MinimalPlans(q, nil), Options{})
	if res.Len() != 1 || res.Score(0) != 1 {
		t.Fatalf("scan of the relation returned %d rows, want the one stored tuple", res.Len())
	}
}

// TestParseNonNegMatchesParseInt: the literal encoding skips
// strconv.ParseInt on a first byte that cannot start an integer, and
// otherwise agrees with the ParseInt rule it replaces — a base-10 int64
// that is not negative encodes itself.
func TestParseNonNegMatchesParseInt(t *testing.T) {
	for _, lit := range []string{"+5", "-0", "007", "-3", "", "1e3", "red", "0", "9223372036854775807", "9223372036854775808", " 1", "_1"} {
		i, err := strconv.ParseInt(lit, 10, 64)
		wantOK := err == nil && i >= 0
		got, ok := parseNonNeg(lit)
		if ok != wantOK || ok && got != i {
			t.Errorf("parseNonNeg(%q) = %d, %v; the ParseInt rule gives %d, %v", lit, got, ok, i, wantOK)
		}
	}
	db := NewDB()
	red := db.EncodeConst("red")
	if allocs := testing.AllocsPerRun(100, func() {
		if db.lookupConst("red") != red || db.EncodeConst("red") != red {
			t.Fatal("a known string changed its encoding")
		}
	}); allocs != 0 {
		t.Errorf("encoding a known string allocates %.0f times, want 0", allocs)
	}
}
