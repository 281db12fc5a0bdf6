package bench

import (
	"encoding/json"
	"testing"

	"lapushdb/internal/store"
)

// The local mutation type mirrors store.Mutation's wire shape instead
// of importing it. This test pins the two declarations to the same
// JSON — if store.Mutation's wire contract drifts, this fails instead
// of the harness silently sending rejected requests.
func TestMutationWireCompat(t *testing.T) {
	if opCreateRelation != store.OpCreateRelation ||
		opInsert != store.OpInsert ||
		opSetProb != store.OpSetProb ||
		opDelete != store.OpDelete {
		t.Fatalf("op name constants drifted from internal/store: %q %q %q %q vs %q %q %q %q",
			opCreateRelation, opInsert, opSetProb, opDelete,
			store.OpCreateRelation, store.OpInsert, store.OpSetProb, store.OpDelete)
	}

	p := 0.25
	cases := []struct {
		name  string
		local mutation
	}{
		{"create_relation", mutation{Op: opCreateRelation, Rel: "R", Cols: []string{"a", "b"}}},
		{"insert", mutation{Op: opInsert, Rel: "R", Tuple: []string{"1", "x"}, P: &p}},
		{"set_prob", mutation{Op: opSetProb, Rel: "R", Tuple: []string{"1", "x"}, P: &p}},
		{"delete", mutation{Op: opDelete, Rel: "R", Tuple: []string{"1", "x"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := json.Marshal(tc.local)
			if err != nil {
				t.Fatal(err)
			}
			var m store.Mutation
			if err := json.Unmarshal(got, &m); err != nil {
				t.Fatalf("store.Mutation rejects local mutation JSON %s: %v", got, err)
			}
			want, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("wire drift for %s:\nlocal: %s\nstore: %s", tc.name, got, want)
			}
		})
	}
}
