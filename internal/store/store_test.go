package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"lapushdb"
)

// testSeedDB builds the small movie database used across the repo.
func testSeedDB(t testing.TB) *lapushdb.DB {
	t.Helper()
	db := lapushdb.Open()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	likes, err := db.CreateRelation("Likes", "user", "movie")
	must(err)
	stars, err := db.CreateRelation("Stars", "movie", "actor")
	must(err)
	must(likes.Insert(0.9, "ann", "heat"))
	must(likes.Insert(0.5, "bob", "heat"))
	must(stars.Insert(0.8, "heat", "deniro"))
	must(stars.Insert(0.3, "heat", "pacino"))
	return db
}

func dbBytes(t testing.TB, db *lapushdb.DB) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := db.Save(&b); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return b.Bytes()
}

func pf(p float64) *float64 { return &p }

func TestEphemeralVersioning(t *testing.T) {
	st, err := Open(testSeedDB(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	v0 := st.Current()
	if v0.Seq != 0 {
		t.Fatalf("boot seq = %d, want 0", v0.Seq)
	}
	before := dbBytes(t, v0.DB)

	v1, err := st.Apply([]Mutation{
		{Op: OpInsert, Rel: "Likes", Tuple: []string{"carol", "heat"}, P: pf(0.7)},
		{Op: OpSetProb, Rel: "Likes", Tuple: []string{"ann", "heat"}, P: pf(0.95)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v1.Seq != 1 || v1.Fingerprint == v0.Fingerprint {
		t.Fatalf("v1 = seq %d fp %q, want seq 1 and a fresh fingerprint", v1.Seq, v1.Fingerprint)
	}
	// Snapshot isolation: the pinned v0 is bit-identical to its state
	// before the mutation.
	if !bytes.Equal(before, dbBytes(t, v0.DB)) {
		t.Fatal("published version changed under a later mutation")
	}
	if n := v1.DB.Relation("Likes").Len(); n != 3 {
		t.Fatalf("v1 Likes has %d tuples, want 3", n)
	}
	if n := v0.DB.Relation("Likes").Len(); n != 2 {
		t.Fatalf("v0 Likes has %d tuples, want 2", n)
	}
	if st.Current() != v1 {
		t.Fatal("Current() is not the applied version")
	}
	st2 := st.Stats()
	if st2.Seq != 1 || st2.MutationsTotal != 2 || st2.BatchesTotal != 1 || st2.Durable {
		t.Fatalf("stats = %+v", st2)
	}
}

func TestApplyIsAtomic(t *testing.T) {
	st, err := Open(testSeedDB(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	v0 := st.Current()
	_, err = st.Apply([]Mutation{
		{Op: OpInsert, Rel: "Likes", Tuple: []string{"dave", "ronin"}, P: pf(0.4)},
		{Op: OpSetProb, Rel: "Likes", Tuple: []string{"nobody", "nothing"}, P: pf(0.5)},
	})
	if err == nil {
		t.Fatal("want error for batch with a missing tuple")
	}
	if st.Current() != v0 {
		t.Fatal("failed batch published a new version")
	}
	if n := st.Current().DB.Relation("Likes").Len(); n != 2 {
		t.Fatalf("failed batch leaked a partial insert: %d tuples", n)
	}
	if _, err := st.Apply(nil); err == nil {
		t.Fatal("want error for empty batch")
	}
}

func TestMutationValidation(t *testing.T) {
	st, err := Open(testSeedDB(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	bad := [][]Mutation{
		{{Op: "nope"}},
		{{Op: OpInsert, Rel: "Missing", Tuple: []string{"x"}, P: pf(0.5)}},
		{{Op: OpInsert, Rel: "Likes", Tuple: []string{"a", "b"}}},                   // missing p
		{{Op: OpInsert, Rel: "Likes", Tuple: []string{"a"}, P: pf(0.5)}},            // arity
		{{Op: OpInsert, Rel: "Likes", Tuple: []string{"a", "b"}, P: pf(1.5)}},       // p range
		{{Op: OpSetProb, Rel: "Likes", Tuple: []string{"ann", "heat"}}},             // missing p
		{{Op: OpDelete, Rel: "Likes", Tuple: []string{"zz", "zz"}}},                 // missing tuple
		{{Op: OpScaleProbs, Factor: 0}},                                             // factor range
		{{Op: OpScaleProbs, Factor: 1.5}},                                           // factor range
		{{Op: OpCreateRelation, Rel: ""}},                                           // name
		{{Op: OpCreateRelation, Rel: "T"}},                                          // no columns
		{{Op: OpCreateRelation, Rel: "T", Cols: []string{"a"}, Key: []string{"b"}}}, // bad key
		{{Op: OpCreateRelation, Rel: "Likes", Cols: []string{"a"}}},                 // duplicate
	}
	for i, muts := range bad {
		if _, err := st.Apply(muts); err == nil {
			t.Errorf("case %d: batch %+v applied, want error", i, muts)
		}
	}
	if st.Current().Seq != 0 {
		t.Fatalf("invalid batches advanced the version to %d", st.Current().Seq)
	}

	// Deterministic relations: p defaults to 1 and must be 1.
	if _, err := st.Apply([]Mutation{
		{Op: OpCreateRelation, Rel: "Cert", Cols: []string{"x"}, Deterministic: true, Key: []string{"x"}},
		{Op: OpInsert, Rel: "Cert", Tuple: []string{"a"}},
	}); err != nil {
		t.Fatalf("deterministic insert without p: %v", err)
	}
	if _, err := st.Apply([]Mutation{{Op: OpInsert, Rel: "Cert", Tuple: []string{"b"}, P: pf(0.5)}}); err == nil {
		t.Fatal("want error for p != 1 on deterministic relation")
	}
	if _, err := st.Apply([]Mutation{{Op: OpSetProb, Rel: "Cert", Tuple: []string{"a"}, P: pf(0.5)}}); err == nil {
		t.Fatal("want error for set_prob on deterministic relation")
	}
}

func TestDurableRecoverySeedIgnoredOnSecondBoot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(testSeedDB(t), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply([]Mutation{
		{Op: OpCreateRelation, Rel: "Fan", Cols: []string{"actor"}},
		{Op: OpInsert, Rel: "Fan", Tuple: []string{"deniro"}, P: pf(0.6)},
	}); err != nil {
		t.Fatal(err)
	}
	v, err := st.Apply([]Mutation{{Op: OpScaleProbs, Factor: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	want := dbBytes(t, v.DB)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a different (even nil) seed: recovered state wins.
	st2, err := Open(nil, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	v2 := st2.Current()
	if v2.Seq != 2 {
		t.Fatalf("recovered seq = %d, want 2", v2.Seq)
	}
	if !bytes.Equal(want, dbBytes(t, v2.DB)) {
		t.Fatal("recovered database differs from the last published version")
	}
	if v2.Fingerprint != v.Fingerprint {
		t.Fatalf("recovered fingerprint %q, want %q", v2.Fingerprint, v.Fingerprint)
	}
}

func TestCheckpointThresholdTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(testSeedDB(t), Options{Dir: dir, CheckpointEvery: 2, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := st.Apply([]Mutation{
			{Op: OpInsert, Rel: "Likes", Tuple: []string{fmt.Sprintf("u%d", i), "heat"}, P: pf(0.5)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	// 3 checkpoints: the boot anchor at seq 0 plus thresholds at 2 and 4.
	if stats.Checkpoints != 3 || stats.CheckpointSeq != 4 {
		t.Fatalf("stats = %+v, want 3 checkpoints with last at seq 4", stats)
	}
	// Only batch 5 outlives the last checkpoint in the WAL.
	if stats.WALBytes <= walHeaderSize || stats.WALBytes > 512 {
		t.Fatalf("wal bytes = %d, want one record's worth", stats.WALBytes)
	}
	want := dbBytes(t, st.Current().DB)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Only the live checkpoint file remains.
	matches, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.lpd"))
	if len(matches) != 1 {
		t.Fatalf("stale checkpoints left behind: %v", matches)
	}

	st2, err := Open(nil, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Current().Seq != 5 || !bytes.Equal(want, dbBytes(t, st2.Current().DB)) {
		t.Fatalf("recovery after checkpointing diverged (seq %d)", st2.Current().Seq)
	}

	// A forced checkpoint empties the WAL.
	if err := st2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats().WALBytes; got != walHeaderSize {
		t.Fatalf("wal bytes after forced checkpoint = %d, want %d", got, walHeaderSize)
	}
}

// randomBatches generates n valid mutation batches against the seed
// database, tracking live Likes tuples so tuple-addressed mutations
// always resolve.
func randomBatches(rng *rand.Rand, n int) [][]Mutation {
	alive := [][]string{{"ann", "heat"}, {"bob", "heat"}}
	var batches [][]Mutation
	for len(batches) < n {
		var muts []Mutation
		for k := rng.Intn(3) + 1; k > 0; k-- {
			switch r := rng.Float64(); {
			case r < 0.45:
				tup := []string{fmt.Sprintf("u%d", rng.Intn(30)), fmt.Sprintf("%d", rng.Intn(20))}
				muts = append(muts, Mutation{Op: OpInsert, Rel: "Likes", Tuple: tup, P: pf(float64(rng.Intn(100)+1) / 100)})
				alive = append(alive, tup)
			case r < 0.7 && len(alive) > 0:
				tup := alive[rng.Intn(len(alive))]
				muts = append(muts, Mutation{Op: OpSetProb, Rel: "Likes", Tuple: tup, P: pf(float64(rng.Intn(100)+1) / 100)})
			case r < 0.85 && len(alive) > 1:
				i := rng.Intn(len(alive))
				tup := alive[i]
				muts = append(muts, Mutation{Op: OpDelete, Rel: "Likes", Tuple: tup})
				// Mirror Find semantics: the first equal tuple goes away.
				for j, a := range alive {
					if a[0] == tup[0] && a[1] == tup[1] {
						alive = append(alive[:j], alive[j+1:]...)
						break
					}
				}
			case r < 0.95:
				muts = append(muts, Mutation{Op: OpScaleProbs, Factor: 0.9})
			default:
				muts = append(muts, Mutation{Op: OpCreateRelation, Rel: fmt.Sprintf("T%d", len(batches)*8+int(k)), Cols: []string{"z"}})
			}
		}
		if len(muts) > 0 {
			batches = append(batches, muts)
		}
	}
	return batches
}

// TestCrashRecoveryEveryWALByte is the crash-recovery property test: it
// applies random mutation batches (with concurrent readers exercising
// snapshot isolation under -race), then simulates a crash at every WAL
// byte boundary — including mid-record torn writes — and asserts the
// reopened store equals exactly the last batch whose record fully fit.
func TestCrashRecoveryEveryWALByte(t *testing.T) {
	dir := t.TempDir()
	seed := testSeedDB(t)
	st, err := Open(seed, Options{Dir: dir, Fsync: FsyncAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent readers: pin versions and query them while the applier
	// runs. Purely for -race coverage of the COW sharing discipline.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := st.Current()
				if _, err := v.DB.RankContext(context.Background(), "q(u) :- Likes(u, m), Stars(m, a)", &lapushdb.Options{}); err != nil {
					t.Errorf("concurrent rank: %v", err)
					return
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(7))
	batches := randomBatches(rng, 10)
	snaps := [][]byte{dbBytes(t, st.Current().DB)} // snaps[k] = state after k batches
	walSizes := []int64{st.Stats().WALBytes}       // walSizes[k] = WAL size after k batches
	for _, muts := range batches {
		v, err := st.Apply(muts)
		if err != nil {
			t.Fatalf("apply %+v: %v", muts, err)
		}
		snaps = append(snaps, dbBytes(t, v.DB))
		walSizes = append(walSizes, st.Stats().WALBytes)
	}
	close(stop)
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(wal)) != walSizes[len(walSizes)-1] {
		t.Fatalf("wal file is %d bytes, stats said %d", len(wal), walSizes[len(walSizes)-1])
	}
	manifestBytes, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	ckptName := fmt.Sprintf("checkpoint-%09d.lpd", 0)
	ckptBytes, err := os.ReadFile(filepath.Join(dir, ckptName))
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(wal); cut++ {
		crash := filepath.Join(dir, fmt.Sprintf("crash-%d", cut))
		if err := os.Mkdir(crash, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, manifestName), manifestBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, ckptName), ckptBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, walName), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		// The expected surviving state: the last batch whose WAL record
		// fully fits in the first cut bytes.
		want := 0
		for k := range walSizes {
			if walSizes[k] <= int64(cut) {
				want = k
			}
		}

		rec, err := Open(nil, Options{Dir: crash, Fsync: FsyncNever, CheckpointEvery: -1})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		v := rec.Current()
		if v.Seq != uint64(want) {
			t.Fatalf("cut %d: recovered seq %d, want %d", cut, v.Seq, want)
		}
		if !bytes.Equal(snaps[want], dbBytes(t, v.DB)) {
			t.Fatalf("cut %d: recovered state differs from version %d", cut, want)
		}
		rec.Close()
		os.RemoveAll(crash)
	}
}

func TestRecoveryAfterTornTailContinues(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(testSeedDB(t), Options{Dir: dir, Fsync: FsyncNever, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Apply([]Mutation{
			{Op: OpInsert, Rel: "Likes", Tuple: []string{fmt.Sprintf("u%d", i), "heat"}, P: pf(0.5)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Corrupt a byte inside the last record's payload: CRC must reject
	// it and recovery must truncate back to batch 2.
	walPath := filepath.Join(dir, walName)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	wal[len(wal)-1] ^= 0xff
	if err := os.WriteFile(walPath, wal, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(nil, Options{Dir: dir, Fsync: FsyncNever, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Current().Seq != 2 {
		t.Fatalf("recovered seq = %d, want 2 after corrupting batch 3", st2.Current().Seq)
	}
	// The store keeps accepting batches after truncating a torn tail.
	v, err := st2.Apply([]Mutation{{Op: OpInsert, Rel: "Likes", Tuple: []string{"zed", "heat"}, P: pf(0.1)}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Seq != 3 {
		t.Fatalf("post-recovery apply got seq %d, want 3", v.Seq)
	}
	want := dbBytes(t, v.DB)
	st2.Close()

	st3, err := Open(nil, Options{Dir: dir, Fsync: FsyncNever, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if st3.Current().Seq != 3 || !bytes.Equal(want, dbBytes(t, st3.Current().DB)) {
		t.Fatal("second recovery lost the post-truncation batch")
	}
}

// TestSnapshotIsolationBitIdentical pins one version and checks that
// ranking it while mutations land concurrently stays bit-identical to
// ranking an isolated deep copy of the same version.
func TestSnapshotIsolationBitIdentical(t *testing.T) {
	st, err := Open(testSeedDB(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const query = "q(u) :- Likes(u, m), Stars(m, a)"
	pinned := st.Current()
	baselineDB := pinned.DB.Clone() // fully isolated deep copy
	baseline, err := baselineDB.RankContext(context.Background(), query, &lapushdb.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(3))
		for _, muts := range randomBatches(rng, 30) {
			if _, err := st.Apply(muts); err != nil {
				t.Errorf("apply: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		got, err := pinned.DB.RankContext(context.Background(), query, &lapushdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(baseline) {
			t.Fatalf("pinned rank returned %d answers, baseline %d", len(got), len(baseline))
		}
		for j := range got {
			if got[j].Score != baseline[j].Score || got[j].Values[0] != baseline[j].Values[0] {
				t.Fatalf("answer %d diverged under concurrent mutations: %+v vs %+v", j, got[j], baseline[j])
			}
		}
	}
	wg.Wait()
}

func TestDurabilityErrorIsTyped(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(testSeedDB(t), Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	st.wal.f.Close() // simulate the log device going away
	_, err = st.Apply([]Mutation{{Op: OpScaleProbs, Factor: 0.5}})
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("want ErrDurability, got %v", err)
	}
	// A validation failure, by contrast, is not a durability error.
	_, err = st.Apply([]Mutation{{Op: "nope"}})
	if err == nil || errors.Is(err, ErrDurability) {
		t.Fatalf("validation error misclassified: %v", err)
	}
}
