// Package store is lapushd's durable versioned database store. It
// publishes immutable lapushdb.DB versions behind an atomic pointer:
// every in-flight query pins the version it started on (snapshot
// isolation, preserving the engine's bit-identical determinism
// contract) while a single serialized applier builds the next version
// as a copy-on-write clone. Durability comes from a CRC-checked
// write-ahead log of mutation batches with a configurable fsync
// policy, threshold-triggered checkpointing to the .lpd snapshot
// format, and crash recovery that loads the latest checkpoint, replays
// the WAL, and truncates a torn tail instead of failing.
//
// Failure is a first-class state. Every filesystem call goes through
// the FS interface (fs.go), so faults are injectable at each step of
// the WAL and checkpoint protocols (see errfs and the chaos tests).
// Transient WAL append failures are retried a bounded number of times
// with exponential backoff; after BreakerThreshold consecutive
// durability failures the store degrades to read-only mode — reads
// keep serving the last published version, Apply returns ErrReadOnly,
// and a probe goroutine re-arms the breaker (fresh checkpoint + fresh
// WAL) once the directory is writable again.
//
// On-disk layout of a store directory:
//
//	MANIFEST              JSON {seq, checkpoint}: which checkpoint is live
//	checkpoint-<seq>.lpd  database snapshot at sequence number <seq>
//	wal.log               mutation batches applied after that checkpoint
//
// Checkpoint protocol (crash-safe at every step): write the snapshot to
// a temp file, fsync, rename to checkpoint-<seq>.lpd; write the new
// manifest to a temp file, fsync, rename over MANIFEST; then truncate
// the WAL. A crash between any two steps recovers correctly because WAL
// records carry sequence numbers and replay skips records at or below
// the manifest's checkpoint sequence.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lapushdb"
)

const (
	manifestName = "MANIFEST"
	walName      = "wal.log"
)

// ErrDurability wraps WAL and checkpoint I/O failures, distinguishing
// them from mutation validation errors: a validation error is the
// client's fault, a durability error is the server's.
var ErrDurability = errors.New("store: durability failure")

// ErrReadOnly reports that the store has degraded to read-only mode
// after repeated durability failures. Reads keep serving the last
// published version; mutations are refused until the re-arm probe
// finds the directory writable again.
var ErrReadOnly = errors.New("store: read-only (degraded after durability failures)")

// ErrFenced reports a write lineage conflict: the store has observed a
// newer promotion epoch than the one a replicated record (or caller)
// belongs to. Accepting the write would fork the WAL across lineages,
// so it is refused; the stale side must re-seed from the new lineage.
var ErrFenced = errors.New("store: fenced (newer promotion epoch observed)")

// ErrBehind reports a promotion refused because the store's applied
// head has not reached the caller's required minimum sequence number:
// promoting would silently discard acknowledged writes the caller
// knows exist.
var ErrBehind = errors.New("store: behind required sequence")

// FsyncPolicy selects when the WAL is fsynced.
type FsyncPolicy string

const (
	// FsyncAlways fsyncs after every mutation batch, before the batch is
	// acknowledged: a crash never loses an acknowledged batch.
	FsyncAlways FsyncPolicy = "always"
	// FsyncNever leaves flushing to the OS: a crash may lose recently
	// acknowledged batches, but never recovers a corrupt state (torn
	// tails truncate).
	FsyncNever FsyncPolicy = "never"
)

// Options configures a store.
type Options struct {
	// Dir is the store directory. Empty selects ephemeral mode: full
	// versioning and snapshot isolation, no WAL and no checkpoints.
	Dir string
	// Fsync is the WAL fsync policy (default FsyncAlways).
	Fsync FsyncPolicy
	// CheckpointEvery checkpoints after that many mutation batches have
	// accumulated in the WAL (default 256; negative disables automatic
	// checkpointing).
	CheckpointEvery int
	// FS is the filesystem the WAL and checkpointer use (default OSFS).
	// Tests inject faults by passing an errfs.FS.
	FS FS
	// BreakerThreshold is the number of consecutive durability failures
	// that flips the store into read-only mode (default 3; negative
	// disables the breaker).
	BreakerThreshold int
	// RetryAttempts bounds how many times a failed WAL append is
	// retried within one Apply before the failure is surfaced (default
	// 2; negative disables retries). Retries stop early when the writer
	// is poisoned — a rollback failure is not transient.
	RetryAttempts int
	// RetryBackoff is the delay before the first retry, doubling per
	// attempt (default 5ms).
	RetryBackoff time.Duration
	// ProbeInterval is the delay before the first re-arm probe after
	// the breaker trips, doubling per failed probe up to one minute
	// (default 1s).
	ProbeInterval time.Duration
	// LogRetention bounds the in-memory replication log tail (default
	// 4096 records). The tail normally mirrors the WAL — records since
	// the last checkpoint — but ephemeral stores and stores with
	// checkpointing disabled would otherwise retain it unboundedly.
	// A replica asking for records older than the tail is told to
	// bootstrap from a snapshot instead (ErrLogTruncated).
	LogRetention int
	// Logf receives operational log lines (torn-tail truncations,
	// breaker transitions). Nil selects the standard logger.
	Logf func(format string, args ...any)
}

// Version is one immutable published database version. DB must be
// treated as read-only; the fingerprint combines the schema fingerprint
// with the sequence number, so it changes on every mutation batch —
// plan-cache keys scoped by it invalidate naturally. Epoch is the
// promotion epoch the version was published under: it proves which
// write lineage the version belongs to (the fingerprint alone cannot,
// because it covers schema shape and tuple counts, not tuple contents).
type Version struct {
	DB          *lapushdb.DB
	Seq         uint64
	Fingerprint string
	Epoch       uint64
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Seq         uint64 `json:"version"`
	Fingerprint string `json:"fingerprint"`
	// Epoch is the store's current promotion epoch (0 until the first
	// promotion anywhere in the lineage).
	Epoch uint64 `json:"epoch"`
	// FencedEpoch is the highest promotion epoch observed elsewhere in
	// the cluster (via Fence); while it exceeds Epoch, Apply refuses
	// writes with ErrFenced.
	FencedEpoch         uint64 `json:"fenced_epoch,omitempty"`
	Durable             bool   `json:"durable"`
	Fsync               string `json:"fsync,omitempty"`
	WALBytes            int64  `json:"wal_bytes"`
	CheckpointSeq       uint64 `json:"last_checkpoint_seq"`
	Checkpoints         int64  `json:"checkpoints_total"`
	MutationsTotal      int64  `json:"mutations_total"`
	BatchesTotal        int64  `json:"batches_total"`
	LastCheckpointError string `json:"last_checkpoint_error,omitempty"`
	// ReadOnly reports degraded mode: the breaker tripped and mutations
	// are refused until the re-arm probe succeeds.
	ReadOnly bool `json:"read_only"`
	// ConsecutiveFailures is the current run of durability failures
	// feeding the breaker (reset by any successful append).
	ConsecutiveFailures int `json:"consecutive_durability_failures,omitempty"`
	// WALTruncations counts torn-tail truncations performed during
	// recovery since this store was opened.
	WALTruncations int64 `json:"wal_truncations_total"`
	// WALTruncatedBytes is the total torn-tail byte count discarded by
	// those truncations.
	WALTruncatedBytes int64 `json:"wal_truncated_bytes_total,omitempty"`
}

// manifest is the JSON sidecar naming the live checkpoint. Epoch is
// omitted when zero, so epoch-0 manifests are byte-identical to the
// pre-epoch format and manifests written by pre-epoch binaries decode
// as epoch 0.
type manifest struct {
	Seq        uint64 `json:"seq"`
	Checkpoint string `json:"checkpoint"`
	Epoch      uint64 `json:"epoch,omitempty"`
}

// Store is a concurrently-mutable versioned database. Readers call
// Current and use the pinned version lock-free; Apply serializes
// writers.
type Store struct {
	cur  atomic.Pointer[Version]
	opts Options
	fs   FS

	readOnly atomic.Bool // breaker state; reads are lock-free

	mu              sync.Mutex // serializes Apply, Checkpoint, Close, Stats
	wal             *walWriter // nil in ephemeral mode
	closed          bool
	epoch           uint64 // promotion epoch; mutated under mu, read via published Versions
	fencedEpoch     uint64 // highest epoch observed elsewhere (Fence); Apply refuses while it exceeds epoch
	checkpointSeq   uint64
	sinceCheckpoint int
	checkpoints     int64
	failures        int // consecutive durability failures
	probeRunning    bool
	probeStop       chan struct{}
	mutations       atomic.Int64
	batches         atomic.Int64
	truncations     atomic.Int64
	truncatedBytes  atomic.Int64
	lastCkptErr     string

	// Replication log tail (see replication.go): records since the last
	// checkpoint, each with the fingerprint of the version it produced.
	// anchorSeq/anchorFP/anchorEpoch identify the state just before the
	// oldest retained record (the epoch is the one that state was
	// produced under, which ReadLog verifies position claims against).
	logMu       sync.RWMutex
	logTail     []LogRecord
	anchorSeq   uint64
	anchorFP    string
	anchorEpoch uint64

	// notify is closed and replaced on every publish; WaitForSeq
	// watchers block on it.
	notifyMu sync.Mutex
	notify   chan struct{}
}

// Open opens (or creates) a store. seed provides the initial database
// contents on first boot only: once the directory holds a manifest,
// recovered state wins and seed is ignored, so restarting with the same
// -rel flags does not clobber ingested data. A nil seed starts empty.
// Ephemeral mode (Options.Dir == "") never touches the filesystem.
func Open(seed *lapushdb.DB, opts Options) (*Store, error) {
	switch opts.Fsync {
	case "":
		opts.Fsync = FsyncAlways
	case FsyncAlways, FsyncNever:
	default:
		return nil, fmt.Errorf("store: unknown fsync policy %q (want %q or %q)", opts.Fsync, FsyncAlways, FsyncNever)
	}
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = 256
	}
	if opts.FS == nil {
		opts.FS = OSFS
	}
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = 3
	}
	if opts.RetryAttempts == 0 {
		opts.RetryAttempts = 2
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 5 * time.Millisecond
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = time.Second
	}
	if opts.LogRetention <= 0 {
		opts.LogRetention = 4096
	}
	if seed == nil {
		seed = lapushdb.Open()
	}
	s := &Store{opts: opts, fs: opts.FS, probeStop: make(chan struct{}), notify: make(chan struct{})}
	if opts.Dir == "" {
		db := seed.CloneCOW()
		s.anchorSeq, s.anchorFP = 0, Fingerprint(db, 0)
		s.publish(db, 0)
		return s, nil
	}
	if err := s.fs.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}

	var db *lapushdb.DB
	man, err := readManifest(s.fs, filepath.Join(opts.Dir, manifestName))
	switch {
	case err == nil:
		db, err = loadSnapshotFile(s.fs, filepath.Join(opts.Dir, man.Checkpoint))
		if err != nil {
			return nil, fmt.Errorf("store: load checkpoint %s: %w", man.Checkpoint, err)
		}
		s.checkpointSeq = man.Seq
		s.epoch = man.Epoch
	case errors.Is(err, os.ErrNotExist):
		// First boot: anchor recovery with a checkpoint of the seed.
		db = seed.CloneCOW()
		if err := s.writeCheckpoint(db, 0, 0); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("store: read manifest: %w", err)
	}

	// Replay the WAL over the checkpoint. Each record applies to a
	// private clone that is adopted only when the whole batch succeeds,
	// so a corrupt record can never leave a half-applied batch behind —
	// the recovered state is always exactly a prefix of logged batches.
	// Adopted records are retained in the replication log tail (with
	// their recomputed fingerprints), so a freshly recovered store can
	// serve replicas from the same positions the WAL covers.
	s.anchorSeq, s.anchorFP, s.anchorEpoch = s.checkpointSeq, Fingerprint(db, s.checkpointSeq), s.epoch
	last := s.checkpointSeq
	replayed := 0
	apply := func(rec walRecord) error {
		if rec.Seq <= s.checkpointSeq {
			return nil // already folded into the checkpoint
		}
		if rec.Seq != last+1 {
			return fmt.Errorf("store: wal sequence gap: have %d, next record is %d", last, rec.Seq)
		}
		next := db.CloneCOW()
		if err := applyBatch(next, rec.Muts); err != nil {
			return err
		}
		db = next
		last = rec.Seq
		replayed++
		// A replicated record committed under a newer epoch re-adopts it
		// on recovery, even if no checkpoint captured it before the crash.
		if rec.Epoch > s.epoch {
			s.epoch = rec.Epoch
		}
		s.appendLog(LogRecord{Seq: rec.Seq, Epoch: rec.Epoch, Fingerprint: Fingerprint(next, rec.Seq), Muts: rec.Muts})
		return nil
	}
	walPath := filepath.Join(opts.Dir, walName)
	w, truncated, err := openWAL(s.fs, walPath, opts.Fsync == FsyncAlways, apply)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if truncated > 0 {
		// A torn tail is expected after a crash or syscall failure, but
		// never silent: it is the store discarding unacknowledgeable
		// bytes, and operators should be able to correlate it.
		s.truncations.Add(1)
		s.truncatedBytes.Add(truncated)
		s.logf("store: wal %s: truncated %d bytes of torn tail during recovery", walPath, truncated)
	}
	s.wal = w
	s.sinceCheckpoint = replayed
	s.publish(db, last)
	s.removeStaleCheckpoints()
	return s, nil
}

// Current returns the live published version. The result is immutable
// and remains valid (and consistent) for as long as the caller holds
// it, however many mutations are applied meanwhile.
func (s *Store) Current() *Version { return s.cur.Load() }

// ReadOnly reports whether the breaker has tripped: the store serves
// reads from the last published version but refuses mutations.
func (s *Store) ReadOnly() bool { return s.readOnly.Load() }

// Apply atomically applies one mutation batch and publishes the
// resulting version. The batch is all-or-nothing: any validation error
// leaves the store unchanged. Under FsyncAlways the batch is durable
// before Apply returns. Durability failures wrap ErrDurability; in
// degraded mode Apply fails fast with ErrReadOnly.
func (s *Store) Apply(muts []Mutation) (*Version, error) {
	if len(muts) == 0 {
		return nil, errors.New("store: empty mutation batch")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("store: closed")
	}
	if s.readOnly.Load() {
		return nil, ErrReadOnly
	}
	if s.fencedEpoch > s.epoch {
		// A newer lineage exists somewhere in the cluster (Fence observed
		// it); committing here would fork the WAL no replica will follow.
		// Checked under s.mu so a write racing the server-level role
		// transition still cannot slip through.
		return nil, fmt.Errorf("%w: observed promotion epoch %d exceeds local epoch %d", ErrFenced, s.fencedEpoch, s.epoch)
	}
	cur := s.cur.Load()
	next := cur.DB.CloneCOW()
	if err := applyBatch(next, muts); err != nil {
		return nil, err
	}
	return s.commitLocked(next, cur.Seq+1, muts)
}

// commitLocked is the shared tail of Apply and ApplyReplicated: log the
// batch to the WAL, retain it in the replication tail, publish the
// version, and checkpoint when due. Caller holds s.mu.
func (s *Store) commitLocked(next *lapushdb.DB, seq uint64, muts []Mutation) (*Version, error) {
	if s.wal != nil {
		payload, err := json.Marshal(walRecord{Seq: seq, Epoch: s.epoch, Muts: muts})
		if err != nil {
			return nil, fmt.Errorf("%w: encode batch: %v", ErrDurability, err)
		}
		if err := s.appendWithRetry(payload); err != nil {
			s.noteDurabilityFailureLocked()
			return nil, fmt.Errorf("%w: %v", ErrDurability, err)
		}
		s.failures = 0
	}
	// Retain the record before publishing: a log reader woken by the
	// publish must find the record already in the tail.
	s.appendLog(LogRecord{Seq: seq, Epoch: s.epoch, Fingerprint: Fingerprint(next, seq), Muts: muts})
	v := s.publish(next, seq)
	s.mutations.Add(int64(len(muts)))
	s.batches.Add(1)
	s.sinceCheckpoint++
	if s.wal != nil && s.opts.CheckpointEvery > 0 && s.sinceCheckpoint >= s.opts.CheckpointEvery {
		// The batch is already durable and published; a checkpoint
		// failure only delays WAL truncation, so it must not fail the
		// Apply. It is surfaced through Stats instead.
		if err := s.checkpointLocked(v); err != nil {
			s.lastCkptErr = err.Error()
		} else {
			s.lastCkptErr = ""
		}
	}
	return v, nil
}

// appendWithRetry appends one WAL record, retrying transient failures
// up to RetryAttempts times with exponential backoff. A poisoned writer
// (rollback failed, file state unknown) is not transient, so retries
// stop there. Caller holds s.mu; backoffs are small by construction.
func (s *Store) appendWithRetry(payload []byte) error {
	err := s.wal.append(payload)
	backoff := s.opts.RetryBackoff
	for attempt := 0; err != nil && attempt < s.opts.RetryAttempts && s.wal.broken == nil; attempt++ {
		time.Sleep(backoff)
		backoff *= 2
		err = s.wal.append(payload)
	}
	return err
}

// noteDurabilityFailureLocked advances the breaker: after
// BreakerThreshold consecutive durability failures the store flips to
// read-only and the re-arm probe starts. Caller holds s.mu.
func (s *Store) noteDurabilityFailureLocked() {
	s.failures++
	if s.opts.BreakerThreshold <= 0 || s.failures < s.opts.BreakerThreshold || s.readOnly.Load() {
		return
	}
	s.readOnly.Store(true)
	s.logf("store: entering read-only mode after %d consecutive durability failures", s.failures)
	if !s.probeRunning {
		s.probeRunning = true
		go s.probeLoop()
	}
}

// Checkpoint forces a checkpoint of the current version and truncates
// the WAL. A no-op in ephemeral mode; refused in degraded mode.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	if s.wal == nil {
		return nil
	}
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	return s.checkpointLocked(s.cur.Load())
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.cur.Load()
	st := Stats{
		Seq:                 v.Seq,
		Fingerprint:         v.Fingerprint,
		Epoch:               s.epoch,
		FencedEpoch:         s.fencedEpoch,
		Durable:             s.wal != nil,
		CheckpointSeq:       s.checkpointSeq,
		Checkpoints:         s.checkpoints,
		MutationsTotal:      s.mutations.Load(),
		BatchesTotal:        s.batches.Load(),
		LastCheckpointError: s.lastCkptErr,
		ReadOnly:            s.readOnly.Load(),
		ConsecutiveFailures: s.failures,
		WALTruncations:      s.truncations.Load(),
		WALTruncatedBytes:   s.truncatedBytes.Load(),
	}
	if s.wal != nil {
		st.Fsync = string(s.opts.Fsync)
		st.WALBytes = s.wal.size
	}
	return st
}

// Close releases the WAL file and stops the re-arm probe. Published
// versions stay readable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	close(s.probeStop)
	if s.wal != nil {
		return s.wal.f.Close()
	}
	return nil
}

func (s *Store) publish(db *lapushdb.DB, seq uint64) *Version {
	v := &Version{DB: db, Seq: seq, Fingerprint: Fingerprint(db, seq), Epoch: s.epoch}
	s.cur.Store(v)
	s.notifyPublish()
	return v
}

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// checkpointLocked runs the checkpoint protocol for version v and
// resets the WAL. Caller holds s.mu.
func (s *Store) checkpointLocked(v *Version) error {
	if err := s.writeCheckpoint(v.DB, v.Seq, s.epoch); err != nil {
		return err
	}
	if err := s.wal.reset(); err != nil {
		return fmt.Errorf("%w: truncate wal: %v", ErrDurability, err)
	}
	s.checkpointSeq = v.Seq
	s.sinceCheckpoint = 0
	s.removeStaleCheckpoints()
	s.trimLog(v.Seq, v.Fingerprint, v.Epoch)
	return nil
}

// writeCheckpoint durably writes checkpoint-<seq>.lpd and points the
// manifest at it (snapshot first, manifest second, each via fsynced
// temp file + rename). The manifest records epoch, making the lineage
// claim durable.
func (s *Store) writeCheckpoint(db *lapushdb.DB, seq, epoch uint64) error {
	name := fmt.Sprintf("checkpoint-%09d.lpd", seq)
	if err := writeFileDurable(s.fs, s.opts.Dir, name, func(f File) error { return db.Save(f) }); err != nil {
		return fmt.Errorf("%w: write checkpoint: %v", ErrDurability, err)
	}
	buf, err := json.Marshal(manifest{Seq: seq, Checkpoint: name, Epoch: epoch})
	if err != nil {
		return fmt.Errorf("%w: encode manifest: %v", ErrDurability, err)
	}
	err = writeFileDurable(s.fs, s.opts.Dir, manifestName, func(f File) error {
		_, err := f.Write(buf)
		return err
	})
	if err != nil {
		return fmt.Errorf("%w: write manifest: %v", ErrDurability, err)
	}
	s.checkpoints++
	return nil
}

// removeStaleCheckpoints deletes checkpoint files the manifest no
// longer references (leftovers of a crash mid-protocol or of an earlier
// checkpoint). Best effort.
func (s *Store) removeStaleCheckpoints() {
	live := fmt.Sprintf("checkpoint-%09d.lpd", s.checkpointSeq)
	matches, err := s.fs.Glob(filepath.Join(s.opts.Dir, "checkpoint-*.lpd"))
	if err != nil {
		return
	}
	for _, m := range matches {
		if filepath.Base(m) != live {
			_ = s.fs.Remove(m)
		}
	}
}

// writeFileDurable writes dir/name via a temp file: write, fsync,
// close, rename, fsync the directory. The file either exists complete
// or not at all.
func writeFileDurable(fs FS, dir, name string, write func(f File) error) error {
	tmp, err := fs.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return err
	}
	defer fs.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	return fs.SyncDir(dir)
}

func readManifest(fs FS, path string) (manifest, error) {
	buf, err := fs.ReadFile(path)
	if err != nil {
		return manifest{}, err
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return manifest{}, fmt.Errorf("parse %s: %w", path, err)
	}
	if m.Checkpoint == "" || filepath.Base(m.Checkpoint) != m.Checkpoint {
		return manifest{}, fmt.Errorf("parse %s: bad checkpoint name %q", path, m.Checkpoint)
	}
	return m, nil
}

func loadSnapshotFile(fs FS, path string) (*lapushdb.DB, error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return lapushdb.Load(f)
}
