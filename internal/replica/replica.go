package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lapushdb"
	"lapushdb/internal/store"
)

// errNeedSnapshot classifies stream outcomes that cannot be fixed by
// reconnecting at the same position: the primary truncated the log past
// our position (410), refused our fingerprint (409), or a shipped
// record failed local parity. The run loop answers every one of them
// the same way — bootstrap from a fresh snapshot.
var errNeedSnapshot = errors.New("replica: snapshot bootstrap required")

// snapshotTimeout bounds one checkpoint bootstrap.
const snapshotTimeout = 5 * time.Minute

// Options configures a replica tailer.
type Options struct {
	// Primary is the primary's base URL, e.g. "http://127.0.0.1:8080".
	Primary string
	// Store is the replica's local store. The tailer applies shipped
	// records and snapshots into it; the caller retains ownership and
	// closes it after Close returns.
	Store *store.Store
	// Client is the HTTP client for tailing (default: a dedicated
	// client with no global timeout — streams are bounded per request).
	Client *http.Client
	// ReconnectBackoff is the delay before the first reconnect after a
	// stream error, doubling per consecutive failure (default 200ms).
	ReconnectBackoff time.Duration
	// MaxBackoff caps the reconnect delay (default 15s).
	MaxBackoff time.Duration
	// StreamWindow is the long-poll window requested from the primary:
	// an idle stream is cleanly ended (and immediately re-established)
	// after this long (default 20s).
	StreamWindow time.Duration
	// Logf receives operational log lines (default: standard logger).
	Logf func(format string, args ...any)
}

// Status is a point-in-time snapshot of the tailer's state, the source
// for /healthz fields and the lapushd_replica_* metrics.
type Status struct {
	// Primary is the primary's base URL.
	Primary string `json:"primary"`
	// Connected reports a currently established tail stream.
	Connected bool `json:"connected"`
	// AppliedSeq and Fingerprint identify the locally published head.
	AppliedSeq  uint64 `json:"applied_seq"`
	Fingerprint string `json:"fingerprint"`
	// HeadSeq is the highest primary head observed on the stream; zero
	// until the first head frame arrives.
	HeadSeq uint64 `json:"head_seq"`
	// PrimaryEpoch is the promotion epoch the primary last reported
	// (head frames, shipped records, or a checkpoint bootstrap); zero
	// until first contact or when the primary predates epochs.
	PrimaryEpoch uint64 `json:"primary_epoch"`
	// Epoch is the promotion epoch of the locally published head.
	Epoch uint64 `json:"epoch"`
	// CaughtUp reports a live stream drained to the primary's head.
	CaughtUp bool `json:"caught_up"`
	// LastContactSeconds is how long ago the tailer last completed a
	// successful exchange with the primary (a frame received or a
	// snapshot installed), measured on the replica's clock; it grows
	// from tailer start until first contact. A caught-up-looking replica
	// whose last contact keeps growing is a silently stalled tailer.
	LastContactSeconds float64 `json:"last_contact_seconds"`
	// LagSeconds is 0 while caught up, otherwise seconds since the
	// replica last was (measured on the replica's clock; during a
	// disconnect it keeps growing even if the primary is idle).
	LagSeconds float64 `json:"lag_seconds"`
	// Reconnects counts streams that ended uncleanly (error, cut, or
	// refusal), i.e. reconnects that paid a backoff.
	Reconnects int64 `json:"reconnects_total"`
	// Bootstraps counts full snapshot installs, including the initial
	// one when the local state was behind the primary's retained log.
	Bootstraps int64 `json:"bootstraps_total"`
	// LastError is the most recent stream or bootstrap error, cleared
	// on the next clean cycle.
	LastError string `json:"last_error,omitempty"`
}

// Replica tails a primary, keeping Options.Store converged to the
// primary's published (seq, fingerprint) head.
type Replica struct {
	opts   Options
	client *http.Client
	cancel context.CancelFunc
	done   chan struct{}

	reconnects atomic.Int64
	bootstraps atomic.Int64

	mu           sync.Mutex
	connected    bool
	caughtUp     bool
	headSeq      uint64
	primaryEpoch uint64
	caughtUpAt   time.Time // last instant caughtUp held; start time before that
	lastContact  time.Time // last successful exchange; start time before that
	lastErr      string
}

// Start validates opts, spawns the tail loop, and returns immediately;
// convergence is observable via Status or the store's WaitForSeq.
func Start(opts Options) (*Replica, error) {
	if opts.Primary == "" {
		return nil, errors.New("replica: primary address required")
	}
	if opts.Store == nil {
		return nil, errors.New("replica: store required")
	}
	if _, err := url.Parse(opts.Primary); err != nil {
		return nil, fmt.Errorf("replica: bad primary address %q: %w", opts.Primary, err)
	}
	if opts.ReconnectBackoff <= 0 {
		opts.ReconnectBackoff = 200 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 15 * time.Second
	}
	if opts.StreamWindow <= 0 {
		opts.StreamWindow = 20 * time.Second
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	now := time.Now()
	r := &Replica{
		opts:        opts,
		client:      client,
		cancel:      cancel,
		done:        make(chan struct{}),
		caughtUpAt:  now,
		lastContact: now,
	}
	go r.run(ctx)
	return r, nil
}

// Close stops the tail loop and waits for it to exit. It does not
// close the store.
func (r *Replica) Close() error {
	r.cancel()
	<-r.done
	return nil
}

// Status reports the tailer's current state.
func (r *Replica) Status() Status {
	v := r.opts.Store.Current()
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		Primary:            r.opts.Primary,
		Connected:          r.connected,
		AppliedSeq:         v.Seq,
		Fingerprint:        v.Fingerprint,
		Epoch:              v.Epoch,
		HeadSeq:            r.headSeq,
		PrimaryEpoch:       r.primaryEpoch,
		CaughtUp:           r.caughtUp,
		Reconnects:         r.reconnects.Load(),
		Bootstraps:         r.bootstraps.Load(),
		LastContactSeconds: time.Since(r.lastContact).Seconds(),
		LastError:          r.lastErr,
	}
	if !r.caughtUp {
		st.LagSeconds = time.Since(r.caughtUpAt).Seconds()
	}
	return st
}

// WaitCaughtUp blocks until a live stream has drained to the primary's
// head (lag 0) or ctx is done.
func (r *Replica) WaitCaughtUp(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		st := r.Status()
		if st.Connected && st.CaughtUp {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// run is the tail loop: stream until the window ends (clean — loop
// immediately), bootstrap on divergence/truncation, back off
// exponentially on everything else.
func (r *Replica) run(ctx context.Context) {
	defer close(r.done)
	defer r.setConnected(false)
	backoff := r.opts.ReconnectBackoff
	for ctx.Err() == nil {
		err := r.streamOnce(ctx)
		r.setConnected(false)
		if ctx.Err() != nil {
			return
		}
		if err == nil {
			backoff = r.opts.ReconnectBackoff
			r.setError(nil)
			continue
		}
		if errors.Is(err, errNeedSnapshot) {
			r.opts.Logf("replica: cannot tail from local position: %v; bootstrapping from snapshot", err)
			if berr := r.bootstrap(ctx); berr == nil {
				backoff = r.opts.ReconnectBackoff
				r.setError(nil)
				continue
			} else {
				err = fmt.Errorf("snapshot bootstrap: %w", berr)
			}
		}
		r.setError(err)
		r.reconnects.Add(1)
		r.opts.Logf("replica: stream to %s failed: %v (reconnect in %v)", r.opts.Primary, err, backoff)
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > r.opts.MaxBackoff {
			backoff = r.opts.MaxBackoff
		}
	}
}

// streamOnce establishes one tail stream at the local head and applies
// frames until the primary ends the window (nil), the stream errors, or
// a refusal/parity failure demands a snapshot (errNeedSnapshot).
func (r *Replica) streamOnce(ctx context.Context) error {
	cur := r.opts.Store.Current()
	q := url.Values{}
	q.Set("from", strconv.FormatUint(cur.Seq, 10))
	q.Set("fp", cur.Fingerprint)
	q.Set("wait_ms", strconv.FormatInt(r.opts.StreamWindow.Milliseconds(), 10))
	// Present our epoch so a stale primary (lower epoch than ours) can
	// observe the newer lineage and self-fence instead of serving us.
	q.Set("epoch", strconv.FormatUint(cur.Epoch, 10))
	// The deadline covers the long-poll window plus transfer slack. A
	// catch-up larger than the slack allows is cut and resumed at the
	// new position on reconnect — progress is never lost, only paced.
	sctx, cancel := context.WithTimeout(ctx, 2*r.opts.StreamWindow+30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, r.opts.Primary+"/v1/wal?"+q.Encode(), nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return fmt.Errorf("%w: primary's log no longer reaches back to seq %d", errNeedSnapshot, cur.Seq)
	case http.StatusConflict:
		// A primary whose epoch is behind ours refuses with its epoch in
		// the X-Lapushd-Epoch header: that is a stale primary, not a
		// diverged replica, and bootstrapping from it would erase our
		// newer lineage. Back off and wait for it to be re-seeded (or for
		// a re-point to the real primary).
		if pe, err := strconv.ParseUint(resp.Header.Get("X-Lapushd-Epoch"), 10, 64); err == nil && pe < cur.Epoch {
			return fmt.Errorf("replica: primary %s is on stale epoch %d (local %d); refusing to follow it", r.opts.Primary, pe, cur.Epoch)
		}
		return fmt.Errorf("%w: primary refuses position (%d, %s) as diverged", errNeedSnapshot, cur.Seq, cur.Fingerprint)
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("replica: primary answered %d: %s", resp.StatusCode, body)
	}
	r.setConnected(true)
	for {
		f, err := ReadFrame(resp.Body)
		if err != nil {
			if err == io.EOF {
				// EOF without an end frame: the stream was cut mid-flight.
				return errors.New("replica: stream cut before the end frame")
			}
			return err
		}
		switch f.Type {
		case FrameHead:
			if err := r.noteHead(f.Seq, f.Fingerprint, f.Epoch); err != nil {
				return err
			}
		case FrameRecord:
			r.noteContact(f.Epoch)
			applied := r.opts.Store.Current().Seq
			if f.Seq <= applied {
				continue // duplicate delivery after a resume; already applied
			}
			if f.Seq != applied+1 {
				return fmt.Errorf("replica: stream gap: local head %d, next record %d", applied, f.Seq)
			}
			v, err := r.opts.Store.ApplyReplicated(store.LogRecord{Seq: f.Seq, Epoch: f.Epoch, Fingerprint: f.Fingerprint, Muts: f.Muts})
			if err != nil {
				if errors.Is(err, store.ErrFenced) {
					// The shipped record belongs to an older lineage than
					// ours; bootstrapping from its source would be worse.
					return fmt.Errorf("replica: primary %s ships stale-epoch records: %v", r.opts.Primary, err)
				}
				if errors.Is(err, store.ErrDiverged) {
					return fmt.Errorf("%w: %v", errNeedSnapshot, err)
				}
				// Local durability trouble (ErrReadOnly, ErrDurability):
				// transient — back off and retry from the same position.
				return err
			}
			r.noteApplied(v.Seq)
		case FrameEnd:
			return nil
		default:
			return fmt.Errorf("%w: unknown frame type %q", ErrFrameCorrupt, f.Type)
		}
	}
}

// bootstrap fetches the primary's current checkpoint, verifies its
// fingerprint against the loaded database, and installs it.
func (r *Replica) bootstrap(ctx context.Context) error {
	r.bootstraps.Add(1)
	sctx, cancel := context.WithTimeout(ctx, snapshotTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, r.opts.Primary+"/v1/checkpoint", nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("primary answered %d: %s", resp.StatusCode, body)
	}
	seq, err := strconv.ParseUint(resp.Header.Get("X-Lapushd-Seq"), 10, 64)
	if err != nil {
		return fmt.Errorf("bad X-Lapushd-Seq header: %w", err)
	}
	// Absent header means a pre-epoch primary: epoch 0.
	epoch, _ := strconv.ParseUint(resp.Header.Get("X-Lapushd-Epoch"), 10, 64)
	if local := r.opts.Store.Epoch(); epoch < local {
		// Installing this snapshot would move us backwards onto a stale
		// lineage, silently erasing state from the lineage that fenced it.
		return fmt.Errorf("refusing snapshot from %s: its epoch %d predates local epoch %d (stale primary)", r.opts.Primary, epoch, local)
	}
	wantFP := resp.Header.Get("X-Lapushd-Fingerprint")
	db, err := lapushdb.Load(resp.Body)
	if err != nil {
		return fmt.Errorf("load snapshot: %w", err)
	}
	if got := store.Fingerprint(db, seq); wantFP != "" && got != wantFP {
		return fmt.Errorf("%w: snapshot at seq %d loads as %s, primary claims %s", store.ErrDiverged, seq, got, wantFP)
	}
	if _, err := r.opts.Store.InstallSnapshot(db, seq, epoch); err != nil {
		return err
	}
	r.opts.Logf("replica: installed snapshot at seq %d (epoch %d) from %s", seq, epoch, r.opts.Primary)
	r.noteContact(epoch)
	r.noteApplied(seq)
	return nil
}

// noteHead records a head frame: the primary's published position. A
// head on a stale epoch means the primary belongs to a lineage we have
// moved past — refuse to follow it (and never bootstrap from it). A
// head at our own seq with a different fingerprint is divergence the
// record-level checks can never catch (no record will arrive to fail).
func (r *Replica) noteHead(seq uint64, fp string, epoch uint64) error {
	r.noteContact(epoch)
	cur := r.opts.Store.Current()
	if epoch < cur.Epoch {
		return fmt.Errorf("replica: primary %s is on stale epoch %d (local %d); refusing to follow it", r.opts.Primary, epoch, cur.Epoch)
	}
	if epoch > cur.Epoch && seq == cur.Seq {
		// The primary's head crossed a promotion while we sit at its exact
		// sequence number. The fingerprint covers schema shape and tuple
		// counts, not contents, so two forked lineages can collide at the
		// same seq (an old primary's unacked tail vs the promoted lineage's
		// new writes) — parity cannot be proven across an epoch boundary
		// without either applying an epoch-stamped record or re-anchoring.
		// With no records left to stream, re-anchor.
		return fmt.Errorf("%w: primary head (%d, epoch %d) vs local state applied on epoch %d; fingerprints cannot prove parity across a promotion", errNeedSnapshot, seq, epoch, cur.Epoch)
	}
	if seq == cur.Seq && fp != "" && fp != cur.Fingerprint {
		return fmt.Errorf("%w: primary head (%d, %s) vs local (%d, %s)", errNeedSnapshot, seq, fp, cur.Seq, cur.Fingerprint)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq > r.headSeq {
		r.headSeq = seq
	}
	r.updateCaughtUpLocked(cur.Seq)
	return nil
}

// noteContact stamps a successful exchange with the primary and the
// epoch it reported.
func (r *Replica) noteContact(epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastContact = time.Now()
	if epoch > r.primaryEpoch {
		r.primaryEpoch = epoch
	}
}

// noteApplied records local progress after an apply or install.
func (r *Replica) noteApplied(seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq > r.headSeq {
		r.headSeq = seq
	}
	r.updateCaughtUpLocked(seq)
}

// updateCaughtUpLocked derives caughtUp from the applied position and
// stamps the lag clock. Caller holds r.mu.
func (r *Replica) updateCaughtUpLocked(applied uint64) {
	was := r.caughtUp
	r.caughtUp = r.connected && applied >= r.headSeq
	if r.caughtUp || was {
		// Entering, holding, or just leaving the caught-up state all
		// pin "last caught up" to now; lag accrues from here.
		r.caughtUpAt = time.Now()
	}
}

func (r *Replica) setConnected(c bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.connected && !c && r.caughtUp {
		r.caughtUpAt = time.Now()
	}
	r.connected = c
	if !c {
		r.caughtUp = false
	}
}

func (r *Replica) setError(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err == nil {
		r.lastErr = ""
	} else {
		r.lastErr = err.Error()
	}
}
