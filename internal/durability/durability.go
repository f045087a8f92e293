// Package durability makes a site's usage state survive process death: a
// write-ahead log of usage mutations with group commit at batch-ingest
// boundaries, periodic compacted snapshots written as runs of the same
// frames, and crash-recovery replay that reproduces the pre-crash state
// bitwise.
//
// The log is pure WAL machinery — it owns no histograms. Callers pass an
// apply closure to Commit; the log serializes append → fsync → apply under
// one mutex, which pins the on-disk mutation order to the in-memory apply
// order. That identity is what makes recovery bit-exact: float addition is
// not associative, so replaying the same mutations in the same order is the
// only way recovered totals match a never-crashed twin down to the last
// ulp.
//
// Lifecycle: Open reads the newest snapshot's frames and then the WAL tail
// into one pending list (the log starts in the recovering state; commits
// block until replay finishes). Replay applies the pending mutations in
// order through a caller-supplied applier and unblocks commits: snapshot and
// tail take the same path from disk to memory. MarkReady is flipped by the
// owner after the first post-replay fairshare publish — /readyz serves
// "recovering" until then. While recovering, FrozenRecordsSince serves the
// snapshot's local image lock-free so peers pulling mid-replay see the
// pre-crash watermark, never a half-replayed histogram.
//
// A failed append or fsync poisons the log: the segment is cut back to the
// last acknowledged frame and every later Commit and Snapshot is refused
// with ErrLogFailed. Nothing retries — after a failed fsync the page cache
// cannot be trusted — so the process must restart, and Open then recovers
// exactly the acknowledged commits.
package durability

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/usage"
)

// SyncPolicy controls when the WAL fsyncs.
type SyncPolicy int

const (
	// SyncAlways fsyncs once per committed record — one fsync per batch,
	// since a batch ingest is a single group-committed record.
	SyncAlways SyncPolicy = iota
	// SyncNone never fsyncs: writes reach the OS page cache only. Survives
	// process death (the scenario harness's restart model) but not power
	// loss.
	SyncNone
)

// ParseSyncPolicy maps the -wal-sync flag values onto a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("durability: unknown sync policy %q (want always|none)", s)
}

// Options configures Open.
type Options struct {
	// Dir is the data directory; created if missing.
	Dir string
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// Metrics receives WAL/snapshot/replay instrumentation (default
	// registry when nil).
	Metrics *telemetry.Registry
	// Spans, when set, records replay and snapshot spans.
	Spans *span.Recorder
}

// Stats is a point-in-time dump of the log's I/O counters.
type Stats struct {
	// Fsyncs counts WAL fsync calls — one per committed record under
	// SyncAlways, so a batch ingest moves it by exactly one.
	Fsyncs int64
	// AppendedBytes counts framed bytes appended to WAL segments.
	AppendedBytes int64
	// Records counts committed mutation records.
	Records int64
	// Snapshots counts completed snapshot writes.
	Snapshots int64
}

// Log is a site's durable usage-state log. Safe for concurrent use.
type Log struct {
	dir    string
	sync   SyncPolicy
	spans  *span.Recorder
	closed bool

	mu   sync.Mutex // serializes append+fsync+apply; held across Replay
	cond *sync.Cond // wakes commits blocked on the recovering state

	seg      *os.File
	segIndex uint64
	segSize  int64 // bytes of seg up to the end of the last acknowledged frame

	// failed holds the sticky ErrLogFailed error once an append or fsync
	// failed; read lock-free by /readyz.
	failed atomic.Pointer[error]

	// recoveringLk mirrors recoveringA under mu; the atomic exists so
	// serving paths can check without touching the commit lock.
	recoveringLk bool
	recoveringA  atomic.Bool
	replayingA   atomic.Bool
	readyA       atomic.Bool

	pending []*usage.Mutation // snapshot frames then WAL tail, awaiting Replay
	// frozen is the snapshot's local-set frame (an empty one without a
	// snapshot), served while recovering; nil once replayed.
	frozen atomic.Pointer[usage.Mutation]

	replayDone  atomic.Int64
	replayTotal int64

	snapMu sync.Mutex // serializes whole Snapshot calls (write phase is off d.mu)

	// reusable frame buffer; guarded by mu.
	buf []byte

	fsyncs    atomic.Int64
	appended  atomic.Int64
	records   atomic.Int64
	snapshots atomic.Int64

	mFsyncSec  *telemetry.Histogram
	mBytes     *telemetry.Counter
	mRecords   *telemetry.Counter
	mSnapSec   *telemetry.Histogram
	mSnaps     *telemetry.Counter
	mReplayed  *telemetry.Counter
	mReplayGap *telemetry.Gauge
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("durability: log closed")

// ErrLogFailed marks a log poisoned by a failed append or fsync. The error a
// poisoned log returns wraps it and the cause.
var ErrLogFailed = errors.New("durability: log failed")

// errRecovering rejects snapshots taken before replay finished.
var errRecovering = errors.New("durability: log is recovering; replay before snapshotting")

// Open loads the durable state in dir: the newest snapshot's frames, then
// the WAL tail past it. The log comes up in the recovering state — the
// caller drains both with Replay before any Commit proceeds. A torn final
// record (crash mid-append) is truncated away silently; CRC mismatches and
// structural damage anywhere else, the snapshot included, fail loudly with
// the file and offset.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("durability: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	if err := removeStale(opts.Dir); err != nil {
		return nil, err
	}

	snap, snapIdx, err := loadNewestSnapshot(opts.Dir)
	if err != nil {
		return nil, err
	}

	all, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, idx := range all {
		if idx >= snapIdx {
			segs = append(segs, idx)
		}
	}
	if snap != nil && (len(segs) == 0 || segs[0] != snapIdx) {
		return nil, fmt.Errorf("durability: snapshot %s exists but WAL segment %s is missing",
			snapshotName(snapIdx), segmentName(snapIdx))
	}
	for i := 1; i < len(segs); i++ {
		if segs[i] != segs[i-1]+1 {
			return nil, fmt.Errorf("durability: WAL segment gap between %s and %s",
				segmentName(segs[i-1]), segmentName(segs[i]))
		}
	}

	d := &Log{dir: opts.Dir, sync: opts.Sync, spans: opts.Spans, pending: snap}
	d.cond = sync.NewCond(&d.mu)
	frozen := &usage.Mutation{Kind: usage.MutLocalSet}
	for _, m := range snap {
		if m.Kind == usage.MutLocalSet {
			frozen = m
		}
	}
	d.frozen.Store(frozen)
	d.registerMetrics(telemetry.OrDefault(opts.Metrics))

	if len(segs) == 0 {
		// Fresh directory (or snapshot-only import): start the segment
		// sequence at the snapshot boundary.
		d.segIndex = snapIdx
		path := filepath.Join(opts.Dir, segmentName(snapIdx))
		f, err := createSegment(path)
		if err != nil {
			return nil, err
		}
		if opts.Sync == SyncAlways {
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, err
			}
			syncDir(opts.Dir)
		}
		d.seg = f
		d.segSize = int64(len(walMagic))
	} else {
		for i, idx := range segs {
			isLast := i == len(segs)-1
			path := filepath.Join(opts.Dir, segmentName(idx))
			keep, err := scanSegment(path, isLast, func(payload []byte) error {
				m, err := usage.DecodeMutation(payload)
				if err != nil {
					return err
				}
				d.pending = append(d.pending, m)
				return nil
			})
			if err != nil {
				return nil, err
			}
			if !isLast {
				continue
			}
			if fi, err := os.Stat(path); err != nil {
				return nil, err
			} else if keep < fi.Size() {
				if err := os.Truncate(path, keep); err != nil {
					return nil, err
				}
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				return nil, err
			}
			d.seg = f
			d.segIndex = idx
			d.segSize = keep
		}
	}

	d.recoveringLk = true
	d.recoveringA.Store(true)
	d.replayTotal = int64(len(d.pending))
	d.mReplayGap.Set(float64(d.replayTotal))
	return d, nil
}

func (d *Log) registerMetrics(reg *telemetry.Registry) {
	d.mFsyncSec = reg.Histogram("aequus_durability_wal_fsync_seconds",
		"WAL fsync latency per committed record.",
		telemetry.ExpBuckets(0.00005, 2, 14))
	d.mBytes = reg.Counter("aequus_durability_wal_appended_bytes_total",
		"Framed bytes appended to WAL segments.")
	d.mRecords = reg.Counter("aequus_durability_wal_records_total",
		"Mutation records committed to the WAL.")
	d.mSnapSec = reg.Histogram("aequus_durability_snapshot_seconds",
		"Wall time to capture, serialize, and publish one snapshot.",
		telemetry.ExpBuckets(0.001, 2, 14))
	d.mSnaps = reg.Counter("aequus_durability_snapshots_total",
		"Completed snapshot writes.")
	d.mReplayed = reg.Counter("aequus_durability_replay_records_total",
		"Snapshot frames and WAL records applied during crash-recovery replay.")
	d.mReplayGap = reg.Gauge("aequus_durability_replay_pending_records",
		"Snapshot frames and WAL records still awaiting replay (0 once recovered).")
}

// Commit durably appends mut, then runs apply while still holding the
// commit lock — the WAL order and the in-memory apply order are the same
// total order. Under SyncAlways this is the group-commit point: one fsync
// per call, so a batch mutation costs one fsync regardless of its size.
// Commits issued while the log is still recovering block until Replay
// drains the tail. A failed append or fsync poisons the log (see fail):
// apply does not run, and neither does any later Commit's.
func (d *Log) Commit(mut *usage.Mutation, apply func()) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.recoveringLk && !d.closed {
		d.cond.Wait()
	}
	if d.closed {
		return ErrClosed
	}
	if err := d.Failed(); err != nil {
		return err
	}
	// One sizing pass plus at most one allocation, instead of growth-doubling
	// a multi-MB batch payload.
	if need := frameHeaderSize + mut.EncodedSize(); cap(d.buf) < need {
		d.buf = make([]byte, 0, need)
	}
	d.buf = appendFrame(d.buf[:0], mut)
	if _, err := d.seg.Write(d.buf); err != nil {
		return d.fail(fmt.Errorf("WAL append: %w", err))
	}
	if d.sync == SyncAlways {
		t0 := time.Now()
		if err := d.seg.Sync(); err != nil {
			return d.fail(fmt.Errorf("WAL fsync: %w", err))
		}
		d.fsyncs.Add(1)
		d.mFsyncSec.Observe(time.Since(t0).Seconds())
	}
	d.segSize += int64(len(d.buf))
	d.appended.Add(int64(len(d.buf)))
	d.records.Add(1)
	d.mBytes.Add(float64(len(d.buf)))
	d.mRecords.Inc()
	if apply != nil {
		apply()
	}
	return nil
}

// fail poisons the log after a failed append or fsync of the current
// segment and returns the sticky error. The segment is cut back to the end
// of the last acknowledged frame, so neither a torn frame nor one whose
// commit was refused reaches the next Open; if that cut fails too, the log
// is failed all the same and the error names both causes. Called with mu
// held.
func (d *Log) fail(cause error) error {
	path := filepath.Join(d.dir, segmentName(d.segIndex))
	err := fmt.Errorf("%w: %w", ErrLogFailed, cause)
	if terr := os.Truncate(path, d.segSize); terr != nil {
		err = fmt.Errorf("%w: %w; cutting %s back to %d bytes: %w", ErrLogFailed, cause, path, d.segSize, terr)
	}
	d.failed.Store(&err)
	return err
}

// Failed returns the error that poisoned the log, or nil while it is
// healthy.
func (d *Log) Failed() error {
	if p := d.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// Replay drains the pending mutations through apply — the snapshot's frames,
// then the WAL tail in commit order — and unblocks commits. The commit lock is held for the whole replay, so no new
// mutation interleaves with the tail — interleaving would put the rebuilt
// state ahead of the WAL and break the next recovery. An apply error aborts
// replay loudly and leaves the log recovering (commits stay blocked).
// Replaying on an already-recovered log is a no-op.
func (d *Log) Replay(apply func(*usage.Mutation) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if !d.recoveringLk {
		return nil
	}
	_, sp := span.Start(span.EnsureRecorder(context.Background(), d.spans), "durability.replay")
	sp.SetAttrInt("records", d.replayTotal)
	d.replayingA.Store(true)
	defer d.replayingA.Store(false)
	for i, m := range d.pending {
		if err := apply(m); err != nil {
			err = fmt.Errorf("durability: replay record %d/%d: %w", i+1, len(d.pending), err)
			sp.SetErr(err)
			sp.End()
			return err
		}
		d.replayDone.Store(int64(i + 1))
		d.mReplayed.Inc()
		d.mReplayGap.Set(float64(d.replayTotal - int64(i+1)))
	}
	d.pending = nil
	d.recoveringLk = false
	d.recoveringA.Store(false)
	d.frozen.Store(nil)
	d.cond.Broadcast()
	sp.End()
	return nil
}

// MarkReady records that the owner finished its first post-replay fairshare
// publish — the point where /readyz may flip ready.
func (d *Log) MarkReady() { d.readyA.Store(true) }

// Recovering reports whether the WAL tail is still unapplied (before or
// during Replay).
func (d *Log) Recovering() bool { return d.recoveringA.Load() }

// Replaying reports whether Replay is actively applying the tail — used by
// mutation hooks to avoid re-committing a mutation that is itself being
// replayed.
func (d *Log) Replaying() bool { return d.replayingA.Load() }

// Ready reports whether MarkReady has been called.
func (d *Log) Ready() bool { return d.readyA.Load() }

// ReplayProgress returns how many of the pending mutations — the
// snapshot's frames, then the WAL tail — have been applied.
func (d *Log) ReplayProgress() (done, total int64) {
	return d.replayDone.Load(), d.replayTotal
}

// FrozenRecordsSince serves the pre-crash local records — the ops of the
// snapshot's local-set frame, still held for Replay — while the log is
// recovering, filtered like Histogram.RecordsSince. The second result is
// false once recovery has finished (callers fall through to the live
// histogram). Lock-free: replay can grind through a long tail while peers
// keep pulling the frozen image.
func (d *Log) FrozenRecordsSince(site string, t time.Time) ([]usage.Record, bool) {
	if !d.recoveringA.Load() {
		return nil, false
	}
	fz := d.frozen.Load()
	if fz == nil {
		// Raced with the end of Replay: the live state is now authoritative.
		return nil, false
	}
	var out []usage.Record
	for _, op := range fz.Ops {
		if start := time.Unix(op.Start, 0).UTC(); !start.Before(t) {
			out = append(out, usage.Record{User: op.User, Site: site, IntervalStart: start, CoreSeconds: op.Value})
		}
	}
	return out, true
}

// Snapshot rotates the WAL and publishes a compacted snapshot. capture runs
// with commits blocked — the cut is consistent with the new segment
// boundary — but it should read histograms stripe-at-a-time
// (Histogram.StripeRecords) so whole-histogram readers never stall behind
// it. Serialization, the file write, and pruning all happen off the commit
// lock. After the snapshot is durable, segments and snapshots it supersedes
// are pruned. A failed log is refused: its state in memory is no longer
// what its WAL says.
func (d *Log) Snapshot(capture func() (*SnapshotState, error)) error {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	t0 := time.Now()
	_, sp := span.Start(span.EnsureRecorder(context.Background(), d.spans), "durability.snapshot")
	defer sp.End()

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		sp.SetErr(ErrClosed)
		return ErrClosed
	}
	if d.recoveringLk {
		d.mu.Unlock()
		sp.SetErr(errRecovering)
		return errRecovering
	}
	if err := d.Failed(); err != nil {
		d.mu.Unlock()
		sp.SetErr(err)
		return err
	}
	// Rotate: the snapshot will cover everything up to and including the
	// current segment, so the new segment starts the uncovered tail.
	if d.sync == SyncAlways {
		if err := d.seg.Sync(); err != nil {
			d.mu.Unlock()
			sp.SetErr(err)
			return fmt.Errorf("durability: pre-rotate fsync: %w", err)
		}
	}
	if err := d.seg.Close(); err != nil {
		d.mu.Unlock()
		sp.SetErr(err)
		return fmt.Errorf("durability: pre-rotate close: %w", err)
	}
	newIdx := d.segIndex + 1
	f, err := createSegment(filepath.Join(d.dir, segmentName(newIdx)))
	if err == nil && d.sync == SyncAlways {
		if serr := f.Sync(); serr != nil {
			f.Close()
			err = serr
		} else {
			syncDir(d.dir)
		}
	}
	if err != nil {
		// The old segment is closed; the log cannot accept commits safely.
		d.closed = true
		d.cond.Broadcast()
		d.mu.Unlock()
		sp.SetErr(err)
		return fmt.Errorf("durability: WAL rotate: %w", err)
	}
	d.seg = f
	d.segIndex = newIdx
	d.segSize = int64(len(walMagic))
	state, err := capture()
	d.mu.Unlock()
	if err != nil {
		// Rotation already happened; an extra segment boundary is harmless.
		sp.SetErr(err)
		return fmt.Errorf("durability: snapshot capture: %w", err)
	}

	size, err := writeSnapshot(d.dir, newIdx, state)
	if err != nil {
		sp.SetErr(err)
		return fmt.Errorf("durability: snapshot write: %w", err)
	}
	d.prune(newIdx)
	d.snapshots.Add(1)
	d.mSnaps.Inc()
	d.mSnapSec.Observe(time.Since(t0).Seconds())
	sp.SetAttrInt("bytes", int64(size))
	sp.SetAttrInt("segment", int64(newIdx))
	return nil
}

// prune removes WAL segments and snapshots superseded by the snapshot at
// keepIdx. Best effort — leftovers are re-pruned on the next snapshot, and
// Open ignores segments below the newest snapshot's index.
func (d *Log) prune(keepIdx uint64) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if idx, ok := parseSegmentName(e.Name()); ok && idx < keepIdx {
			_ = os.Remove(filepath.Join(d.dir, e.Name()))
		}
		if idx, ok := parseSnapshotName(e.Name()); ok && idx < keepIdx {
			_ = os.Remove(filepath.Join(d.dir, e.Name()))
		}
	}
}

// Stats returns the I/O counters.
func (d *Log) Stats() Stats {
	return Stats{
		Fsyncs:        d.fsyncs.Load(),
		AppendedBytes: d.appended.Load(),
		Records:       d.records.Load(),
		Snapshots:     d.snapshots.Load(),
	}
}

// Dir returns the data directory.
func (d *Log) Dir() string { return d.dir }

// Close flushes and closes the active segment. Blocked commits are woken
// and fail with ErrClosed.
func (d *Log) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	d.cond.Broadcast()
	var err error
	if d.sync == SyncAlways {
		err = d.seg.Sync()
	}
	if cerr := d.seg.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so a just-created or just-renamed entry is
// durable. Best effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		_ = f.Sync()
		_ = f.Close()
	}
}
