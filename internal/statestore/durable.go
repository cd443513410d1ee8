package statestore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"knives/internal/telemetry"
	"knives/internal/vfs"
)

// DefaultSnapshotEvery is how many appended events trigger an automatic
// snapshot + WAL truncation when Options does not say.
const DefaultSnapshotEvery = 1024

// Options parameterize a durable store.
type Options struct {
	// DriftWindow trims observation logs in the fold; it must match the
	// service's drift window or recovered logs will differ from live ones.
	// 0 uses the advisor's default (256); negative keeps everything.
	DriftWindow int
	// SnapshotEvery triggers an automatic snapshot after that many
	// appends (0 = DefaultSnapshotEvery, negative = only explicit
	// Snapshot calls).
	SnapshotEvery int
	// Metrics, when set, receives WAL timing histograms
	// (knives_wal_append_seconds, knives_wal_fsync_seconds,
	// knives_wal_snapshot_seconds) and recovery/snapshot gauges. Nil
	// disables instrumentation at zero cost — the histogram handles stay
	// nil and their methods no-op.
	Metrics *telemetry.Registry
}

// snapshot file names.
const (
	snapName    = "snapshot.db"
	snapTmpName = "snapshot.tmp"
)

// RecoveryReport describes what Open found and replayed.
type RecoveryReport struct {
	// SnapshotSeq is the last WAL sequence the loaded snapshot covered
	// (0 = no snapshot).
	SnapshotSeq uint64
	// Segments is how many WAL segment files were scanned.
	Segments int
	// Records is how many journal records were replayed into state.
	Records int64
	// SkippedOld counts records at or below the snapshot sequence
	// (legal overlap from a crash between snapshot and truncation).
	SkippedOld int64
	// SkippedUnknown counts decoded events naming tables the fold does
	// not know — the journal image of the eviction race, where the live
	// mutation landed on an orphaned tracker too.
	SkippedUnknown int64
	// TornBytes is the length of the torn tail truncated from the last
	// segment (0 = the WAL ended cleanly).
	TornBytes int64
	// Tables is how many tables were recovered.
	Tables int
}

// Durable is the WAL-backed store: Append journals events with CRC-framed
// records before the service applies them, Snapshot compacts the journal,
// and Open replays snapshot + WAL back into the state the daemon died
// with. All methods are safe for concurrent use; appends are committed in
// queue order — concurrent callers share one write and one fsync — so
// journal order is apply order.
type Durable struct {
	fs  vfs.FS
	opt Options

	// The commit queue. An appender enqueues its group and waits; whoever
	// finds no commit in flight leads one for everything queued. qmu is
	// never held across I/O, so callers keep queueing while a leader is in
	// its fsync, and they are the next commit.
	qmu        sync.Mutex
	qcond      *sync.Cond // on qmu: a commit finished
	queue      []*commitReq
	committing bool

	mu        sync.Mutex // the store's state; a commit holds it from write to fold
	st        *state
	recovered []TableState
	report    RecoveryReport

	seg        vfs.File // active segment (nil after a failed rotation)
	segName    string
	segEnd     int64 // length of the valid record prefix
	lastSeq    uint64
	snapSeq    uint64
	sinceSnap  int
	needRepair bool // a failed commit may have left bytes past segEnd
	closed     bool

	snapshots    int64
	snapshotErrs int64

	// WAL telemetry; nil (and therefore free) without Options.Metrics.
	appendHist    *telemetry.Histogram
	fsyncHist     *telemetry.Histogram
	snapHist      *telemetry.Histogram
	commitEvents  *telemetry.Histogram
	commitCallers *telemetry.Counter
}

// commitReq is one caller's event group in the commit queue. err and done
// are written by the commit's leader under qmu.
type commitReq struct {
	evs  []Event
	err  error
	done bool
}

// Open replays the directory's snapshot and WAL segments and returns a
// store ready to append. Torn tails on the last segment are truncated;
// any other damage is a typed error (ErrCorrupt / ErrCorruptSnapshot).
func Open(fsys vfs.FS, opt Options) (*Durable, error) {
	if opt.DriftWindow == 0 {
		opt.DriftWindow = 256
	}
	if opt.SnapshotEvery == 0 {
		opt.SnapshotEvery = DefaultSnapshotEvery
	}
	d := &Durable{fs: fsys, opt: opt, st: newState(opt.DriftWindow)}
	d.qcond = sync.NewCond(&d.qmu)

	names, err := fsys.List()
	if err != nil {
		return nil, err
	}
	var segs []uint64
	haveSnap := false
	for _, name := range names {
		if base, ok := parseSegmentName(name); ok {
			segs = append(segs, base)
		}
		if name == snapName {
			haveSnap = true
		}
		if name == snapTmpName {
			// A snapshot that never completed; the rename never happened,
			// so it covers nothing. Clean it up, best effort.
			_ = fsys.Remove(name)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	if haveSnap {
		b, err := fsys.ReadFile(snapName)
		if err != nil {
			return nil, err
		}
		snap, err := decodeSnapshot(b)
		if err != nil {
			return nil, err
		}
		// A restart may shrink the drift window; re-trim so recovered
		// logs obey the window the trackers will run under.
		for i := range snap.tables {
			snap.tables[i].Log = trimLog(snap.tables[i].Log, opt.DriftWindow)
		}
		d.st.seed(snap.tables, snap.nextOrder)
		d.snapSeq = snap.lastSeq
		d.report.SnapshotSeq = snap.lastSeq
	}
	d.lastSeq = d.snapSeq

	expected := d.snapSeq + 1
	skippedBefore := d.st.skipped
	for i, base := range segs {
		name := segmentName(base)
		data, err := fsys.ReadFile(name)
		if err != nil {
			return nil, err
		}
		scan := scanSegment(data)
		last := i == len(segs)-1
		if scan.torn && !last {
			return nil, fmt.Errorf("%w: segment %s has %d trailing bytes but is not the last segment",
				ErrCorrupt, name, int64(len(data))-scan.validLen)
		}
		for _, rec := range scan.records {
			switch {
			case rec.seq < expected:
				d.report.SkippedOld++
				continue
			case rec.seq > expected:
				return nil, fmt.Errorf("%w: segment %s skips from seq %d to %d",
					ErrCorrupt, name, expected-1, rec.seq)
			}
			ev, err := decodeEvent(rec.payload)
			if err != nil {
				return nil, fmt.Errorf("seq %d: %w", rec.seq, err)
			}
			d.st.apply(ev)
			d.report.Records++
			d.lastSeq = rec.seq
			expected++
		}
		d.report.Segments++
		if last {
			d.report.TornBytes = int64(len(data)) - scan.validLen
			// Reopen the tail segment for appending, repairing the torn
			// tail so the next record starts at a clean boundary.
			f, err := fsys.Open(name)
			if err != nil {
				return nil, err
			}
			if scan.torn {
				if err := f.Truncate(scan.validLen); err != nil {
					f.Close()
					return nil, err
				}
			}
			d.seg, d.segName, d.segEnd = f, name, scan.validLen
		}
	}
	d.report.SkippedUnknown = d.st.skipped - skippedBefore
	d.recovered = d.st.export()
	d.report.Tables = len(d.recovered)
	d.bindMetrics(opt.Metrics)
	return d, nil
}

// bindMetrics registers the store's histograms and gauges on reg; a nil reg
// leaves every handle nil, and the nil-safe metric methods make the
// instrumentation points free.
func (d *Durable) bindMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.SetHelp("knives_wal_append_seconds", "WAL append latency per caller: enqueued through acknowledged, including the wait for and the fsync of its commit.")
	reg.SetHelp("knives_wal_fsync_seconds", "WAL fsync latency (one observation per fsync; every commit syncs).")
	reg.SetHelp("knives_wal_snapshot_seconds", "Snapshot + WAL truncation latency.")
	reg.SetHelp("knives_wal_commit_events", "Events made durable per WAL fsync.")
	reg.SetHelp("knives_wal_commit_callers_total", "Append calls acknowledged by WAL commits; over knives_wal_fsync_seconds_count it is the callers sharing one fsync.")
	d.appendHist = reg.Histogram("knives_wal_append_seconds")
	d.fsyncHist = reg.Histogram("knives_wal_fsync_seconds")
	d.snapHist = reg.Histogram("knives_wal_snapshot_seconds")
	d.commitEvents = reg.Histogram("knives_wal_commit_events")
	d.commitCallers = reg.Counter("knives_wal_commit_callers_total")
	reg.GaugeFunc("knives_wal_last_seq", func() float64 { return float64(d.LastSeq()) })
	reg.CounterFunc("knives_wal_snapshots_total", func() int64 { n, _ := d.Snapshots(); return n })
	reg.CounterFunc("knives_wal_snapshot_errors_total", func() int64 { _, e := d.Snapshots(); return e })
	rep := d.report
	reg.GaugeFunc("knives_recovery_snapshot_seq", func() float64 { return float64(rep.SnapshotSeq) })
	reg.GaugeFunc("knives_recovery_segments", func() float64 { return float64(rep.Segments) })
	reg.GaugeFunc("knives_recovery_records", func() float64 { return float64(rep.Records) })
	reg.GaugeFunc("knives_recovery_torn_bytes", func() float64 { return float64(rep.TornBytes) })
	reg.GaugeFunc("knives_recovery_skipped_old", func() float64 { return float64(rep.SkippedOld) })
	reg.GaugeFunc("knives_recovery_skipped_unknown", func() float64 { return float64(rep.SkippedUnknown) })
	reg.GaugeFunc("knives_recovery_tables", func() float64 { return float64(rep.Tables) })
}

func (d *Durable) Journaling() bool { return true }

// Recovered returns the state replayed at open (read-only).
func (d *Durable) Recovered() []TableState { return d.recovered }

// Report returns what Open found.
func (d *Durable) Report() RecoveryReport { return d.report }

// LastSeq returns the last durably appended sequence number.
func (d *Durable) LastSeq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastSeq
}

// Snapshots returns (taken, failed) automatic+explicit snapshot counts.
func (d *Durable) Snapshots() (int64, int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshots, d.snapshotErrs
}

// Export returns the current folded state — what a crash right now would
// recover to, given every acknowledged append.
func (d *Durable) Export() []TableState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.st.export()
}

// ensureSegmentLocked makes the active segment appendable: recreates it
// after a failed rotation, truncates torn bytes a failed append left.
func (d *Durable) ensureSegmentLocked() error {
	if d.seg == nil {
		name := segmentName(d.lastSeq + 1)
		f, err := d.fs.Create(name)
		if err != nil {
			return err
		}
		if err := d.fs.SyncDir(); err != nil {
			f.Close()
			return err
		}
		d.seg, d.segName, d.segEnd = f, name, 0
		d.needRepair = false
		return nil
	}
	if d.needRepair {
		if err := d.seg.Truncate(d.segEnd); err != nil {
			return err
		}
		d.needRepair = false
	}
	return nil
}

// Append journals one event: a one-event group through the same commit as
// AppendBatch. On any failure the event is NOT applied and the WAL is
// repaired before the next commit — so a caller that journals before
// mutating can simply retry.
func (d *Durable) Append(ev Event) error {
	return d.appendGroup(context.Background(), []Event{ev})
}

// AppendBatch journals a group of events as one unit of a commit: its
// frames are contiguous in the journal, in order, and it shares the
// commit's single write and single fsync with whatever other groups
// were queued. On any failure none of the events are applied and the WAL
// is repaired to the last valid boundary before the next commit, so a
// prefix of the group never leaks into the folded state — though it may
// survive on disk and replay after a crash, exactly like a single
// unacknowledged Append.
func (d *Durable) AppendBatch(evs []Event) error {
	return d.AppendBatchContext(context.Background(), evs)
}

// AppendBatchContext is AppendBatch for a caller inside a traced request:
// if this caller ends up leading the commit, the commit is recorded as a
// "wal commit" span on ctx's trace. The context does not bound the append.
func (d *Durable) AppendBatchContext(ctx context.Context, evs []Event) error {
	if len(evs) == 0 {
		return nil
	}
	return d.appendGroup(ctx, evs)
}

// errCommitAborted answers the callers of a commit whose leader panicked
// out of it (a crash point in tests); none of their events were folded.
var errCommitAborted = errors.New("statestore: commit aborted")

// appendGroup is the one append path: enqueue, then either ride a commit
// someone else leads or lead one. All-or-nothing per caller, and per
// commit: every group in a commit gets that commit's result.
func (d *Durable) appendGroup(ctx context.Context, evs []Event) error {
	t0 := time.Now()
	req := &commitReq{evs: evs}
	d.qmu.Lock()
	d.queue = append(d.queue, req)
	for !req.done && d.committing {
		d.qcond.Wait()
	}
	if req.done {
		d.qmu.Unlock()
	} else {
		d.leadLocked(ctx)
	}
	if req.err == nil {
		d.appendHist.Since(t0)
	}
	return req.err
}

// leadLocked commits everything queued — the caller's own group included —
// and answers every caller in it. Called with qmu held and no commit in
// flight; returns with qmu released. The answer is deferred so that a
// panicking file system cannot strand the followers.
func (d *Durable) leadLocked(ctx context.Context) {
	batch := d.queue
	d.queue = nil
	d.committing = true
	d.qmu.Unlock()
	err := errCommitAborted
	defer func() {
		d.qmu.Lock()
		for _, r := range batch {
			r.err, r.done = err, true
		}
		d.committing = false
		d.qmu.Unlock()
		d.qcond.Broadcast()
	}()
	err = d.commit(ctx, batch)
}

// commit journals the batch's groups as one write with contiguous sequence
// numbers, fsyncs once, then folds the events in queue
// order. A failed write or fsync fails the whole batch: nothing is folded
// and the next commit truncates back to the pre-commit boundary.
func (d *Durable) commit(ctx context.Context, batch []*commitReq) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.ensureSegmentLocked(); err != nil {
		return err
	}
	first, n := d.lastSeq+1, 0
	var frame []byte
	for _, r := range batch {
		for _, ev := range r.evs {
			frame = appendRecord(frame, first+uint64(n), ev.encode())
			n++
		}
	}
	last := first + uint64(n) - 1
	if telemetry.TraceFrom(ctx) != nil {
		_, sp := telemetry.StartSpan(ctx, fmt.Sprintf("wal commit (%d callers, %d events)", len(batch), n))
		defer sp.End()
	}
	// Until the commit is acknowledged the segment may hold bytes past
	// segEnd — a torn write, or whole records whose fsync failed; either
	// way the next commit truncates them before anything else lands.
	d.needRepair = true
	if _, err := d.seg.Write(frame); err != nil {
		return fmt.Errorf("statestore: append seq %d..%d: %w", first, last, err)
	}
	tSync := time.Now()
	err := d.seg.Sync()
	d.fsyncHist.Since(tSync)
	if err != nil {
		// Not durable: report failure; the callers retry.
		return fmt.Errorf("statestore: sync seq %d..%d: %w", first, last, err)
	}
	d.commitEvents.Observe(float64(n))
	d.needRepair = false
	d.commitCallers.Add(int64(len(batch)))
	d.segEnd += int64(len(frame))
	d.lastSeq = last
	for _, r := range batch {
		for _, ev := range r.evs {
			d.st.apply(ev)
		}
	}
	d.sinceSnap += n
	if d.opt.SnapshotEvery > 0 && d.sinceSnap >= d.opt.SnapshotEvery {
		// The records are durable; a failed automatic snapshot must not
		// fail the commit. It is retried at the next cadence.
		if err := d.snapshotLocked(); err != nil {
			d.snapshotErrs++
		}
		d.sinceSnap = 0
	}
	return nil
}

// Snapshot persists the current folded state and truncates the WAL.
func (d *Durable) Snapshot() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.snapshotLocked(); err != nil {
		d.snapshotErrs++
		return err
	}
	d.sinceSnap = 0
	return nil
}

// snapshotLocked: rotate the WAL, write the snapshot atomically, drop the
// segments it covers. Every crash window leaves a recoverable directory:
// before the rename the old snapshot + all segments replay; after it the
// new snapshot skips old records by sequence.
func (d *Durable) snapshotLocked() error {
	t0 := time.Now()
	defer d.snapHist.Since(t0)
	data := encodeSnapshot(snapshotData{
		lastSeq:   d.lastSeq,
		window:    int64(d.opt.DriftWindow),
		nextOrder: d.st.nextOrder,
		tables:    d.st.export(),
	})
	// Rotate so the active segment holds only post-snapshot records and
	// older segments become droppable. An empty active segment already is
	// the rotation.
	if d.seg != nil && d.segEnd > 0 {
		syncErr := d.seg.Sync()
		closeErr := d.seg.Close()
		d.seg = nil
		if syncErr != nil {
			return syncErr
		}
		if closeErr != nil {
			return closeErr
		}
	}
	if err := d.ensureSegmentLocked(); err != nil {
		return err
	}

	tmp, err := d.fs.Create(snapTmpName)
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
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
	if err := d.fs.Rename(snapTmpName, snapName); err != nil {
		return err
	}
	if err := d.fs.SyncDir(); err != nil {
		return err
	}
	d.snapSeq = d.lastSeq
	d.snapshots++

	// The snapshot is live; every non-active segment's records are at or
	// below snapSeq. Removal is cleanup, not correctness — a failure here
	// is retried by the next snapshot.
	names, err := d.fs.List()
	if err != nil {
		return nil
	}
	for _, name := range names {
		if _, ok := parseSegmentName(name); ok && name != d.segName {
			_ = d.fs.Remove(name)
		}
	}
	_ = d.fs.SyncDir()
	return nil
}

// Close fsyncs and releases the WAL. The store is unusable afterwards.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if d.seg == nil {
		return nil
	}
	syncErr := d.seg.Sync()
	closeErr := d.seg.Close()
	d.seg = nil
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
