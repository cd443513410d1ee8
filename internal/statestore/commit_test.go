package statestore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knives/internal/faultinject"
	"knives/internal/telemetry"
	"knives/internal/vfs"
)

// syncFS counts file fsyncs and, with a delay, holds each one open long
// enough for concurrent appenders to queue behind it — the situation the
// combining commit exists for, made deterministic.
type syncFS struct {
	vfs.FS
	delay time.Duration
	syncs atomic.Int64
}

type syncFile struct {
	vfs.File
	fs *syncFS
}

func (s *syncFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return syncFile{File: f, fs: s}, nil
}

func (s *syncFS) Create(name string) (vfs.File, error) { return s.wrap(s.FS.Create(name)) }
func (s *syncFS) Open(name string) (vfs.File, error)   { return s.wrap(s.FS.Open(name)) }

func (f syncFile) Sync() error {
	f.fs.syncs.Add(1)
	time.Sleep(f.fs.delay)
	return f.File.Sync()
}

// callerTable is the table appender g owns. Each appender observes only its
// own table, so the fold of the journal does not depend on how the
// appenders' groups interleaved — any order that keeps each appender's own
// order folds to the same state, and the oracle can take them one appender
// after the other.
func callerTable(g int) string { return fmt.Sprintf("t%d", g) }

func registerCallerTables(t testing.TB, d *Durable, n int) []Event {
	t.Helper()
	var evs []Event
	for g := 0; g < n; g++ {
		ev := Event{Type: EvAdviseCommit, Table: callerTable(g), Schema: testSchema(callerTable(g)),
			ModelKey: "hdd:v1", Advice: testAdvice(g), FP: testFP(g)}
		if err := d.Append(ev); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// taggedGroup is appender g's m-th group, attempt a: size events whose IDs
// say which group they belong to and where in it they sit.
func taggedGroup(g, m, attempt, size int) []Event {
	evs := make([]Event, size)
	for i := range evs {
		evs[i] = Event{Type: EvObserve, Table: callerTable(g), Queries: []QueryRec{{
			ID: fmt.Sprintf("%d/%d/%d/%d/%d", g, m, attempt, size, i), Weight: 1, Attrs: uint64(1 + i%7)}}}
	}
	return evs
}

// readJournal returns every record of the directory's WAL segments in
// sequence order.
func readJournal(t *testing.T, fsys vfs.FS) (seqs []uint64, evs []Event) {
	t.Helper()
	names, err := fsys.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names { // List sorts, and segment names sort by base
		if _, ok := parseSegmentName(name); !ok {
			continue
		}
		data, err := fsys.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		scan := scanSegment(data)
		if scan.torn {
			t.Fatalf("segment %s has a torn tail after a clean close", name)
		}
		for _, rec := range scan.records {
			ev, err := decodeEvent(rec.payload)
			if err != nil {
				t.Fatal(err)
			}
			seqs, evs = append(seqs, rec.seq), append(evs, ev)
		}
	}
	return seqs, evs
}

// TestCombiningCommitFaults runs concurrent appenders over a file system
// that fails one commit's write or fsync. Every caller of the failed commit
// must get the error and retry; what the store folded, what the journal
// holds and what a reopen recovers must each be exactly the acknowledged
// groups — contiguous sequence numbers, every group's frames adjacent and
// in order, every appender's groups in the order it appended them.
func TestCombiningCommitFaults(t *testing.T) {
	const appenders, groups = 6, 12
	cases := []struct {
		name   string
		faults []faultinject.Fault
	}{
		// Registration costs one write and one file sync per table (plus
		// the first segment's dir sync); the faults land well inside the
		// concurrent phase, which needs at least groups commits.
		{"fail-write", []faultinject.Fault{faultinject.FailNthWrite(appenders + 4)}},
		{"torn-write", []faultinject.Fault{faultinject.TornNthWrite(appenders+5, 11)}},
		{"fail-sync", []faultinject.Fault{faultinject.FailNthSync(appenders + 6)}},
		{"write-then-sync", []faultinject.Fault{
			faultinject.FailNthWrite(appenders + 3), faultinject.FailNthSync(appenders + 7)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := faultinject.New(&syncFS{FS: mustDir(t, dir), delay: 200 * time.Microsecond}, tc.faults...)
			opt := Options{DriftWindow: 16, SnapshotEvery: -1}
			d := mustOpen(t, inj, opt)
			reg := registerCallerTables(t, d, appenders)

			acked := make([][]Event, appenders)
			var failures atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < appenders; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for m := 0; m < groups; m++ {
						for attempt := 0; ; attempt++ {
							evs := taggedGroup(g, m, attempt, 1+(g+m)%4)
							err := d.AppendBatch(evs)
							if err == nil {
								acked[g] = append(acked[g], evs...)
								break
							}
							if !errors.Is(err, faultinject.ErrInjected) || attempt >= len(tc.faults) {
								t.Errorf("appender %d group %d attempt %d: %v", g, m, attempt, err)
								return
							}
							failures.Add(1)
						}
					}
				}(g)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if failures.Load() == 0 {
				t.Fatalf("no fault fired")
			}

			want := append([]Event(nil), reg...)
			for _, evs := range acked {
				want = append(want, evs...)
			}
			if got := d.LastSeq(); got != uint64(len(want)) {
				t.Fatalf("lastSeq = %d, want %d: a failed commit burned or leaked sequence numbers", got, len(want))
			}
			if !bytes.Equal(MarshalStates(d.Export()), MarshalStates(Oracle(want, opt.DriftWindow))) {
				t.Fatalf("live fold is not the fold of exactly the acknowledged groups")
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			seqs, journal := readJournal(t, mustDir(t, dir))
			for i, seq := range seqs {
				if seq != uint64(i+1) {
					t.Fatalf("journal record %d has seq %d: sequence numbers are not contiguous", i, seq)
				}
			}
			next := make([]int, appenders) // per appender: index into acked[g] of the next expected event
			for i := len(reg); i < len(journal); {
				var g, m, attempt, size, pos int
				id := journal[i].Queries[0].ID
				if _, err := fmt.Sscanf(id, "%d/%d/%d/%d/%d", &g, &m, &attempt, &size, &pos); err != nil {
					t.Fatalf("journal record %d: unparseable id %q", i, id)
				}
				for k := 0; k < size; k, i = k+1, i+1 {
					if i >= len(journal) || next[g] >= len(acked[g]) ||
						journal[i].Queries[0].ID != acked[g][next[g]].Queries[0].ID ||
						!strings.HasSuffix(journal[i].Queries[0].ID, fmt.Sprintf("/%d/%d", size, k)) {
						t.Fatalf("journal record %d: group %q is not contiguous, in order, and acknowledged", i, id)
					}
					next[g]++
				}
			}
			for g := range acked {
				if next[g] != len(acked[g]) {
					t.Fatalf("appender %d: journal holds %d of its %d acknowledged events", g, next[g], len(acked[g]))
				}
			}
			reopenEqual(t, dir, opt, want).Close()
		})
	}
}

// TestCombiningCommitCloseRace closes the store under queued appenders:
// every one of them must return — acknowledged or ErrClosed, nothing else —
// and none may be left waiting for a commit that will never run.
func TestCombiningCommitCloseRace(t *testing.T) {
	const appenders = 8
	dir := t.TempDir()
	opt := Options{DriftWindow: 16, SnapshotEvery: -1}
	d := mustOpen(t, &syncFS{FS: mustDir(t, dir), delay: 100 * time.Microsecond}, opt)
	reg := registerCallerTables(t, d, appenders)

	acked := make([][]Event, appenders)
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for m := 0; ; m++ {
				evs := taggedGroup(g, m, 0, 1+m%3)
				if err := d.AppendBatch(evs); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("appender %d group %d: %v, want nil or ErrClosed", g, m, err)
					}
					return
				}
				acked[g] = append(acked[g], evs...)
			}
		}(g)
	}
	for d.LastSeq() < uint64(len(reg)+4*appenders) {
		time.Sleep(50 * time.Microsecond)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait() // a stranded appender hangs here until the test timeout

	want := append([]Event(nil), reg...)
	for _, evs := range acked {
		want = append(want, evs...)
	}
	reopenEqual(t, dir, opt, want).Close()
}

// TestCombiningCommitShares is the one assertion that the combining happens
// at all: appenders that arrive during an fsync share the next one.
func TestCombiningCommitShares(t *testing.T) {
	const appenders, groups = 8, 25
	fsys := &syncFS{FS: mustDir(t, t.TempDir()), delay: time.Millisecond}
	reg := telemetry.NewRegistry()
	d := mustOpen(t, fsys, Options{DriftWindow: 16, SnapshotEvery: -1, Metrics: reg})
	defer d.Close()
	registerCallerTables(t, d, appenders)
	s0 := fsys.syncs.Load()

	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for m := 0; m < groups; m++ {
				if err := d.AppendBatch(taggedGroup(g, m, 0, 2)); err != nil {
					t.Errorf("appender %d group %d: %v", g, m, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	fsyncs := fsys.syncs.Load() - s0
	if fsyncs <= 0 || fsyncs >= appenders*groups {
		t.Fatalf("%d appends cost %d fsyncs: concurrent appenders did not share commits", appenders*groups, fsyncs)
	}
	// The scrape tells the same story: one append observation per caller,
	// one fsync observation per fsync, callers and events attributed to
	// the commits that carried them.
	out := reg.String()
	for _, want := range []string{
		fmt.Sprintf("knives_wal_append_seconds_count %d", appenders+appenders*groups),
		fmt.Sprintf("knives_wal_commit_callers_total %d", appenders+appenders*groups),
		fmt.Sprintf("knives_wal_fsync_seconds_count %d", appenders+int(fsyncs)),
		fmt.Sprintf("knives_wal_commit_events_count %d", appenders+int(fsyncs)),
		fmt.Sprintf("knives_wal_commit_events_sum %d", appenders+2*appenders*groups),
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
}

// TestCommitSpanOnLeaderTrace: a traced caller that leads a commit gets a
// "wal commit" span saying how many callers and events it carried.
func TestCommitSpanOnLeaderTrace(t *testing.T) {
	d := mustOpen(t, mustDir(t, t.TempDir()), Options{DriftWindow: 16, SnapshotEvery: -1})
	defer d.Close()
	ctx, tr := telemetry.NewTrace(context.Background(), "POST /observe")
	if err := d.AppendBatchContext(ctx, testEvents(5)); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "wal commit (1 callers, 5 events)" {
		t.Fatalf("spans = %+v, want one \"wal commit (1 callers, 5 events)\"", spans)
	}
}

// BenchmarkDurableAppendConcurrent appends 4-event groups from 1, 2 and 8
// goroutines on the OS file system. fsyncs/append is the combining: 1 with
// a single appender, falling as appenders overlap each other's fsyncs.
func BenchmarkDurableAppendConcurrent(b *testing.B) {
	for _, appenders := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("appenders=%d", appenders), func(b *testing.B) {
			base, err := vfs.Dir(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			fsys := &syncFS{FS: base}
			d, err := Open(fsys, Options{DriftWindow: 256, SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			registerCallerTables(b, d, appenders)
			s0 := fsys.syncs.Load()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for g := 0; g < appenders; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for m := int(next.Add(1)); m <= b.N; m = int(next.Add(1)) {
						if err := d.AppendBatch(taggedGroup(g, m, 0, 4)); err != nil {
							b.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(fsys.syncs.Load()-s0)/float64(b.N), "fsyncs/append")
		})
	}
}
