package statestore

import (
	"bytes"
	"testing"

	"knives/internal/faultinject"
)

// chunk splits evs into batches of at most n.
func chunk(evs []Event, n int) [][]Event {
	var out [][]Event
	for len(evs) > 0 {
		k := n
		if k > len(evs) {
			k = len(evs)
		}
		out = append(out, evs[:k])
		evs = evs[k:]
	}
	return out
}

func TestAppendBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opt := Options{DriftWindow: 16, SnapshotEvery: 25}
	d := mustOpen(t, mustDir(t, dir), opt)
	evs := testEvents(120)
	for i, group := range chunk(evs, 7) {
		if err := d.AppendBatch(group); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if got := d.LastSeq(); got != 120 {
		t.Fatalf("lastSeq = %d, want 120 (one seq per event, not per batch)", got)
	}
	// Group commits fold event-by-event: the live state and a reopen must
	// both equal the oracle over the flat stream.
	if !bytes.Equal(MarshalStates(d.Export()), MarshalStates(Oracle(evs, 16))) {
		t.Fatalf("live fold diverges from oracle after batched appends")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	reopenEqual(t, dir, opt, evs).Close()
}

func TestAppendBatchEmptyIsNoop(t *testing.T) {
	d := mustOpen(t, mustDir(t, t.TempDir()), Options{DriftWindow: 16, SnapshotEvery: -1})
	defer d.Close()
	if err := d.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := d.AppendBatch([]Event{}); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if got := d.LastSeq(); got != 0 {
		t.Fatalf("empty batches must not consume sequences, lastSeq = %d", got)
	}
}

// TestAppendBatchGroupCommitCosts pins the point of group commit: a batch
// of N events costs exactly one file write and at most one fsync, where N
// single appends cost N of each.
func TestAppendBatchGroupCommitCosts(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(mustDir(t, dir))
	d := mustOpen(t, inj, Options{DriftWindow: 16, SnapshotEvery: -1})
	defer d.Close()
	evs := testEvents(64)

	// Warm up: segment creation does a dir sync; take baselines after.
	if err := d.Append(evs[0]); err != nil {
		t.Fatal(err)
	}
	w0, s0 := inj.Count(faultinject.OpWrite), inj.Count(faultinject.OpSync)

	if err := d.AppendBatch(evs[1:33]); err != nil {
		t.Fatal(err)
	}
	if dw := inj.Count(faultinject.OpWrite) - w0; dw != 1 {
		t.Fatalf("32-event batch used %d writes, want 1", dw)
	}
	if ds := inj.Count(faultinject.OpSync) - s0; ds != 1 {
		t.Fatalf("32-event batch used %d syncs, want 1", ds)
	}

	w1, s1 := inj.Count(faultinject.OpWrite), inj.Count(faultinject.OpSync)
	for _, ev := range evs[33:] {
		if err := d.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	n := int64(len(evs[33:]))
	if dw := inj.Count(faultinject.OpWrite) - w1; dw != n {
		t.Fatalf("%d single appends used %d writes, want %d", n, dw, n)
	}
	if ds := inj.Count(faultinject.OpSync) - s1; ds != n {
		t.Fatalf("%d single appends used %d syncs, want %d", n, ds, n)
	}
}

// TestAppendBatchFailureAppliesNothing: a failed group applies none of its
// events — all-or-nothing at the caller level — and a retry succeeds with
// no burned sequences.
func TestAppendBatchFailureAppliesNothing(t *testing.T) {
	cases := []struct {
		name   string
		faults []faultinject.Fault
	}{
		// The first batch costs one write (+ the dir sync and record sync);
		// fault the second batch's write or sync.
		{"fail-write", []faultinject.Fault{faultinject.FailNthWrite(2)}},
		{"torn-write", []faultinject.Fault{faultinject.TornNthWrite(2, 9)}},
		{"fail-sync", []faultinject.Fault{faultinject.FailNthSync(3)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := faultinject.New(mustDir(t, dir), tc.faults...)
			opt := Options{DriftWindow: 16, SnapshotEvery: -1}
			d := mustOpen(t, inj, opt)
			evs := testEvents(20)
			if err := d.AppendBatch(evs[:8]); err != nil {
				t.Fatalf("first batch: %v", err)
			}
			if err := d.AppendBatch(evs[8:20]); err == nil {
				t.Fatalf("fault did not fire")
			}
			// Nothing from the failed group may be visible.
			if got := d.LastSeq(); got != 8 {
				t.Fatalf("lastSeq = %d after failed batch, want 8", got)
			}
			if !bytes.Equal(MarshalStates(d.Export()), MarshalStates(Oracle(evs[:8], 16))) {
				t.Fatalf("failed batch leaked into the folded state")
			}
			// Retry the whole group; the WAL is repaired first.
			if err := d.AppendBatch(evs[8:20]); err != nil {
				t.Fatalf("retry: %v", err)
			}
			if got := d.LastSeq(); got != 20 {
				t.Fatalf("lastSeq = %d after retry, want 20 (retries must not burn seqs)", got)
			}
			d.Close()
			reopenEqual(t, dir, opt, evs).Close()
		})
	}
}

// TestAppendBatchTornGroupRecovery crashes mid-group-write: recovery must
// land on a clean per-record boundary — the acked events plus some prefix
// of the unacknowledged group, never a suffix or a partial record. That is
// the same in-doubt window a single unacked Append has, and legal under
// the service's at-least-once observe ingestion.
func TestAppendBatchTornGroupRecovery(t *testing.T) {
	for _, keep := range []int{0, 1, 13, 40, 200, 1 << 14} {
		dir := t.TempDir()
		opt := Options{DriftWindow: 16, SnapshotEvery: -1}
		inj := faultinject.New(mustDir(t, dir), faultinject.CrashAtWrite(2, keep))
		d := mustOpen(t, inj, opt)
		evs := testEvents(24)
		if err := d.AppendBatch(evs[:8]); err != nil {
			t.Fatalf("keep=%d: first batch: %v", keep, err)
		}
		if err := d.AppendBatch(evs[8:24]); err == nil {
			t.Fatalf("keep=%d: crash did not fire", keep)
		}
		if !inj.Crashed() {
			t.Fatalf("keep=%d: injector did not crash", keep)
		}
		// "Reboot": reopen the directory fresh and require the recovered
		// state to be the oracle over acked events plus SOME prefix of the
		// torn group.
		d2 := mustOpen(t, mustDir(t, dir), opt)
		got := MarshalStates(d2.Recovered())
		matched := -1
		for p := 0; p <= 16; p++ {
			if bytes.Equal(got, MarshalStates(Oracle(evs[:8+p], 16))) {
				matched = p
				break
			}
		}
		if matched < 0 {
			t.Fatalf("keep=%d: recovered state is not acked+prefix for any prefix length", keep)
		}
		// The store must be appendable after the repair.
		if err := d2.Append(evs[0]); err != nil {
			t.Fatalf("keep=%d: append after torn-group recovery: %v", keep, err)
		}
		d2.Close()
	}
}

// TestAppendBatchTriggersAutoSnapshot: SnapshotEvery counts events across
// batches, so a large group can cross the threshold in one commit.
func TestAppendBatchTriggersAutoSnapshot(t *testing.T) {
	d := mustOpen(t, mustDir(t, t.TempDir()), Options{DriftWindow: 16, SnapshotEvery: 10})
	defer d.Close()
	if err := d.AppendBatch(testEvents(25)); err != nil {
		t.Fatal(err)
	}
	if snaps, fails := d.Snapshots(); snaps != 1 || fails != 0 {
		t.Fatalf("snapshots = %d (failed %d), want exactly 1 automatic", snaps, fails)
	}
}

func TestAppendBatchClosed(t *testing.T) {
	d := mustOpen(t, mustDir(t, t.TempDir()), Options{DriftWindow: 16})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendBatch(testEvents(2)); err != ErrClosed {
		t.Fatalf("AppendBatch on closed store: %v, want ErrClosed", err)
	}
}
