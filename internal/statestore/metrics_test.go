package statestore

import (
	"strings"
	"testing"

	"knives/internal/telemetry"
)

// TestDurableMetrics checks that a metrics-bound store fills the WAL timing
// histograms on append/fsync/snapshot and exposes the recovery report.
func TestDurableMetrics(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	d, err := Open(mustDir(t, dir), Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(Event{Type: EvAdviseCommit, Table: "t",
		Schema: TableRec{Name: "t", Rows: 1000, Columns: []ColumnRec{{Name: "a", Size: 4}}}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		ev := Event{Type: EvObserve, Table: "t",
			Queries: []QueryRec{{ID: "q", Weight: 1, Attrs: uint64(1 + i%7)}}}
		if err := d.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	out := reg.String()
	if err := telemetry.CheckExposition(out); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		"knives_wal_append_seconds_count 10",
		"knives_wal_fsync_seconds_count 10", // one fsync per commit; ten one-event commits
		"knives_wal_snapshot_seconds_count 1",
		"knives_wal_snapshots_total 1",
		"knives_wal_last_seq 10",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}

	// Reopen: recovery gauges must reflect the snapshot coverage.
	reg2 := telemetry.NewRegistry()
	d2, err := Open(mustDir(t, dir), Options{Metrics: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	rep := d2.Report()
	if rep.SnapshotSeq != 10 || rep.Tables != 1 {
		t.Fatalf("unexpected recovery report: %+v", rep)
	}
	out2 := reg2.String()
	for _, want := range []string{
		"knives_recovery_snapshot_seq 10",
		"knives_recovery_tables 1",
	} {
		if !strings.Contains(out2, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out2)
		}
	}
}

// TestMemReport pins the in-memory store's zero-value recovery report.
func TestMemReport(t *testing.T) {
	if got := NewMem().Report(); got != (RecoveryReport{}) {
		t.Fatalf("Mem.Report() = %+v, want zero value", got)
	}
}
