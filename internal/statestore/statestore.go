// Package statestore owns the advisor service's mutable state: the bounded
// FIFO caches (advice, replay, migration outcomes) and the durable per-table
// tracker state (observation windows, current and applied layouts).
//
// Two implementations share one contract. Mem is the reference: pure
// in-memory maps, no journal, byte-identical to the service the daemon ran
// before durability existed. Durable adds a write-ahead log of state EVENTS
// — observe, advise-commit, layout-applied, tracker-reset — with CRC-framed
// records, periodic snapshot + truncation, and replay-on-restart that
// reconstructs the tracker state bit-equal to an uninterrupted run.
//
// Caches are deliberately NOT journaled: every cached answer is a pure
// function of a workload fingerprint and a device key, so a restart
// recomputes them on demand; journaling them would multiply WAL volume for
// state the daemon can rebuild from its own search kernel.
//
// The fold that turns an event stream into per-table state (fold.go) is the
// single source of truth for both the live append path and recovery, so the
// two cannot diverge: what Append applied yesterday is exactly what Open
// replays tomorrow.
package statestore

import "errors"

// Typed recovery errors. Torn WAL tails are NOT errors — they are what a
// crash mid-append leaves behind, and recovery truncates them to the last
// valid record. These errors report states a crash cannot legally produce.
var (
	// ErrCorrupt reports WAL damage beyond a torn tail: a framing or CRC
	// failure in a finalized (non-last) segment, a sequence gap, or a
	// CRC-valid record whose payload does not decode.
	ErrCorrupt = errors.New("statestore: corrupt WAL")
	// ErrCorruptSnapshot reports a snapshot file whose checksum or
	// structure is invalid. Snapshots are written to a temp file and
	// renamed into place, so a half-written snapshot never carries the
	// live name; a corrupt one means real damage.
	ErrCorruptSnapshot = errors.New("statestore: corrupt snapshot")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("statestore: store is closed")
)

// Store is the advisor's state persistence contract. All methods are safe
// for concurrent use.
//
// Append is called journal-first: the service appends the event BEFORE
// applying the mutation it describes, under the same lock that orders the
// mutation, so journal order equals apply order and a failed append leaves
// the in-memory state untouched (the client retries; nothing was lost).
type Store interface {
	// Journaling reports whether Append does anything. The service skips
	// building events entirely when it returns false, keeping the
	// in-memory hot path identical to the pre-durability daemon.
	Journaling() bool
	// Append journals one state event durably.
	Append(ev Event) error
	// AppendBatch journals many events as one group commit: all frames go
	// out in a single write and a single fsync, so
	// an ingest group amortizes the durability cost that Append pays per
	// event. All-or-nothing at the caller's level: on error NONE of the
	// events count as journaled and none may be applied. A crash between
	// write and acknowledgment can still persist a prefix of the group —
	// the same in-doubt window a single unacknowledged Append has, and
	// legal under the service's at-least-once observe contract.
	AppendBatch(evs []Event) error
	// Recovered returns the per-table state replayed at open, in
	// registration order. Empty for a fresh or in-memory store.
	Recovered() []TableState
	// Report describes what recovery found at open — snapshot coverage,
	// segments scanned, records replayed, what was skipped or truncated.
	// The zero value for a fresh or in-memory store.
	Report() RecoveryReport
	// Snapshot compacts the journal: persists the current folded state
	// and truncates the WAL to the records after it.
	Snapshot() error
	// Close releases resources, fsyncing anything pending.
	Close() error
}
