package advisor

import (
	"context"
	"fmt"
)

// Batched observes retry on lost responses, which makes delivery
// at-least-once on the wire: the server journals and applies a batch
// BEFORE answering, so a response lost in transit used to re-ingest the
// whole batch on retry and double-count every query in it. The dedup
// window closes that hole: clients stamp each logical batch with an ID,
// and a replayed ID answers the original ingest's outcomes — including
// per-entry failures, which a client's whole-request retry could not
// meaningfully re-drive anyway — without touching the trackers.

// DefaultObserveDedupWindow bounds how many recently applied batch IDs
// the service remembers. FIFO, like the other caches: a replay older than
// the window re-ingests (the pre-dedup behavior), so the window only needs
// to outlive a client's retry schedule, not its lifetime.
const DefaultObserveDedupWindow = 1024

// maxBatchIDLen caps the accepted batch ID length: the window stores IDs
// verbatim, so an unbounded ID would be an unbounded memory lever.
const maxBatchIDLen = 128

// ObserveBatchID is the one way observations enter the service: it ingests
// many tables' observation batches (see observeBatch) under a client batch
// ID. The first call with an ID ingests and records its outcomes in the
// dedup window; every later call with the same ID answers those outcomes
// verbatim (dup=true) without re-ingesting. An empty ID skips dedup
// entirely, and so does an empty batch list: nothing was applied that a
// redelivery could double.
//
// A request that applied nothing because the journal failed returns
// ErrJournal and is NOT remembered: a redelivery under the same ID
// ingests it. Every ID in the window names an application.
func (s *Service) ObserveBatchID(ctx context.Context, batchID string, batches []TableObservation) (outs []ObserveOutcome, dup bool, err error) {
	if len(batchID) > maxBatchIDLen {
		return nil, false, fmt.Errorf("%w: batch id longer than %d bytes", ErrBadObservation, maxBatchIDLen)
	}
	if batchID == "" || len(batches) == 0 {
		outs, err = s.observeBatch(ctx, batches)
		return outs, false, err
	}
	// The window drops a failed computation, so only applied IDs stay.
	outs, ran, err := s.observeSeen.Do(batchID, func() ([]ObserveOutcome, error) {
		return s.observeBatch(ctx, batches)
	})
	if err != nil {
		return nil, false, err
	}
	if !ran {
		s.observeDups.Add(1)
	}
	return outs, !ran, nil
}
