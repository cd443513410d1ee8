package advisor

import (
	"context"
	"slices"
	"strings"
	"sync"
	"time"

	"knives/internal/schema"
	"knives/internal/statestore"
	"knives/internal/telemetry"
)

// ingestBatch is one observation batch of a round; ingest fills the rest.
type ingestBatch struct {
	table   string // the registered name tracker was looked up under
	tracker *Tracker
	named   []ObservedQry

	queries []schema.TableQuery // the resolved batch
	applied bool                // journaled and appended to the log
	in      driftInput
	rep     DriftReport
	err     error
}

// ingest commits and applies one round — batches on distinct trackers —
// as one group: lock the trackers in table-name order, validate every
// batch, journal the valid ones in ONE WAL append, apply them, snapshot
// their drift inputs, unlock, then run one drift check per applied batch.
// The state store's combining commit may share that append's write and
// fsync with concurrent rounds; nothing above it queues or coalesces.
//
// Per-batch failures surface on their own batch: one bad batch never
// poisons the rest of its round. A failed journal append applies NOTHING —
// journal and memory still agree — and every valid batch reports the
// retryable ErrJournal. An empty batch answers its tracker's counters,
// unjournaled.
//
// Lock discipline: ingest is the only code that holds more than one
// tracker lock. It takes them in table-name order, and a round's names are
// distinct, so two rounds never wait on each other in a cycle. Holding the
// locks across journal and apply keeps each table's journal order equal to
// its apply order, the invariant recovery depends on. Under the locks a
// batch costs its append, trim's memmove and one copy of its window; the
// pricing and any recompute run after they are released.
//
// Ingestion is at-least-once: a batch joins the log before its drift check
// runs, so a client retrying after a check error (or an expired deadline)
// re-ingests it. Checks on validated input do not realistically fail, so
// this trade is taken over the extra locking a staged commit would need.
// Weight 0 (the JSON default for an omitted field) is coerced to 1 during
// validation — the convention /advise applies — and negative, NaN or
// oversized weights are ErrBadObservation.
func (s *Service) ingest(ctx context.Context, round []*ingestBatch) {
	t0 := time.Now()
	slices.SortFunc(round, func(a, b *ingestBatch) int { return strings.Compare(a.table, b.table) })
	if telemetry.TraceFrom(ctx) != nil {
		names := make([]string, len(round))
		for i, b := range round {
			names[i] = b.table
		}
		var sp *telemetry.Span
		ctx, sp = telemetry.StartSpan(ctx, "ingest "+strings.Join(names, " "))
		defer sp.End()
	}

	for _, b := range round {
		b.tracker.mu.Lock()
	}
	var events []statestore.Event
	var applied []*ingestBatch
	for _, b := range round {
		b.queries, b.err = b.tracker.resolveNamedLocked(b.named)
		switch {
		case b.err != nil:
		case len(b.queries) == 0:
			b.rep = b.tracker.reportLocked()
		default:
			applied = append(applied, b)
			if s.jn != nil {
				events = append(events, statestore.Event{
					Type:    statestore.EvObserve,
					Table:   b.table,
					Queries: toQueryRecs(b.queries),
				})
			}
		}
	}
	if len(events) > 0 {
		if err := s.jn.appendBatch(ctx, events); err != nil {
			for _, b := range applied {
				b.err = err
			}
			applied = nil
		}
	}
	nq := 0
	for _, b := range applied {
		b.applied = true
		b.tracker.ingestLocked(b.queries)
		b.in = b.tracker.driftInputLocked()
		nq += len(b.queries)
	}
	for _, b := range round {
		b.tracker.mu.Unlock()
	}

	if len(applied) > 0 {
		s.observedQueries.Add(int64(nq))
		s.observeBatches.Add(int64(len(applied)))
		s.ingestGroups.Add(1)
		s.tm.groupBatches.Observe(float64(len(applied)))
		s.tm.groupQueries.Observe(float64(nq))
	}
	check := func(b *ingestBatch) {
		tDrift := time.Now()
		rep, rec, err := b.tracker.priceDrift(ctx, b.in, &s.tm)
		drift := time.Since(tDrift).Seconds()
		s.tm.driftCheck.Observe(drift)
		if rep.Recomputed {
			s.tm.driftRecompute.Observe(drift)
		}
		b.rep, b.err = s.afterObserve(rep, rec, err)
	}
	if len(applied) == 1 {
		check(applied[0])
	} else {
		var wg sync.WaitGroup
		for _, b := range applied {
			wg.Add(1)
			go func() {
				defer wg.Done()
				check(b)
			}()
		}
		wg.Wait()
	}
	for range round {
		s.tm.ingestWait.Since(t0)
	}
}
