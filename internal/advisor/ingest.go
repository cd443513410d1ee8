package advisor

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"knives/internal/schema"
	"knives/internal/statestore"
	"knives/internal/telemetry"
)

// DefaultIngestShards is how many independent ingest shards the service
// runs. Tables hash to a shard by name, so one table's batches are always
// applied in submission order while unrelated tables proceed in parallel.
const DefaultIngestShards = 8

// DefaultIngestGroup caps how many pending batches one shard leader drains
// into a single group commit — bounding both the WAL buffer one commit
// frames and the latency of the batch at the head of a long queue.
const DefaultIngestGroup = 64

// ingestJob is one observation batch riding the ingest stage: exactly one
// of numeric/named is set. The submitter blocks on done; the shard leader
// fills rep/err before closing it.
type ingestJob struct {
	tracker *Tracker
	table   string // shard routing key: the registered table name
	numeric []schema.TableQuery
	named   []ObservedQry
	ctx     context.Context

	queries []schema.TableQuery // validated batch, set by the leader
	rep     DriftReport
	err     error
	done    chan struct{}
}

// ingester is the sharded, group-committing observation ingest stage.
//
// There are no standing worker goroutines: each shard is a combining
// queue. A submitter appends its job and, if no leader is active, becomes
// the leader — draining everything pending (its own job included), group-
// committing the batches in ONE WAL append with one fsync, applying them
// under their trackers' locks, then running one coalesced drift check per
// table. Batches that arrive while a leader works queue up and are drained
// by its next round (or by their own submitter once the leader retires),
// so commit groups grow exactly when the WAL is the bottleneck — classic
// group commit — and an idle service holds no goroutines at all.
//
// Lock discipline: the leader may hold several trackers' mutexes at once
// (all tables of one group). That cannot deadlock: every other code path
// takes at most one tracker mutex, and a tracker's table name routes to
// exactly one shard, whose groups are processed by one leader at a time —
// no two goroutines ever wait on each other's tracker sets. Holding the
// locks across journal+apply keeps each table's journal order equal to its
// apply order, the invariant recovery depends on; the per-event cost under
// the lock is O(batch), never O(window), and the fsync is shared by the
// whole group.
type ingester struct {
	svc    *Service
	group  int
	shards []*ingestShard
}

type ingestShard struct {
	mu      sync.Mutex
	pending []*ingestJob
	leading bool
}

func newIngester(svc *Service, shards, group int) *ingester {
	if shards <= 0 {
		shards = DefaultIngestShards
	}
	if group <= 0 {
		group = DefaultIngestGroup
	}
	in := &ingester{svc: svc, group: group, shards: make([]*ingestShard, shards)}
	for i := range in.shards {
		in.shards[i] = &ingestShard{}
	}
	return in
}

// submit enqueues one batch and waits for its group's commit and drift
// verdict. The context bounds the drift searches, not the ingestion: once
// a job is pending its group WILL process it (at-least-once ingest), so an
// expired deadline surfaces as the drift check's error, never as a batch
// silently dropped from the queue.
func (in *ingester) submit(ctx context.Context, job *ingestJob) (DriftReport, error) {
	t0 := time.Now()
	var sp *telemetry.Span
	if telemetry.TraceFrom(ctx) != nil {
		ctx, sp = telemetry.StartSpan(ctx, "ingest "+job.table)
	}
	job.ctx = ctx
	job.done = make(chan struct{})
	sh := in.shards[fnv32a(job.table)%uint32(len(in.shards))]

	sh.mu.Lock()
	sh.pending = append(sh.pending, job)
	lead := !sh.leading
	if lead {
		sh.leading = true
	}
	sh.mu.Unlock()
	if lead {
		in.lead(sh)
	}
	<-job.done
	sp.End()
	in.svc.tm.ingestWait.Since(t0)
	return job.rep, job.err
}

// fnv32a is hash/fnv's New32a over the bytes of s, without the hasher or
// the []byte copy.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// lead drains the shard until its queue is empty, processing up to group
// jobs per round. Exactly one leader runs per shard at a time; retiring
// and the next submitter's takeover are ordered by the shard mutex.
func (in *ingester) lead(sh *ingestShard) {
	for {
		sh.mu.Lock()
		n := len(sh.pending)
		if n == 0 {
			sh.leading = false
			sh.mu.Unlock()
			return
		}
		if n > in.group {
			n = in.group
		}
		group := sh.pending[:n:n]
		sh.pending = sh.pending[n:]
		sh.mu.Unlock()
		in.process(group)
	}
}

// process commits and applies one group: validate every batch under its
// tracker's lock, journal all valid batches in ONE WAL append, apply them,
// snapshot drift inputs, release the locks, then run one coalesced drift
// check per distinct tracker. Per-batch failures (validation, or the whole
// group's journal append) surface on the owning jobs; one bad batch never
// poisons its groupmates.
//
// Ingestion is at-least-once: a batch joins the log before the searches
// run, so a client retrying after a search error (or an expired deadline)
// re-ingests it. Searches on validated input do not realistically fail
// (errors require an invalid layout, which validated queries cannot
// produce), so this trade is taken over the extra locking a staged commit
// would need. Weight semantics are uniform across every observation shape:
// weight 0 (the JSON default for an omitted field) is coerced to 1 during
// validation, so an unweighted observed query counts as one execution — the
// same convention /advise applies to its workloads; negative and NaN
// weights are ErrBadObservation.
func (in *ingester) process(group []*ingestJob) {
	svc := in.svc

	// Distinct trackers in first-appearance order; lock each once. Jobs
	// for the same table share a tracker, so the group's job order IS the
	// per-table apply order.
	var order []*Tracker
	locked := make(map[*Tracker]bool, len(group))
	for _, job := range group {
		if !locked[job.tracker] {
			locked[job.tracker] = true
			order = append(order, job.tracker)
			job.tracker.mu.Lock()
		}
	}

	var events []statestore.Event
	valid := group[:0:0]
	for _, job := range group {
		switch {
		case job.numeric != nil:
			job.queries, job.err = job.tracker.validateLocked(job.numeric)
		default:
			job.queries, job.err = job.tracker.resolveNamedLocked(job.named)
		}
		if job.err != nil || len(job.queries) == 0 {
			continue
		}
		valid = append(valid, job)
		if svc.jn != nil {
			events = append(events, statestore.Event{
				Type:    statestore.EvObserve,
				Table:   job.tracker.table.Name,
				Queries: toQueryRecs(job.queries),
			})
		}
	}

	// Group commit: journal-before-apply for the whole group at once. On
	// failure NOTHING is applied — journal and memory still agree — and
	// every valid job reports the retryable journal error.
	if svc.jn != nil && len(events) > 0 {
		if err := svc.jn.appendBatch(valid[0].ctx, events); err != nil {
			for _, job := range valid {
				job.err = err
			}
			valid = valid[:0]
		}
	}

	byTracker := make(map[*Tracker][]*ingestJob, len(order))
	for _, job := range valid {
		job.tracker.ingestLocked(job.queries)
		svc.observedQueries.Add(int64(len(job.queries)))
		svc.observeBatches.Add(1)
		byTracker[job.tracker] = append(byTracker[job.tracker], job)
	}
	inputs := make(map[*Tracker]driftInput, len(byTracker))
	for t := range byTracker {
		inputs[t] = t.driftInputLocked()
	}
	for _, t := range order {
		t.mu.Unlock()
	}
	if len(valid) > 0 {
		svc.ingestGroups.Add(1)
		svc.tm.groupBatches.Observe(float64(len(valid)))
		nq := 0
		for _, job := range valid {
			nq += len(job.queries)
		}
		svc.tm.groupQueries.Observe(float64(nq))
	}

	// One coalesced drift check per table, fanned out across the group's
	// tables — the expensive shadow searches never serialize behind each
	// other or block the shard queue's locks.
	var wg sync.WaitGroup
	for t, jobs := range byTracker {
		wg.Add(1)
		go func(t *Tracker, jobs []*ingestJob) {
			defer wg.Done()
			ctxs := make([]context.Context, len(jobs))
			for i, job := range jobs {
				ctxs[i] = job.ctx
			}
			ctx, stop := mergeContexts(ctxs)
			tDrift := time.Now()
			rep, rec, err := t.priceDrift(ctx, inputs[t], &svc.tm)
			drift := time.Since(tDrift).Seconds()
			svc.tm.driftCheck.Observe(drift)
			if rep.Recomputed {
				svc.tm.driftRecompute.Observe(drift)
			}
			stop()
			rep, err = svc.afterObserve(rep, rec, err)
			for _, job := range jobs {
				job.rep, job.err = rep, err
			}
		}(t, jobs)
	}
	wg.Wait()
	for _, job := range group {
		close(job.done)
	}
}

// mergeContexts returns a context canceled only when EVERY member context
// is done: a coalesced drift check keeps running while at least one of the
// batches it answers still has a live requester. The stop function
// releases the watchers (and the merged context) — call it when done.
func mergeContexts(ctxs []context.Context) (context.Context, func()) {
	if len(ctxs) == 1 {
		return ctxs[0], func() {}
	}
	merged, cancel := context.WithCancel(context.Background())
	var live atomic.Int32
	live.Store(int32(len(ctxs)))
	stops := make([]func() bool, 0, len(ctxs))
	for _, c := range ctxs {
		stops = append(stops, context.AfterFunc(c, func() {
			if live.Add(-1) == 0 {
				cancel()
			}
		}))
	}
	return merged, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}
