package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"knives/internal/advisor"
	"knives/internal/algorithms"
	"knives/internal/cost"
	"knives/internal/schema"
	"knives/internal/statestore"
	"knives/internal/telemetry"
	"knives/internal/vfs"
)

// The traced pass replays a prefix of the op stream in-process, on one
// goroutine, through the same public functions the daemon's handlers call,
// with a span around every call into a layer. The daemon itself is never
// altered, so the end-to-end numbers carry no tracing overhead by
// construction; the price is that the spans describe an unloaded service,
// and whatever two concurrent clients add (queueing, lock waits, HTTP)
// lands in trace.unattributed_share.

// tracer carries what the store and file-system wrappers need to parent
// their spans: they are called from inside the service, with no context.
type tracer struct {
	rec   *recorder
	op    atomic.Int64 // position of the running op; -1 outside the prefix
	call  atomic.Int64 // span of the running service call
	store atomic.Int64 // span of the running store call, 0 if none
}

func newTracer() *tracer {
	t := &tracer{rec: newRecorder()}
	t.op.Store(-1)
	return t
}

// count adds to a named count, for ops of the traced prefix only: set-up
// and prewarm do the same kinds of work and must not dilute the ratios.
func (t *tracer) count(name string, n int64) {
	if t.op.Load() >= 0 {
		t.rec.add(name, n)
	}
}

// below opens a span under the innermost running span the wrappers know of.
func (t *tracer) below(name string) int {
	parent := t.store.Load()
	if parent == 0 {
		parent = t.call.Load()
	}
	return t.rec.start(name, int(parent), int(t.op.Load()))
}

// span runs f under a new span below parent (0 makes it a root) and returns
// the span's id. While f runs, the span is the "running service call" the
// store wrapper parents its spans to.
func (t *tracer) span(name string, parent int, f func(id int) error) (int, error) {
	id := t.rec.start(name, parent, int(t.op.Load()))
	outer := t.call.Swap(int64(id))
	err := f(id)
	t.call.Store(outer)
	t.rec.end(id)
	return id, err
}

// root runs f under a new root span.
func (t *tracer) root(name string, f func(id int) error) error {
	_, err := t.span(name, 0, f)
	return err
}

// child runs f under a new span below parent.
func (t *tracer) child(name string, parent int, f func() error) (int, error) {
	return t.span(name, parent, func(int) error { return f() })
}

// tracedStore records a span around every journal call of the service.
type tracedStore struct {
	statestore.Store
	tr *tracer
	// The durable store serializes appends itself; taking the same turn out
	// here keeps a span from booking the wait for that lock as WAL time,
	// and gives the file-system wrapper one unambiguous parent.
	mu sync.Mutex
}

func (s *tracedStore) timed(name string, f func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.tr.rec.start(name, int(s.tr.call.Load()), int(s.tr.op.Load()))
	s.tr.store.Store(int64(id))
	err := f()
	s.tr.store.Store(0)
	s.tr.rec.end(id)
	return err
}

func (s *tracedStore) Append(ev statestore.Event) error {
	return s.timed("statestore.append", func() error { return s.Store.Append(ev) })
}

func (s *tracedStore) AppendBatch(evs []statestore.Event) error {
	s.tr.count("statestore.events", int64(len(evs)))
	return s.timed("statestore.append_batch", func() error { return s.Store.AppendBatch(evs) })
}

func (s *tracedStore) Snapshot() error {
	return s.timed("statestore.snapshot", func() error { return s.Store.Snapshot() })
}

// tracedFS records spans around, and counts the bytes of, what the store
// asks the file system to do.
type tracedFS struct {
	vfs.FS
	tr *tracer
}

func (f *tracedFS) Create(name string) (vfs.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, tr: f.tr, wal: strings.HasPrefix(name, "wal-")}, nil
}

func (f *tracedFS) Open(name string) (vfs.File, error) {
	file, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, tr: f.tr, wal: strings.HasPrefix(name, "wal-")}, nil
}

func (f *tracedFS) ReadFile(name string) ([]byte, error) {
	id := f.tr.below("vfs.read")
	defer f.tr.rec.end(id)
	return f.FS.ReadFile(name)
}

func (f *tracedFS) SyncDir() error {
	id := f.tr.below("vfs.syncdir")
	defer f.tr.rec.end(id)
	return f.FS.SyncDir()
}

type tracedFile struct {
	vfs.File
	tr  *tracer
	wal bool // a WAL segment, as opposed to a snapshot
}

func (f *tracedFile) wrote(n int) {
	f.tr.count("vfs.bytes_written", int64(n))
	if f.wal {
		f.tr.count("vfs.wal_bytes", int64(n))
	}
}

func (f *tracedFile) Write(p []byte) (int, error) {
	id := f.tr.below("vfs.write")
	n, err := f.File.Write(p)
	f.tr.rec.end(id)
	f.wrote(n)
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	id := f.tr.below("vfs.write")
	n, err := f.File.WriteAt(p, off)
	f.tr.rec.end(id)
	f.wrote(n)
	return n, err
}

func (f *tracedFile) Sync() error {
	id := f.tr.below("vfs.sync")
	defer f.tr.rec.end(id)
	f.tr.count("vfs.syncs", 1)
	return f.File.Sync()
}

// tracedService is an in-process advisor.Service configured like the
// workload's daemon, with the tracing wrappers under it.
type tracedService struct {
	svc   *advisor.Service
	tr    *tracer
	model cost.Model
}

// openTraced builds the service the way cmd/knivesd does for w's flags.
func (r *runner) openTraced(w *workload, withTelemetry bool) (*tracedService, error) {
	tr := newTracer()
	model, err := cost.ModelByName("hdd", cost.Device{})
	if err != nil {
		return nil, err
	}
	cfg := advisor.Config{Model: model}
	var reg *telemetry.Registry
	if withTelemetry {
		reg = telemetry.NewRegistry()
		cfg.Telemetry = reg
	}
	if w.durable {
		dir, err := r.freshDir("trace-wal")
		if err != nil {
			return nil, err
		}
		fsys, err := vfs.Dir(dir)
		if err != nil {
			return nil, err
		}
		err = tr.root("statestore.open", func(int) error {
			st, err := statestore.Open(&tracedFS{FS: fsys, tr: tr}, statestore.Options{Metrics: reg})
			if err != nil {
				return err
			}
			cfg.Store = &tracedStore{Store: st, tr: tr}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("open state store: %w", err)
		}
	}
	svc, err := advisor.OpenService(cfg)
	if err != nil {
		return nil, err
	}
	ts := &tracedService{svc: svc, tr: tr, model: model}
	if w.prewarm {
		err := tr.root("advisor.prewarm", func(int) error { return svc.Prewarm(schema.TPCH(10)) })
		if err != nil {
			svc.Close()
			return nil, fmt.Errorf("prewarm: %w", err)
		}
	}
	return ts, nil
}

// opResult is what replaying one op in-process yields.
type opResult struct {
	recomputed bool
	cached     bool
	// searched is the workload an advise miss just ran the portfolio on
	// (Table nil otherwise): the input of the per-knife probes.
	searched schema.TableWorkload
}

// exec replays one op under a root span named after its class. idx is the
// op's position in the traced prefix, or -1 for set-up ops, whose spans are
// kept out of every mean.
func (t *tracedService) exec(o op, idx int) (opResult, error) {
	var res opResult
	t.tr.op.Store(int64(idx))
	defer t.tr.op.Store(-1)
	name := "op:" + o.class
	if idx < 0 {
		name = "setup:" + o.class
	}
	err := t.tr.root(name, func(root int) error {
		var err error
		switch classPath[o.class] {
		case "/advise":
			res, err = t.advise(o, root)
		case "/observe":
			res, err = t.observe(o, root)
		case "/query":
			res, err = t.query(o, root)
		case "/replay":
			res, err = t.replay(o, root)
		case "/migrate":
			res, err = t.migrate(o, root)
		default:
			err = fmt.Errorf("unknown op class %q", o.class)
		}
		return err
	})
	if err == nil {
		// The prefix is replayed in order from the same set-up, so every
		// cache is in the state the op met over HTTP.
		err = checkCached(o.class, res.cached)
	}
	if err == nil && res.searched.Table != nil && idx >= 0 {
		err = t.probeKnives(res.searched)
	}
	if err != nil {
		return res, fmt.Errorf("%s: %w", o.class, err)
	}
	return res, nil
}

// decodeWorkload is the handlers' first step for /advise, /query and
// /replay: unmarshal the body and materialize its one table workload.
func (t *tracedService) decodeWorkload(root int, body []byte, req any, advise func() advisor.AdviseRequest) (schema.TableWorkload, error) {
	var tw schema.TableWorkload
	_, err := t.tr.child("advisor.wire_decode", root, func() error {
		if err := json.Unmarshal(body, req); err != nil {
			return err
		}
		b, err := advise().Materialize()
		if err != nil {
			return err
		}
		tws := b.TableWorkloads()
		if len(tws) != 1 {
			return fmt.Errorf("%d tables in one op, want 1", len(tws))
		}
		tw = tws[0]
		return nil
	})
	if err != nil {
		return tw, err
	}
	_, err = t.tr.child("advisor.fingerprint", root, func() error {
		advisor.FingerprintOf(tw)
		return nil
	})
	return tw, err
}

func (t *tracedService) advise(o op, root int) (opResult, error) {
	var req advisor.AdviseRequest
	tw, err := t.decodeWorkload(root, o.body, &req, func() advisor.AdviseRequest { return req })
	if err != nil {
		return opResult{}, err
	}
	var hit bool
	id, err := t.tr.child("advisor.advise", root, func() error {
		var err error
		_, hit, err = t.svc.AdviseTableContext(context.Background(), tw)
		return err
	})
	if err != nil {
		return opResult{}, err
	}
	if hit {
		t.tr.rec.rename(id, "advisor.advise_hit")
		return opResult{cached: true}, nil
	}
	t.tr.rec.rename(id, "advisor.advise_miss")
	return opResult{searched: tw}, nil
}

// probeKnives runs each heuristic of the portfolio alone on a workload the
// service just searched: the same work one layer down, one knife at a time
// where the service races them. Probe spans have their own root, opened
// after the op's has closed, so they never count towards the op's latency.
func (t *tracedService) probeKnives(tw schema.TableWorkload) error {
	t.tr.count("advisor.searches", 1)
	return t.tr.root("probe:algo", func(root int) error {
		for _, a := range algorithms.Heuristics() {
			var cands int64
			_, err := t.tr.child("algo."+strings.ToLower(a.Name()), root, func() error {
				res, err := a.Partition(tw, t.model)
				cands = res.Stats.Candidates
				return err
			})
			if err != nil {
				return err
			}
			t.tr.count("algo.candidates", cands)
		}
		return nil
	})
}

func (t *tracedService) observe(o op, root int) (opResult, error) {
	var req advisor.ObserveRequest
	if _, err := t.tr.child("advisor.wire_decode", root, func() error { return json.Unmarshal(o.body, &req) }); err != nil {
		return opResult{}, err
	}
	var outs []advisor.ObserveOutcome
	if _, err := t.tr.child("advisor.observe_batch", root, func() error {
		var err error
		outs, _, err = t.svc.ObserveBatchID(context.Background(), req.BatchID, req.Batches)
		return err
	}); err != nil {
		return opResult{}, err
	}
	var res opResult
	for _, out := range outs {
		if out.Err != nil {
			return res, fmt.Errorf("table %s: %w", out.Table, out.Err)
		}
		res.recomputed = res.recomputed || out.Rep.Recomputed
	}
	for _, b := range req.Batches {
		t.tr.count("advisor.observed_queries", int64(len(b.Queries)))
	}
	// The handler answers each entry with the table's current state, which
	// fingerprints the whole observation window.
	_, err := t.tr.child("advisor.current_state", root, func() error {
		for _, out := range outs {
			if _, _, err := t.svc.CurrentState(out.Table); err != nil {
				return err
			}
		}
		return nil
	})
	return res, err
}

func (t *tracedService) query(o op, root int) (opResult, error) {
	var req advisor.QueryRequest
	tw, err := t.decodeWorkload(root, o.body, &req, func() advisor.AdviseRequest {
		return advisor.AdviseRequest{Tables: req.Tables, Queries: req.Queries}
	})
	if err != nil {
		return opResult{}, err
	}
	opt := advisor.ReplayOptions{MaxRows: req.MaxRows, Seed: req.Seed, ExecMode: req.Exec}
	var sel *advisor.ExecSelection
	if req.Selection != nil {
		sel = &advisor.ExecSelection{Column: req.Selection.Column, Bound: req.Selection.Bound}
	}
	var cached bool
	_, err = t.tr.child("advisor.exec_table", root, func() error {
		rep, _, c, err := t.svc.ExecTable(tw, opt, sel)
		if err != nil {
			return err
		}
		if !rep.Exact() {
			return fmt.Errorf("in-process execution inexact: max delta %v", rep.MaxAbsDelta())
		}
		cached = c
		return nil
	})
	return opResult{cached: cached}, err
}

func (t *tracedService) replay(o op, root int) (opResult, error) {
	var req advisor.ReplayRequest
	tw, err := t.decodeWorkload(root, o.body, &req, func() advisor.AdviseRequest {
		return advisor.AdviseRequest{Tables: req.Tables, Queries: req.Queries}
	})
	if err != nil {
		return opResult{}, err
	}
	var cached bool
	_, err = t.tr.child("advisor.replay_table", root, func() error {
		rep, _, c, err := t.svc.ReplayTable(tw, advisor.ReplayOptions{MaxRows: req.MaxRows, Seed: req.Seed})
		if err != nil {
			return err
		}
		if !rep.Exact() {
			return fmt.Errorf("in-process replay inexact: max delta %v", rep.MaxAbsDelta())
		}
		cached = c
		return nil
	})
	return opResult{cached: cached}, err
}

func (t *tracedService) migrate(o op, root int) (opResult, error) {
	var req advisor.MigrateRequest
	if _, err := t.tr.child("advisor.wire_decode", root, func() error { return json.Unmarshal(o.body, &req) }); err != nil {
		return opResult{}, err
	}
	var cached bool
	_, err := t.tr.child("advisor.migrate_table", root, func() error {
		out, c, err := t.svc.MigrateTable(req.Table, advisor.MigrateOptions{MaxRows: req.MaxRows})
		if err != nil {
			return err
		}
		cached = c
		if rep := out.Report; rep != nil && !c {
			if !rep.Exact() {
				return fmt.Errorf("in-process migration of %s inexact", req.Table)
			}
			t.tr.count("migrate.executed", 1)
			t.tr.count("migrate.bytes_moved", rep.Measured.BytesRead+rep.Measured.BytesWritten)
		}
		return nil
	})
	return opResult{cached: cached}, err
}

// execUnit replays one unit; a drift cycle follows the same script as over
// HTTP. next is the position of the unit's first op in the traced prefix;
// the returned value is the position after its last.
func (t *tracedService) execUnit(u unit, next int) (int, error) {
	if !u.chain {
		for _, o := range u.ops {
			if _, err := t.exec(o, next); err != nil {
				return next, err
			}
			next++
		}
		return next, nil
	}
	if _, err := t.exec(u.ops[0], next); err != nil {
		return next, err
	}
	next++
	recomputed := false
	for _, o := range u.ops[1 : len(u.ops)-2] {
		res, err := t.exec(o, next)
		if err != nil {
			return next, err
		}
		next++
		if recomputed = res.recomputed; recomputed {
			break
		}
	}
	if !recomputed {
		return next, fmt.Errorf("drift cycle never recomputed")
	}
	for _, o := range u.ops[len(u.ops)-2:] {
		if _, err := t.exec(o, next); err != nil {
			return next, err
		}
		next++
	}
	return next, nil
}

// traceResult is what one traced pass produced.
type traceResult struct {
	workload string
	ops      int
	spans    []span
	counts   map[string]int64
	metrics  metrics
	problems []string
}

// spanFile is the JSON written to -out when the benchmark ends.
type spanFile struct {
	Workload string             `json:"workload"`
	Ops      int                `json:"ops"`
	Counts   map[string]int64   `json:"counts"`
	SelfS    map[string]float64 `json:"self_seconds_by_name"`
	Spans    []span             `json:"spans"`
}

func (t *traceResult) file() spanFile {
	return spanFile{Workload: t.workload, Ops: t.ops, Counts: t.counts, SelfS: selfByName(t.spans), Spans: t.spans}
}

// tracedPass replays the first units of the stream in-process and runs the
// layer probes the workload's op classes call for.
func (r *runner) tracedPass(w *workload, s *stream, units int, p *httpPass) (*traceResult, error) {
	units = min(units, len(s.units))
	classes := make(map[string]bool)
	for _, u := range s.units[:units] {
		for _, o := range u.ops {
			classes[o.class] = true
		}
	}
	ts, err := r.openTraced(w, true)
	if err != nil {
		return nil, err
	}
	defer ts.svc.Close()
	// The telemetry tax needs the steady observes repeated on a service
	// without a registry; nothing else runs or is measured there.
	var bare *tracedService
	if classes[clsObserve] {
		if bare, err = r.openTraced(w, false); err != nil {
			return nil, err
		}
		defer bare.svc.Close()
	}
	for _, o := range s.setup {
		if _, err := ts.exec(o, -1); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if bare != nil && o.class == clsObserve {
			if _, err := bare.exec(o, -1); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
	}
	next := 0
	for ui, u := range s.units[:units] {
		// Alternate which service sees a steady observe first, so neither
		// always runs on warm caches.
		order := []*tracedService{ts}
		if !u.chain && u.ops[0].class == clsObserve {
			order = []*tracedService{ts, bare}
			if ui%2 == 1 {
				order = []*tracedService{bare, ts}
			}
		}
		after := next
		for _, svc := range order {
			n, err := svc.execUnit(u, next)
			if err != nil {
				return nil, fmt.Errorf("unit %d: %w", ui, err)
			}
			if svc == ts {
				after = n
			}
		}
		next = after
	}

	pr := &prober{tr: ts.tr, model: ts.model, r: r, values: metrics{}}
	if err := pr.run(classes); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	res := &traceResult{workload: w.name, ops: next, spans: ts.tr.rec.snapshot(), counts: ts.tr.rec.allCounts()}
	res.problems = checkNesting(res.spans)
	var bareSpans []span
	if bare != nil {
		bareSpans = bare.tr.rec.snapshot()
	}
	res.metrics = traceMetrics(res, bareSpans, ts.svc.Stats(), p)
	for k, v := range pr.values {
		res.metrics[k] = v
	}
	return res, nil
}
