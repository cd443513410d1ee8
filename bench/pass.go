package main

import (
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"knives/internal/advisor"
	"knives/internal/statestore"
)

// clients is the number of closed-loop callers. knivesd's callers — log
// shippers, DBA tools — each wait for a reply before sending the next
// request; two of them keep both cores of the reference box busy without
// measuring queueing in the generator.
const clients = 2

// sample is one timed op as a client saw it.
type sample struct {
	class      string
	unit       int           // index of the op's unit in the stream
	start, end time.Duration // since the timed pass began
	ok         bool
	respBytes  int
	out        outcome
}

func (s sample) latencyMS() float64 { return float64(s.end-s.start) / float64(time.Millisecond) }

// recovery is what the kill-restart check found.
type recovery struct {
	restart time.Duration             // SIGKILL delivered -> restarted daemon answers
	report  statestore.RecoveryReport // what the restarted daemon's /stats says it replayed
	tables  int                       // registered tables compared
	lost    int                       // acknowledged states the restarted daemon no longer answers
}

// mark is the daemon's /proc accounting at one segment boundary of the
// timed pass.
type mark struct {
	at   time.Duration // since the timed pass began
	proc procSample
}

// httpPass is everything one untraced pass against a real daemon measured.
type httpPass struct {
	samples []sample
	// marks[0] is the start of the timed pass and marks[len-1] its end; the
	// ones between cut it into equal-time segments.
	marks    []mark
	setups   []float64 // seconds, one per daemon set up
	before   scrape
	after    scrape
	scrapes  []scrape // every scrape taken, for the cost of scraping itself
	recovery *recovery
	failures failureLog
}

// wall is the length of the timed pass.
func (p *httpPass) wall() time.Duration { return p.marks[len(p.marks)-1].at }

// failureLog keeps the first few failure messages and counts the rest.
type failureLog struct {
	mu    sync.Mutex
	first []string
	count int
}

func (f *failureLog) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	if len(f.first) < 5 {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
}

// runner holds what every pass of one benchmark process shares.
type runner struct {
	procs   *procSet
	bin     string // knivesd binary
	workDir string // scratch space inside the checkout; removed on exit
	nextDir atomic.Int64
}

// freshDir returns a new empty directory under the work dir.
func (r *runner) freshDir(prefix string) (string, error) {
	dir := filepath.Join(r.workDir, fmt.Sprintf("%s-%d", prefix, r.nextDir.Add(1)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// A pass sets the daemon up from scratch several times and reports the
// median as setup_s; the last daemon set up serves the timed pass. Three of
// the four workloads set up in under 0.1 s, where one scheduling hiccup is a
// fifth of the value, so set-ups repeat until setupBudget is spent — at
// least minSetups times, however slow, and at most maxSetups, however fast.
const (
	setupBudget = 2 * time.Second
	minSetups   = 3
	maxSetups   = 15
)

// setUp starts a fresh daemon for w and brings it to the state the first
// timed op expects: WAL opened, -prewarm done, tables registered, caches
// warmed. It returns the daemon, its WAL directory ("" when in-memory) and
// the seconds from exec to ready.
func (r *runner) setUp(w *workload, s *stream, v *verifier) (*daemon, string, float64, error) {
	var walDir string
	if w.durable {
		var err error
		if walDir, err = r.freshDir("wal"); err != nil {
			return nil, "", 0, err
		}
	}
	d, err := startDaemon(r.procs, r.bin, w.daemonArgs(walDir)...)
	if err != nil {
		return nil, "", 0, err
	}
	c := newClient(d.addr)
	defer c.close()
	for i, o := range s.setup {
		status, body, err := c.post(classPath[o.class], o.body)
		if err == nil {
			_, err = v.check(o.class, status, body)
		}
		if err != nil {
			r.procs.stop(d)
			return nil, "", 0, fmt.Errorf("set-up op %d (%s): %w", i, o.class, err)
		}
	}
	return d, walDir, time.Since(d.started).Seconds(), nil
}

// run executes one untraced pass of w: set the daemon up (at most setups
// times), drive the stream from two closed-loop clients until the deadline
// or the end of the stream, then — on durable workloads — kill the daemon
// and check that a restart still answers everything it acknowledged.
func (r *runner) run(w *workload, s *stream, limit time.Duration, setups int) (*httpPass, error) {
	p := &httpPass{}
	ledger := newAcks()
	v := &verifier{columns: s.columns, acks: ledger}

	var d *daemon
	var walDir string
	for i, began := 0, time.Now(); i < setups; i++ {
		if i >= minSetups && time.Since(began) > setupBudget {
			break
		}
		if d != nil {
			r.procs.stop(d)
			// Each set-up starts from an empty ledger and an empty WAL, like
			// the first.
			ledger = newAcks()
			v.acks = ledger
		}
		var secs float64
		var err error
		if d, walDir, secs, err = r.setUp(w, s, v); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, secs)
	}
	defer func() { r.procs.stop(d) }()

	admin := newClient(d.addr)
	defer admin.close()
	// Scraping is itself measured (telemetry.scrape_*): take a few, keep
	// the last as the pass's starting point.
	for i := 0; i < 3; i++ {
		sc, err := admin.scrapeMetrics()
		if err != nil {
			return nil, err
		}
		p.scrapes = append(p.scrapes, sc)
		p.before = sc
	}
	pid := d.cmd.Process.Pid
	t0 := time.Now()
	// markNow reads the daemon's accounting and starts a new high-water
	// mark, so that each segment reports its own peak.
	markNow := func() error {
		ps, err := sampleProc(pid)
		if err != nil {
			return err
		}
		resetPeakRSS(pid)
		p.marks = append(p.marks, mark{at: time.Since(t0), proc: ps})
		return nil
	}
	if err := markNow(); err != nil {
		return nil, err
	}

	// Timed pass. Clients take whole units in stream order; which client
	// gets which unit depends on timing, the set of units executed is
	// always a prefix of the stream.
	var next atomic.Int64
	perClient := make([][]sample, clients)
	var wg sync.WaitGroup
	deadline := t0.Add(limit)
	finished := make(chan struct{})
	markErr := make(chan error, 1)
	go func() {
		// Inner boundaries only: the last mark is taken once both clients
		// are done, which is after the deadline by the ops then in flight.
		for k := 1; k < segments; k++ {
			select {
			case <-time.After(time.Until(t0.Add(limit * time.Duration(k) / segments))):
			case <-finished:
				markErr <- nil
				return
			}
			if err := markNow(); err != nil {
				markErr <- err
				return
			}
		}
		markErr <- nil
	}()
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient(d.addr)
			defer c.close()
			for time.Now().Before(deadline) {
				ui := int(next.Add(1)) - 1
				if ui >= len(s.units) {
					return
				}
				perClient[ci] = r.runUnit(c, v, s.units[ui], ui, t0, perClient[ci], &p.failures)
			}
		}(ci)
	}
	wg.Wait()
	close(finished)
	if err := <-markErr; err != nil {
		return nil, err
	}
	if err := markNow(); err != nil {
		return nil, err
	}
	for _, ss := range perClient {
		p.samples = append(p.samples, ss...)
	}
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].end < p.samples[j].end })
	if len(p.samples) == 0 {
		return nil, errors.New("timed pass completed no op")
	}

	var err error
	if p.after, err = admin.scrapeMetrics(); err != nil {
		return nil, err
	}
	p.scrapes = append(p.scrapes, p.after)

	if w.durable {
		if p.recovery, err = r.killRestart(w, d, walDir, ledger, &p.failures); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// runUnit sends one unit's requests and appends a sample per request.
func (r *runner) runUnit(c *client, v *verifier, u unit, ui int, t0 time.Time, out []sample, fails *failureLog) []sample {
	do := func(o op) (outcome, bool) {
		smp := sample{class: o.class, unit: ui, start: time.Since(t0)}
		status, body, err := c.post(classPath[o.class], o.body)
		if err == nil {
			smp.respBytes = len(body)
			smp.out, err = v.check(o.class, status, body)
		}
		smp.end = time.Since(t0)
		smp.ok = err == nil
		if err != nil {
			fails.add("unit %d %s: %v", ui, o.class, err)
		}
		out = append(out, smp)
		return smp.out, smp.ok
	}
	if !u.chain {
		for _, o := range u.ops {
			do(o)
		}
		return out
	}
	// Drift cycle: advise, observe until recomputed, migrate twice. A
	// failed step ends the cycle; the steps not sent were never attempted.
	if _, ok := do(u.ops[0]); !ok {
		return out
	}
	observes := u.ops[1 : len(u.ops)-2]
	recomputed := false
	for _, o := range observes {
		res, ok := do(o)
		if !ok {
			return out
		}
		if recomputed = res.recomputed; recomputed {
			break
		}
	}
	if !recomputed {
		// The last observe was answered correctly, but the cycle it belongs
		// to did not do what the schedule says: count that op as failed.
		out[len(out)-1].ok = false
		fails.add("unit %d: advice not recomputed within %d batches", ui, len(observes))
		return out
	}
	for _, o := range u.ops[len(u.ops)-2:] {
		if _, ok := do(o); !ok {
			return out
		}
	}
	return out
}

// killRestart delivers SIGKILL after the last acknowledgement, restarts the
// daemon on the same WAL directory and compares GET /advice for every
// registered table with the last state the clients were told. SIGKILL keeps
// the operating system's page cache, so this checks journal-before-ack and
// recovery, not fsync; unflushed-write loss is the chaos suite's job
// (internal/faultinject).
func (r *runner) killRestart(w *workload, d *daemon, walDir string, ledger *acks, fails *failureLog) (*recovery, error) {
	tKill := time.Now()
	r.procs.stop(d)
	d2, err := startDaemon(r.procs, r.bin, w.daemonArgs(walDir)...)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	defer r.procs.stop(d2)
	c := newClient(d2.addr)
	defer c.close()
	var st advisor.Stats
	if st, err = c.stats(); err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	if st.Recovery == nil {
		return nil, errors.New("restarted daemon reports no recovery; is it journaling?")
	}
	rec := &recovery{restart: time.Since(tKill), report: *st.Recovery}

	want := ledger.snapshot()
	rec.tables = len(want)
	// Nothing was in flight when the daemon died, so the journal must end on
	// a record boundary and hold every table the clients heard about.
	if rec.report.TornBytes != 0 || rec.report.Tables < len(want) {
		rec.lost++
		fails.add("recovery report: %d torn bytes, %d tables recovered of %d acknowledged", rec.report.TornBytes, rec.report.Tables, len(want))
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var got advisor.TableAdviceWire
		err := c.getJSON("/advice?table="+url.QueryEscape(name), &got)
		switch a := want[name]; {
		case err != nil:
			rec.lost++
			fails.add("after restart, table %s: %v", name, err)
		case got.Fingerprint != a.fingerprint || layoutKey(got.Layout) != a.layout:
			rec.lost++
			fails.add("after restart, table %s answers fingerprint %.12s layout %s; acknowledged %.12s %s",
				name, got.Fingerprint, layoutKey(got.Layout), a.fingerprint, a.layout)
		}
	}
	return rec, nil
}
