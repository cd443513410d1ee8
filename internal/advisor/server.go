package advisor

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"knives/internal/algo"
	"knives/internal/cost"
	"knives/internal/replay"
	"knives/internal/schema"
	"knives/internal/telemetry"
)

// Server exposes a Service over HTTP:
//
//	POST /advise   workload in, per-table advice out (fingerprint cache)
//	POST /replay   workload in -> advise, lease a store, execute, report
//	POST /query    /replay with an optional selection, reported per operator
//	POST /observe  stream queries for registered tables (drift tracking)
//	POST /migrate  plan + execute-and-verify a drift-triggered re-layout
//	               of a registered table (fingerprint-pair cache)
//	GET  /advice?table=NAME   current tracked advice for one table
//	GET  /tables   registered table names
//	GET  /stats    service counters
//	GET  /metrics  Prometheus exposition (with ServerConfig.Telemetry)
//	GET  /healthz  liveness
//
// The handler is safe for concurrent use; every request body is limited to
// maxBodyBytes.
type Server struct {
	svc *Service
	mux *http.ServeMux
	cfg ServerConfig
	adm *admission

	// Per-endpoint request latency and the admission wait; nil (free)
	// without ServerConfig.Telemetry.
	httpHist map[string]*telemetry.Histogram
	admWait  *telemetry.Histogram
}

const maxBodyBytes = 8 << 20

// ServerConfig bounds the work one server accepts. The zero value imposes
// no limits — exactly the pre-hardening behavior.
type ServerConfig struct {
	// RequestTimeout bounds each POST request end to end; 0 means no
	// deadline. The deadline cancels waits (admission queue, search slots),
	// not computations already running — see AdviseTableContext.
	RequestTimeout time.Duration
	// MaxInFlight caps concurrently executing POST requests; 0 means
	// unlimited (admission control off).
	MaxInFlight int
	// MaxQueue is how many requests beyond MaxInFlight may wait for a slot
	// before the server starts shedding with 429. Only meaningful when
	// MaxInFlight > 0.
	MaxQueue int
	// RetryAfter is the hint sent in the Retry-After header on 429 and 503;
	// 0 means one second.
	RetryAfter time.Duration
	// Telemetry, when set, mounts GET /metrics (Prometheus text format)
	// and records per-endpoint request latency and admission wait
	// histograms. Share the registry with the Service and statestore so
	// one scrape covers the daemon end to end.
	Telemetry *telemetry.Registry
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/ on the
	// server's own mux. Off by default: profiling endpoints expose heap
	// and goroutine dumps and belong behind an operator's decision.
	EnablePprof bool
	// SlowRequest, when positive, traces every hardened request and logs a
	// span breakdown (where the budget went: admission, search-gate waits,
	// per-algorithm searches, ingest) for requests that take at least this
	// long. Zero disables tracing entirely — the untraced span fast path
	// is a single context lookup.
	SlowRequest time.Duration
	// SlowLog receives slow-request reports; nil uses log.Default().
	SlowLog *log.Logger
}

// NewServer wraps a Service in an http.Handler with no request limits.
func NewServer(svc *Service) *Server {
	return NewServerWith(svc, ServerConfig{})
}

// NewServerWith wraps a Service with overload protection: the five POST
// endpoints (the ones that search, materialize, or journal) run under the
// config's deadline and admission gate. The GET endpoints stay ungated so
// liveness and stats remain observable while the server sheds load.
func NewServerWith(svc *Service, cfg ServerConfig) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux(), cfg: cfg, adm: newAdmission(cfg.MaxInFlight, cfg.MaxQueue)}
	if reg := cfg.Telemetry; reg != nil {
		reg.SetHelp("knives_http_request_seconds", "Hardened request latency end to end, by endpoint.")
		reg.SetHelp("knives_admission_wait_seconds", "Time spent acquiring an admission slot (gated servers only).")
		s.httpHist = make(map[string]*telemetry.Histogram)
		for _, path := range []string{"/advise", "/replay", "/query", "/observe", "/migrate"} {
			s.httpHist[path] = reg.Histogram(`knives_http_request_seconds{path="` + path + `"}`)
		}
		s.admWait = reg.Histogram("knives_admission_wait_seconds")
		reg.CounterFunc("knives_shed_total", s.adm.shedCount)
		s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux.HandleFunc("POST /advise", s.harden("/advise", s.handleAdvise))
	s.mux.HandleFunc("POST /replay", s.harden("/replay", s.handleReplay))
	s.mux.HandleFunc("POST /query", s.harden("/query", s.handleQuery))
	s.mux.HandleFunc("POST /observe", s.harden("/observe", s.handleObserve))
	s.mux.HandleFunc("POST /migrate", s.harden("/migrate", s.handleMigrate))
	s.mux.HandleFunc("GET /advice", s.handleAdvice)
	s.mux.HandleFunc("GET /tables", s.handleTables)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// harden applies the request deadline, the admission gate, and (when
// configured) latency accounting and slow-request tracing to one POST
// handler. Shed requests answer 429 with a Retry-After hint; a deadline
// that expires while still queued answers 503 (the request did no work and
// a retry is safe) — with the same Retry-After hint, since the client's
// backoff policy honors it on both statuses.
func (s *Server) harden(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		defer s.httpHist[path].Since(t0)
		if s.cfg.SlowRequest > 0 {
			ctx, tr := telemetry.NewTrace(r.Context(), r.Method+" "+path)
			r = r.WithContext(ctx)
			defer func() {
				if d := tr.Elapsed(); d >= s.cfg.SlowRequest {
					s.slowLog().Printf("slow request: %s took %s\n%s",
						tr.Name, d.Round(time.Millisecond), tr.Render())
				}
			}()
		}
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if s.adm != nil {
			actx, sp := telemetry.StartSpan(r.Context(), "admission-wait")
			tAdm := time.Now()
			err := s.adm.acquire(actx)
			sp.End()
			s.admWait.Since(tAdm)
			if err != nil {
				if errors.Is(err, ErrShed) {
					s.retryHint(w)
					writeError(w, http.StatusTooManyRequests, err)
					return
				}
				s.retryHint(w)
				writeError(w, http.StatusServiceUnavailable, fmt.Errorf("advisor: request expired waiting for admission: %w", err))
				return
			}
			defer s.adm.release()
		}
		h(w, r)
	}
}

// retryHint stamps the configured Retry-After pacing hint; sent on every
// 429 and 503 so a backing-off client always has a pace to follow.
func (s *Server) retryHint(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
}

// slowLog returns the slow-request logger.
func (s *Server) slowLog() *log.Logger {
	if s.cfg.SlowLog != nil {
		return s.cfg.SlowLog
	}
	return log.Default()
}

// retryAfterSeconds renders the Retry-After hint in whole seconds, at
// least 1 (a zero hint would invite an immediate stampede).
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON renders a 200 response body. It encodes into a buffer first:
// a value JSON cannot render (a ±Inf or NaN price) answers 500 with an
// error body instead of a 200 with an empty one.
func writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("advisor: encoding response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

// writeError renders an error body with the given status.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// writeServiceError classifies an error from the service layer: a request
// whose deadline expired (or whose client went away) answers 503 — the
// server is telling the truth about being too slow under the given budget,
// and the work-in-progress still lands in the caches for a retry. A failed
// journal append is 503 too: the mutation was not applied, the WAL
// self-heals, and a retry is exactly what ErrJournal asks for. Every 503
// carries the Retry-After pacing hint — the client's backoff honors it, and
// a shed burst retrying unpaced 503s would stampede. Anything else is a 500.
func (s *Server) writeServiceError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) || errors.Is(err, ErrJournal) {
		s.retryHint(w)
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeError(w, http.StatusInternalServerError, err)
}

// decodeBody parses a bounded JSON request body: exactly one document,
// unknown fields and trailing data rejected — a concatenated second batch
// silently dropped would read as ingested.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("advisor: bad request body: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return fmt.Errorf("advisor: bad request body: trailing data after JSON document")
	}
	return nil
}

// writeDecodeError classifies a decodeBody failure: an over-limit body is
// 413 (splitting the batch can succeed), anything else is 400 (retrying
// the same payload cannot).
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

// decodeRequest parses the request body into v, answering the decode
// failure itself; false means the response is already written.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := decodeBody(w, r, v); err != nil {
		writeDecodeError(w, err)
		return false
	}
	return true
}

// serveTables is the one body behind the workload endpoints (/advise,
// /replay, /query): validate the replay knobs, resolve the model spec once
// per request (400 on unknown names or NaN/Inf/non-positive overrides — it
// scopes every cache the request touches), materialize the workload, run
// the endpoint's own pre-flight check, fan the tables out over the parallel
// kernel, and map failures to statuses. The wires keep the request's table
// order; false means the error response is already written.
func serveTables[W any](s *Server, w http.ResponseWriter, wl AdviseRequest, opt ReplayOptions,
	check func(tws []schema.TableWorkload) error,
	each func(tw schema.TableWorkload, m cost.Model, mkey string) (W, error),
) ([]W, bool) {
	if err := opt.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	m, mkey, err := s.svc.modelFor(wl.Model)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	b, err := wl.Materialize()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	tws := b.TableWorkloads()
	if check != nil {
		if err := check(tws); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return nil, false
		}
	}
	wires := make([]W, len(tws))
	err = algo.FanOut(len(tws), func(i int) error {
		var err error
		wires[i], err = each(tws[i], m, mkey)
		return err
	})
	switch {
	case err == nil:
		return wires, true
	case errors.Is(err, ErrBadReplay):
		writeError(w, http.StatusBadRequest, err)
	default:
		s.writeServiceError(w, err)
	}
	return nil, false
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	var req AdviseRequest
	_, sp := telemetry.StartSpan(r.Context(), "wire decode")
	ok := decodeRequest(w, r, &req)
	sp.End()
	if !ok {
		return
	}
	wires, ok := serveTables(s, w, req, ReplayOptions{}, nil,
		func(tw schema.TableWorkload, m cost.Model, mkey string) (TableAdviceWire, error) {
			advice, fp, cached, err := s.svc.adviseTableAs(r.Context(), tw, m, mkey)
			if err != nil {
				return TableAdviceWire{}, err
			}
			return toWire(advice, fp, cached), nil
		})
	if ok {
		resp := AdviseResponse{Advice: wires}
		writeWire(w, r, func(b []byte) ([]byte, error) { return appendAdviseResponse(b, &resp) })
	}
}

func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	var req ReplayRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	wires, ok := serveExec(s, w, r, &s.svc.replayRoute, req.query(), toReplayWire)
	if ok {
		writeJSON(w, ReplayResponse{Reports: wires})
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	wires, ok := serveExec(s, w, r, &s.svc.queryRoute, req, toExecWire)
	if ok {
		writeJSON(w, QueryResponse{Reports: wires})
	}
}

// serveExec is the one body behind POST /replay and POST /query: advise,
// lease the advised layout's store, EXECUTE the workload as σ/π/⋈ operator
// pipelines, and render each table's report the endpoint's way. A
// selection, when present, applies only to its named table; other tables
// execute unfiltered.
func serveExec[W any](s *Server, w http.ResponseWriter, r *http.Request, rt *execRoute, req QueryRequest,
	render func(*replay.OperatorReplay, Fingerprint, bool) W) ([]W, bool) {
	opt := ReplayOptions{MaxRows: req.MaxRows, Seed: req.Seed, ExecMode: req.Exec}
	sel := req.Selection
	check := func(tws []schema.TableWorkload) error {
		if sel == nil {
			return nil
		}
		if sel.Table == "" || sel.Column == "" {
			return fmt.Errorf("%w: selection needs both table and column", ErrBadReplay)
		}
		for _, tw := range tws {
			if tw.Table.Name == sel.Table {
				return nil
			}
		}
		return fmt.Errorf("%w: selection table %q not in workload", ErrBadReplay, sel.Table)
	}
	return serveTables(s, w, req.advise(), opt, check,
		func(tw schema.TableWorkload, m cost.Model, mkey string) (W, error) {
			var tsel *ExecSelection
			if sel != nil && sel.Table == tw.Table.Name {
				tsel = &ExecSelection{Column: sel.Column, Bound: sel.Bound}
			}
			rep, fp, cached, err := s.svc.execTableAs(r.Context(), rt, tw, opt, tsel, m, mkey)
			if err != nil {
				var zero W
				return zero, err
			}
			return render(rep, fp, cached), nil
		})
}

// observeStatus maps an entry's observe error to its verdict status: 400
// for a bad observation (the same payload would fail again), 404 for an
// unregistered table (advise it first), 409 for a schema the observation
// no longer matches (the client's to fix by re-advising), 503 for an
// expired deadline or a failed journal append (nothing was applied; retry),
// 500 otherwise.
func observeStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrBadObservation):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotRegistered):
		return http.StatusNotFound
	case errors.Is(err, ErrStaleSchema):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled), errors.Is(err, ErrJournal):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// handleObserve answers POST /observe with one verdict per entry. Names
// resolve inside the tracker lock, against the table's current schema —
// resolving here against a snapshot would race a concurrent
// re-registration and silently rebind names to different columns. All
// per-query validation (weights, empty attrs) lives there too, so the
// rules have one source of truth. A request that applied nothing because
// the journal failed answers 503 with Retry-After, and its batch ID stays
// free for the retry.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	_, sp := telemetry.StartSpan(r.Context(), "wire decode")
	req, err := readObserve(w, r)
	sp.End()
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	outs, dup, err := s.svc.ObserveBatchID(r.Context(), req.BatchID, req.Batches)
	switch {
	case errors.Is(err, ErrBadObservation):
		writeError(w, http.StatusBadRequest, err)
		return
	case err != nil:
		s.writeServiceError(w, err)
		return
	}
	verdicts := make([]TableObserveVerdict, len(outs))
	for i, o := range outs {
		err := o.Err
		var current TableAdvice
		var fp Fingerprint
		if err == nil {
			// The tracker can be evicted between the ingest and this read;
			// the entry WAS applied, so report the read failure, not a 200.
			current, fp, err = s.svc.CurrentState(o.Table)
		}
		verdicts[i] = TableObserveVerdict{Table: o.Table, Status: observeStatus(err)}
		if err != nil {
			verdicts[i].Error = err.Error()
			continue
		}
		verdicts[i].Drift, verdicts[i].Advice = o.Rep, toWire(current, fp, false)
	}
	resp := ObserveResponse{Verdicts: verdicts, Duplicate: dup}
	writeWire(w, r, func(b []byte) ([]byte, error) { return appendObserveResponse(b, &resp) })
}

func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req MigrateRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if req.Table == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("advisor: migrate request names no table"))
		return
	}
	out, cached, err := s.svc.MigrateTable(req.Table, MigrateOptions{
		Window: req.Window, MaxRows: req.MaxRows, Seed: req.Seed,
	})
	if err != nil {
		switch {
		case errors.Is(err, ErrBadMigrate):
			writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, ErrNotRegistered):
			writeError(w, http.StatusNotFound, err)
		default:
			s.writeServiceError(w, err)
		}
		return
	}
	writeJSON(w, toMigrationWire(out, cached))
}

func (s *Server) handleAdvice(w http.ResponseWriter, r *http.Request) {
	table := r.URL.Query().Get("table")
	if table == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("advisor: missing table query parameter"))
		return
	}
	advice, fp, err := s.svc.CurrentState(table)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	wire := toWire(advice, fp, false)
	writeWire(w, r, func(b []byte) ([]byte, error) { return appendAdvice(b, &wire) })
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string][]string{"tables": s.svc.TrackedTables()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.svc.Stats()
	st.Shed = s.adm.shedCount()
	writeJSON(w, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleMetrics renders the shared registry in the Prometheus text format.
// Mounted only when ServerConfig.Telemetry is set; like the GET endpoints
// it is ungated, so a scraper keeps seeing the daemon while it sheds load.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = s.cfg.Telemetry.WritePrometheus(w)
}
