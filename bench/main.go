// Command bench is the repository's end-to-end benchmark: it builds
// cmd/knivesd, starts a fresh daemon subprocess per workload, drives it over
// real HTTP from two closed-loop clients, verifies every response, and
// prints every metric by name and unit. A second, traced pass replays a
// prefix of the same seeded op stream in-process through each layer's
// public functions for the per-layer numbers. See README.md beside this
// file for the workloads, the metric glossary and the run protocol.
//
// Usage, from the repository root:
//
//	go run ./bench [-seed N] [-workload NAME] [-seconds S] [-trace 0|1] [-out DIR]
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark writes goes: the daemon
// binary, WAL directories, file-backed stores, span files. It is inside the
// checkout and named in .gitignore.
const buildDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	smoke    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all four)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the op streams")
	fs.IntVar(&o.seconds, "seconds", 25, "length of each timed pass")
	fs.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only, from a half-length pass plus the traced pass; default both")
	fs.StringVar(&o.out, "out", "", "directory for result.json and the span files (default: a run directory under "+buildDir+")")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny run of every workload, to check the harness rather than the program")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || o.seconds < 1 || o.trace < -1 || o.trace > 1 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	var selected []*workload
	if o.workload == "" {
		selected = workloads
	} else if w := workloadByName(o.workload); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	ok, err := benchmark(o, selected, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// benchmark runs the selected workloads and reports whether every gate
// held. Everything it starts is stopped and everything it creates outside
// -out is removed before it returns, and on SIGINT/SIGTERM too.
func benchmark(o options, selected []*workload, stdout io.Writer) (ok bool, err error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return false, err
	}
	workDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return false, err
	}
	r := &runner{procs: newProcSet(), workDir: workDir}
	cleanup := func() {
		r.procs.killAll()
		_ = os.RemoveAll(workDir) // best effort: the directory is disposable
	}
	defer cleanup()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sigc:
			cleanup()
			os.Exit(130)
		case <-done:
		}
	}()
	defer func() {
		signal.Stop(sigc)
		close(done)
	}()

	outDir := o.out
	if outDir == "" {
		// Kept after the run, unlike the work dir: it holds the results.
		if outDir, err = os.MkdirTemp(buildDir, "out-"); err != nil {
			return false, err
		}
	} else if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}

	var buildTime time.Duration
	if r.bin, buildTime, err = buildDaemon(buildDir); err != nil {
		return false, err
	}
	res := &result{Env: captureEnv(o, buildTime)}
	fmt.Fprintf(stdout, "bench: seed %d, %d s per pass, %d clients, nproc %d, GOMAXPROCS %d, %s\n",
		o.seed, o.seconds, clients, res.Env.NProc, res.Env.GOMAXPROCS, res.Env.GoVersion)

	ok = true
	var lines [][]byte
	for _, w := range selected {
		wr, err := r.runWorkload(w, o, outDir, stdout)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		res.Workloads = append(res.Workloads, wr)
		if wr.Failed > 0 || len(wr.GateFailures) > 0 {
			ok = false
		}
		line, err := json.Marshal(wr.resultLine(o.trace))
		if err != nil {
			return false, err
		}
		lines = append(lines, line)
	}
	path := filepath.Join(outDir, "result.json")
	if err := writeJSONFile(path, res); err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "\nresults: %s\n", path)
	// One line per workload in the benchmark contract's format; with
	// -workload it is the last line of the output.
	for _, line := range lines {
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return ok, nil
}

// workloadResult is one workload's part of result.json.
type workloadResult struct {
	Name         string               `json:"name"`
	Attempted    int                  `json:"attempted"`
	Failed       int                  `json:"failed"`
	FailedShare  float64              `json:"failed_share"`
	NOps         int                  `json:"n_ops"`
	WallSeconds  float64              `json:"wall_seconds"`
	Segments     map[string][]float64 `json:"segments"`
	EndToEnd     map[string]float64   `json:"end_to_end,omitempty"`
	PerLayer     map[string]float64   `json:"per_layer,omitempty"`
	ClassCounts  map[string]int       `json:"class_counts"`
	P50Class     string               `json:"p50_class"`
	P95Class     string               `json:"p95_class"`
	Failures     []string             `json:"failures,omitempty"`
	GateFailures []string             `json:"gate_failures,omitempty"`
	SpanFile     string               `json:"span_file,omitempty"`
}

// result is the file -compare reads.
type result struct {
	Env       environment       `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the one-line JSON object the benchmark contract asks for.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (wr *workloadResult) resultLine(trace int) driverLine {
	l := driverLine{
		Correct:   wr.Failed == 0 && len(wr.GateFailures) == 0,
		Attempted: wr.Attempted,
		Failed:    wr.Failed,
		Metrics:   make(map[string]metricValue),
	}
	if trace != 1 {
		for _, d := range endToEnd {
			l.Metrics[d.name] = metricValue{wr.EndToEnd[d.name], d.unit}
		}
	}
	if trace != 0 {
		for _, d := range perLayer {
			l.Metrics[d.name] = metricValue{wr.PerLayer[d.name], d.unit}
		}
	}
	return l
}

// runWorkload runs w's untraced pass and, unless -trace 0, its traced pass,
// and prints the workload's report.
func (r *runner) runWorkload(w *workload, o options, outDir string, stdout io.Writer) (*workloadResult, error) {
	units, traceUnits := w.sizes(o.smoke)
	setups := maxSetups
	if o.smoke {
		setups = 1
	}
	limit := time.Duration(o.seconds) * time.Second
	if o.trace == 1 {
		// The traced pass takes the other half of the run.
		limit /= 2
	}
	tGen := time.Now()
	s := w.stream(o.seed, units)
	fmt.Fprintf(stdout, "\n== %s: %d units generated in %.2f s\n", w.name, len(s.units), time.Since(tGen).Seconds())

	p, err := r.run(w, s, limit, setups)
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	wr := &workloadResult{Name: w.name, NOps: len(p.samples), WallSeconds: p.wall().Seconds()}
	wr.Attempted, wr.Failed = p.counts()
	wr.FailedShare = float64(wr.Failed) / float64(wr.Attempted)
	wr.Failures = p.failures.first
	wr.ClassCounts = make(map[string]int)
	for _, s := range p.samples {
		wr.ClassCounts[s.class]++
	}
	wr.P50Class, wr.P95Class = classAt(p.samples, 0.50), classAt(p.samples, 0.95)

	e2e, parts := endToEndMetrics(p)
	wr.Segments = parts
	if o.trace != 1 {
		wr.EndToEnd = e2e
	}
	if o.trace != 0 {
		// Every workload reports every per-layer metric; a layer the
		// workload bypasses reads 0.
		wr.PerLayer = make(map[string]float64, len(perLayer))
		for _, d := range perLayer {
			wr.PerLayer[d.name] = 0
		}
		for k, v := range passLayerMetrics(p, traceUnits, nproc) {
			wr.PerLayer[k] = v
		}
		tr, err := r.tracedPass(w, s, traceUnits, p)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		for k, v := range tr.metrics {
			wr.PerLayer[k] = v
		}
		wr.SpanFile = filepath.Join(outDir, w.name+".spans.json")
		if err := writeJSONFile(wr.SpanFile, tr.file()); err != nil {
			return nil, err
		}
		wr.GateFailures = append(wr.GateFailures, tr.problems...)
	}
	wr.report(stdout, o.trace)
	return wr, nil
}

// classAt names the op class of the sample at the q-quantile of latency.
func classAt(ss []sample, q float64) string {
	if len(ss) == 0 {
		return ""
	}
	byLat := append([]sample(nil), ss...)
	sort.Slice(byLat, func(i, j int) bool { return byLat[i].latencyMS() < byLat[j].latencyMS() })
	return byLat[int(q*float64(len(byLat)-1))].class
}

// report prints the workload's metrics, one per line, by name and unit.
func (wr *workloadResult) report(w io.Writer, trace int) {
	fmt.Fprintf(w, "%s: n_ops %d in %.2f s, failed %d of %d attempted (failed_share %g); p50 falls on %s, p95 on %s\n",
		wr.Name, wr.NOps, wr.WallSeconds, wr.Failed, wr.Attempted, wr.FailedShare, wr.P50Class, wr.P95Class)
	classes := make([]string, 0, len(wr.ClassCounts))
	for c := range wr.ClassCounts {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var parts []string
	for _, c := range classes {
		parts = append(parts, fmt.Sprintf("%s %d", c, wr.ClassCounts[c]))
	}
	fmt.Fprintf(w, "  ops by class: %s\n", strings.Join(parts, ", "))
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, f := range wr.GateFailures {
		fmt.Fprintf(w, "  GATE: %s\n", f)
	}
	if trace != 1 {
		// Each end-to-end metric is a median; the values it is the median of
		// show how noisy this very run was.
		for _, d := range endToEnd {
			lo, hi := minMax(wr.Segments[d.name])
			fmt.Fprintf(w, "  %-32s %14.6g %-6s (median of %d: %.4g .. %.4g)\n",
				d.name, wr.EndToEnd[d.name], d.unit, len(wr.Segments[d.name]), lo, hi)
		}
	}
	if trace != 0 {
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, wr.PerLayer[d.name], d.unit)
		}
		fmt.Fprintf(w, "  spans: %s\n", wr.SpanFile)
	}
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
