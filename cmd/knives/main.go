// Command knives runs the paper's vertical partitioning algorithms and
// regenerates its evaluation artifacts.
//
// Usage:
//
//	knives list
//	    List the algorithms and the reproducible experiments.
//
//	knives optimize [workload] [target: -algorithm NAME|all]
//	    Compute layouts and report costs, candidates, and opt time.
//
//	knives advise [workload] [remote]
//	    Recommend the cheapest layout per table that AutoPart, HillClimb
//	    and HYRISE find — locally, or via a running knivesd (-server) with
//	    retrying requests that back off on 429/503 from a daemon under load.
//
//	knives observe -server URL [workload] [-table NAME|all]
//	               [-rounds N] [-batch N] [-retries N] [-retry-delay D]
//	    Stream the benchmark's workload to a running knivesd as BATCHED
//	    observations — many tables x many queries per POST /observe — and
//	    report each table's drift verdict plus the achieved observations/sec.
//	    Advise the benchmark on the daemon first (knives advise -server ...,
//	    or run knivesd with -prewarm) so the tables are registered.
//
//	knives exec [workload] [target: -algorithm advisor|NAME|Row|Column] [sample]
//	            [store] [-select-table NAME -select-column COL [-select-bound N]]
//	            [remote]
//	    Advise (or name) a layout per table, materialize it on mem- or
//	    file-backed pages, run every query as a streaming σ/π/⋈ operator
//	    pipeline over an epoch snapshot, print the table's totals, then each
//	    plan with its per-operator accounting, and verify the measured cost
//	    equals the cost model bit for bit (non-zero exit otherwise).
//	    -select-* pushes a σ(column < bound) on an int or date column into
//	    one table's scans. With -server, a running knivesd executes via
//	    POST /query instead (the store flags are refused there).
//
//	knives migrate [workload] [target: -algorithm advisor|NAME] [sample] [store]
//	               [-drift F] [-drift-seed N] [-window N]
//	    Plan and execute the drift-triggered re-layout of each table: the
//	    layout advised for the original workload is materialized, the
//	    workload drifts by fraction F, the layout advised for the drifted
//	    mix becomes the target, and the store is repartitioned in place —
//	    with the measured migration cost checked against the cost model
//	    and the migrated store verified against a fresh materialization,
//	    both at zero tolerance (non-zero exit on any divergence).
//
//	knives experiment ID|all [-reps N]
//	    Regenerate a paper figure/table (fig1..fig14, tab3..tab7).
//
// The bracketed groups are one shared flag set:
//
//	workload  -benchmark tpch|ssb  -sf N
//	target    -table NAME|all  -algorithm ...  -model hdd|ssd|mm  [device flags]
//	sample    -rows N  -seed N
//	store     -backend mem|file  -dir PATH
//	remote    -server URL  -retries N  -retry-delay D
//
// Every -model flag resolves a device preset (hdd, ssd, mm, plus aliases
// like disk, flash, ram), and the shared device flags override individual
// hardware parameters of that preset: -buffer MB, -block KB, -seek-ms,
// -read-mbps, -write-mbps, -cache-line BYTES, -miss-ns (0 = keep the
// preset's value).
//
// advise, observe, exec, and migrate accept -verbose: a per-step
// timing breakdown (benchmark build, per-table searches, executions, server
// round-trips) printed to stderr, leaving stdout parseable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"knives"
	"knives/internal/advisor"
	"knives/internal/devflag"
	"knives/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run dispatches a command line and returns the process exit code: 0 on
// success, 1 on command failure (including unknown experiment IDs, table
// names, algorithms...), 2 on usage errors. It exists so that tests can pin
// exit codes without spawning the binary; the subcommand FlagSets therefore
// use ContinueOnError — ExitOnError would os.Exit from inside fs.Parse and
// bypass this return path.
func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	var err error
	switch args[0] {
	case "list":
		err = runList()
	case "optimize":
		err = runOptimize(args[1:])
	case "advise":
		err = runAdvise(args[1:])
	case "observe":
		err = runObserve(args[1:])
	case "exec":
		err = runExec(args[1:])
	case "migrate":
		err = runMigrate(args[1:])
	case "experiment":
		err = runExperiment(args[1:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "knives: unknown command %q\n", args[0])
		usage()
		return 2
	}
	var ue usageError
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		// fs.Parse already printed flag errors (with usage); don't repeat.
		if !ue.reported {
			fmt.Fprintf(os.Stderr, "knives: %v\n", err)
		}
		return 2
	default:
		fmt.Fprintf(os.Stderr, "knives: %v\n", err)
		return 1
	}
}

// usageError marks bad command-line input (exit code 2, like the top-level
// dispatcher's own usage failures). reported means the flag package
// already printed the message to stderr.
type usageError struct {
	err      error
	reported bool
}

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

// parseFlags runs fs over args, classifying failures: -h propagates
// flag.ErrHelp (exit 0), anything else is a usageError (exit 2) that
// ContinueOnError has already reported to stderr.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err: err, reported: true}
	}
	return nil
}

// vtimer prints a per-step timing breakdown to stderr under -verbose: each
// step reports the time since the previous one, total the whole command.
// Timings go to stderr so piped stdout output stays parseable.
type vtimer struct {
	on          bool
	start, last time.Time
}

func newVTimer(on bool) *vtimer {
	now := time.Now()
	return &vtimer{on: on, start: now, last: now}
}

func (v *vtimer) step(name string) {
	if !v.on {
		return
	}
	now := time.Now()
	fmt.Fprintf(os.Stderr, "timing: %-32s %v\n", name, now.Sub(v.last).Round(10*time.Microsecond))
	v.last = now
}

func (v *vtimer) total() {
	if !v.on {
		return
	}
	fmt.Fprintf(os.Stderr, "timing: %-32s %v\n", "total", time.Since(v.start).Round(10*time.Microsecond))
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: knives <command> [flags]

commands:
  list                      list algorithms and experiments
  optimize [flags]          compute layouts for one or all tables
  advise [flags]            recommend the best layout per table
  observe [flags]           stream batched observations to a running knivesd
  exec [flags]              execute advised layouts as σ/π/⋈ pipelines, verify the cost model (optionally via knivesd)
  migrate [flags]           plan + execute a drift-triggered re-layout and verify it
  experiment <id|all>       regenerate a paper figure or table

run "knives <command> -h" for command flags`)
}

// command is the flag set and per-table loop that optimize, advise, exec,
// and migrate share. Each subcommand registers only the flag groups it
// accepts — so none gains a flag it did not have — parses, and resolves the
// shared ones in one place.
type command struct {
	fs        *flag.FlagSet
	benchName *string
	sf        *float64
	verbose   *bool

	// target(): which tables, which layout source, which device.
	table, algoName, modelName *string
	families                   bool // -algorithm also accepts Row and Column
	devf                       func() (knives.Disk, error)
	// sample(): the materialized copy.
	rows *int64
	seed *int64
	// store(): where partition pages live.
	backend, dir *string
	// remote(): a running knivesd answers instead.
	server     *string
	retries    *int
	retryDelay *time.Duration

	// Filled by parse.
	bench    *knives.Benchmark
	override knives.Disk
	model    knives.CostModel
	vt       *vtimer
}

// newCommand starts a subcommand's flag set with the workload flags every
// one of them takes.
func newCommand(name string) *command {
	c := &command{fs: flag.NewFlagSet(name, flag.ContinueOnError)}
	c.benchName = c.fs.String("benchmark", "tpch", "benchmark: tpch or ssb")
	c.sf = c.fs.Float64("sf", 10, "scale factor (0 = default 10)")
	return c
}

func (c *command) target(algoDefault, algoUsage string, families bool) {
	c.table = c.fs.String("table", "all", "table name or all")
	c.algoName = c.fs.String("algorithm", algoDefault, algoUsage)
	c.modelName = c.fs.String("model", "hdd", "cost model: hdd, ssd, or mm")
	c.families = families
	c.devf = devflag.Register(c.fs)
}

func (c *command) sample() {
	c.rows = c.fs.Int64("rows", 0, "max rows materialized per table (0 = default)")
	c.seed = c.fs.Int64("seed", 1, "data generator seed")
}

func (c *command) store() {
	c.backend = c.fs.String("backend", "mem", "partition page store: mem or file")
	c.dir = c.fs.String("dir", "", "directory for -backend file (default: a fresh temp dir)")
}

func (c *command) remote(serverUsage string) {
	c.server = c.fs.String("server", "", serverUsage)
	c.retries = c.fs.Int("retries", 3, "total attempts per request in -server mode (429/503/transport errors retry)")
	c.retryDelay = c.fs.Duration("retry-delay", 100*time.Millisecond, "base backoff between -server retries (doubles per attempt)")
}

func (c *command) verboseFlag() {
	c.verbose = c.fs.Bool("verbose", false, "print a per-step timing breakdown to stderr")
}

// parse parses the arguments, starts the -verbose timer (the caller defers
// c.vt.total()), rejects a negative -rows before any search runs, and
// resolves the shared flags: the benchmark and, for commands with a target,
// the device override and the cost model.
func (c *command) parse(args []string) error {
	err := parseFlags(c.fs, args)
	if err != nil {
		return err
	}
	c.vt = newVTimer(c.verbose != nil && *c.verbose)
	if c.rows != nil && *c.rows < 0 {
		return usageError{err: fmt.Errorf("-rows %d must be non-negative", *c.rows)}
	}
	if c.bench, err = knives.BenchmarkByName(*c.benchName, *c.sf); err != nil || c.devf == nil {
		return err
	}
	if c.override, err = c.devf(); err != nil {
		return usageError{err: err}
	}
	c.model, err = knives.CostModelByName(*c.modelName, c.override)
	return err
}

// client returns the retrying knivesd client -server mode talks through.
func (c *command) client() (*advisor.Client, error) {
	if *c.retries < 1 {
		return nil, usageError{err: fmt.Errorf("-retries must be >= 1 (got %d)", *c.retries)}
	}
	client := advisor.NewClient(*c.server)
	client.Retry = advisor.RetryPolicy{MaxAttempts: *c.retries, BaseDelay: *c.retryDelay}
	return client, nil
}

// replayConfig assembles the materialize-and-execute config from the shared
// flags, creates the temp dir a file backend without -dir needs (cleanup
// removes it), and validates the result before any portfolio search runs:
// an unknown backend must fail fast, not after minutes of optimization (and
// not never, when a migration plan happens to be an identity).
func (c *command) replayConfig() (knives.ReplayConfig, func(), error) {
	cfg := knives.ReplayConfig{Model: *c.modelName, Disk: c.override, MaxRows: *c.rows, Seed: *c.seed,
		Backend: *c.backend, Dir: *c.dir}
	cleanup := func() {}
	if cfg.Backend == "file" && cfg.Dir == "" {
		tmp, err := os.MkdirTemp("", "knives-"+c.fs.Name()+"-")
		if err != nil {
			return cfg, cleanup, err
		}
		cleanup = func() { os.RemoveAll(tmp) }
		cfg.Dir = tmp
	}
	_, _, err := cfg.Normalized()
	return cfg, cleanup, err
}

// eachTable runs fn on every benchmark table -table selects; a name that
// matches none is a command failure.
func (c *command) eachTable(fn func(tw knives.TableWorkload) error) error {
	matched := false
	for _, tw := range c.bench.TableWorkloads() {
		if *c.table != "all" && tw.Table.Name != *c.table {
			continue
		}
		matched = true
		if err := fn(tw); err != nil {
			return err
		}
	}
	if !matched {
		return fmt.Errorf("benchmark %s has no table %q", c.bench.Name, *c.table)
	}
	return nil
}

// layoutFor resolves -algorithm for one table workload: "advisor" races the
// portfolio and takes its winner, Row/Column (where the subcommand accepts
// them) name the baseline families, anything else names one algorithm.
// Layouts are computed per matched table, so -table never searches the rest
// of the benchmark.
func (c *command) layoutFor(tw knives.TableWorkload) (knives.Partitioning, string, error) {
	switch name := strings.ToLower(*c.algoName); {
	case name == "advisor":
		advice, err := knives.AdviseTable(tw, c.model)
		if err != nil {
			return knives.Partitioning{}, "", err
		}
		return advice.Layout, advice.Algorithm, nil
	case c.families && name == "row":
		return knives.RowLayout(tw.Table), "Row", nil
	case c.families && name == "column":
		return knives.ColumnLayout(tw.Table), "Column", nil
	}
	a, err := knives.AlgorithmByName(*c.algoName)
	if err != nil {
		return knives.Partitioning{}, "", err
	}
	res, err := a.Partition(tw, c.model)
	if err != nil {
		return knives.Partitioning{}, "", err
	}
	return res.Partitioning, a.Name(), nil
}

// errDiverged is the exit-1 verdict of the zero-tolerance commands.
var errDiverged = errors.New("measured execution diverged from the cost model (see deltas above)")

func runList() error {
	fmt.Println("algorithms:")
	for _, a := range knives.Algorithms() {
		fmt.Printf("  %s\n", a.Name())
	}
	fmt.Println("\nexperiments:")
	for _, e := range knives.Experiments() {
		fmt.Printf("  %-6s %s\n", e.ID, e.Description)
	}
	return nil
}

func runOptimize(args []string) error {
	c := newCommand("optimize")
	c.target("all", "algorithm name or all", false)
	if err := c.parse(args); err != nil {
		return err
	}

	var algos []knives.Algorithm
	if *c.algoName == "all" {
		algos = knives.Algorithms()
	} else {
		a, err := knives.AlgorithmByName(*c.algoName)
		if err != nil {
			return err
		}
		algos = []knives.Algorithm{a}
	}

	return c.eachTable(func(tw knives.TableWorkload) error {
		fmt.Printf("table %s (%d rows, %d attrs, %d queries)\n",
			tw.Table.Name, tw.Table.Rows, tw.Table.NumAttrs(), len(tw.Queries))
		rowC := knives.WorkloadCost(c.model, tw, knives.RowLayout(tw.Table))
		colC := knives.WorkloadCost(c.model, tw, knives.ColumnLayout(tw.Table))
		fmt.Printf("  %-10s cost=%12.4f\n", "Row", rowC)
		fmt.Printf("  %-10s cost=%12.4f\n", "Column", colC)
		for _, a := range algos {
			res, err := a.Partition(tw, c.model)
			if err != nil {
				fmt.Printf("  %-10s error: %v\n", a.Name(), err)
				continue
			}
			fmt.Printf("  %-10s cost=%12.4f  candidates=%-9d opt=%v\n    %s\n",
				a.Name(), res.Cost, res.Stats.Candidates, res.Stats.Duration, res.Partitioning)
		}
		fmt.Println()
		return nil
	})
}

func runAdvise(args []string) error {
	c := newCommand("advise")
	c.remote("ask a running knivesd at this base URL instead of searching locally")
	c.verboseFlag()
	if err := c.parse(args); err != nil {
		return err
	}
	defer c.vt.total()
	if *c.server != "" {
		client, err := c.client()
		if err != nil {
			return err
		}
		err = adviseViaServer(client, *c.benchName, *c.sf)
		c.vt.step("advise via server")
		return err
	}
	c.vt.step("build benchmark")
	advice, err := knives.Advise(c.bench, knives.NewHDDModel(knives.DefaultDisk()))
	if err != nil {
		return err
	}
	c.vt.step("portfolio search")
	for _, a := range advice {
		fmt.Printf("%-10s use %-9s cost=%10.3f  vs row %+.1f%%  vs column %+.1f%%\n",
			a.Table.Name, a.Algorithm, a.Cost,
			a.ImprovementOverRow()*100, a.ImprovementOverColumn()*100)
		fmt.Printf("           %s\n", a.Layout)
	}
	return nil
}

// adviseViaServer asks a running knivesd for the benchmark's advice instead
// of searching locally — the daemon's fingerprint cache answers a prewarmed
// benchmark without a single search, and the retry policy rides out 429
// shedding and 503 deadlines from a daemon under load.
func adviseViaServer(client *advisor.Client, benchName string, sf float64) error {
	resp, err := client.Advise(context.Background(), advisor.AdviseRequest{Benchmark: benchName, ScaleFactor: sf})
	if err != nil {
		return err
	}
	for _, a := range resp.Advice {
		from := "searched"
		if a.Cached {
			from = "cached"
		}
		fmt.Printf("%-10s use %-9s cost=%10.3f  vs row %+.1f%%  vs column %+.1f%%  (%s)\n",
			a.Table, a.Algorithm, a.Cost,
			a.ImprovementOverRow*100, a.ImprovementOverColumn*100, from)
		fmt.Printf("           %v\n", a.Layout)
	}
	return nil
}

// runObserve streams a benchmark's workload to a running knivesd as batched
// observations: queries accumulate in an ObserveBuffer and ship as one
// multi-table POST /observe per -batch queries — one WAL commit per request
// on the daemon — instead of one request per query.
func runObserve(args []string) error {
	c := newCommand("observe")
	c.table = c.fs.String("table", "all", "table name or all")
	c.remote("base URL of a running knivesd (required)")
	c.verboseFlag()
	rounds := c.fs.Int("rounds", 1, "times the workload is streamed")
	batch := c.fs.Int("batch", advisor.DefaultObserveFlushAt, "queries per batched /observe request")
	if err := c.parse(args); err != nil {
		return err
	}
	defer c.vt.total()
	if *c.server == "" {
		return usageError{err: fmt.Errorf("observe needs -server URL (a running knivesd; advise the benchmark there first)")}
	}
	if *rounds < 1 {
		return usageError{err: fmt.Errorf("-rounds must be >= 1 (got %d)", *rounds)}
	}
	if *batch < 1 {
		return usageError{err: fmt.Errorf("-batch must be >= 1 (got %d)", *batch)}
	}
	client, err := c.client()
	if err != nil {
		return err
	}
	c.vt.step("build benchmark")
	buf := &advisor.ObserveBuffer{Client: client, FlushAt: *batch}

	ctx := context.Background()
	last := make(map[string]advisor.TableObserveVerdict)
	collect := func(vs []advisor.TableObserveVerdict) error {
		for _, v := range vs {
			if v.Error != "" {
				return fmt.Errorf("observe %s: %s (status %d)", v.Table, v.Error, v.Status)
			}
			last[v.Table] = v
		}
		return nil
	}
	total := 0
	start := time.Now()
	for r := 0; r < *rounds; r++ {
		err := c.eachTable(func(tw knives.TableWorkload) error {
			for _, q := range tw.Queries {
				vs, err := buf.Add(ctx, tw.Table.Name, advisor.ObservedQry{
					Attrs:  tw.Table.AttrNames(q.Attrs),
					Weight: q.Weight,
				})
				if err != nil {
					return err
				}
				total++
				if err := collect(vs); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	c.vt.step("stream observations")
	vs, err := buf.Flush(ctx)
	if err != nil {
		return err
	}
	if err := collect(vs); err != nil {
		return err
	}
	c.vt.step("final flush")
	elapsed := time.Since(start)

	names := make([]string, 0, len(last))
	for n := range last {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := last[n]
		state := "stable"
		if v.Drift.Drifted {
			state = "drifted"
		}
		if v.Drift.Recomputed {
			state = "recomputed"
		}
		fmt.Printf("%-10s %-10s ratio=%7.3f threshold=%.3f observed=%d recomputes=%d\n",
			n, state, v.Drift.Ratio, v.Drift.Threshold, v.Drift.Observed, v.Drift.Recomputes)
	}
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	fmt.Printf("observed %d queries in %v (%.0f obs/sec)\n",
		total, elapsed.Round(time.Millisecond), float64(total)/secs)
	return nil
}

// runExec advises (or names) a layout per table, materializes it on mem- or
// file-backed pages, executes the workload as σ/π/⋈ operator pipelines over
// an epoch snapshot, prints each table's totals, plans and per-operator
// accounting, and verifies that measured equals predicted bit for bit. With
// -server, a running knivesd executes via POST /query instead, so the
// page-store flags are refused there.
func runExec(args []string) error {
	c := newCommand("exec")
	c.target("advisor", "layout source: an algorithm name, Row, Column, or advisor (portfolio winner)", true)
	c.sample()
	c.store()
	selTable := c.fs.String("select-table", "", "table whose pipelines gain a pushed-down selection")
	selColumn := c.fs.String("select-column", "", "u32 column (int or date) the selection filters on")
	selBound := c.fs.Uint64("select-bound", 0, "keep rows with column value strictly below this bound")
	c.remote("execute via a running knivesd at this base URL (POST /query)")
	c.verboseFlag()
	if err := c.parse(args); err != nil {
		return err
	}
	defer c.vt.total()

	if (*selTable == "") != (*selColumn == "") {
		return usageError{err: fmt.Errorf("-select-table and -select-column go together")}
	}
	if *selBound > 1<<32-1 {
		return usageError{err: fmt.Errorf("-select-bound %d exceeds uint32", *selBound)}
	}
	var sel *advisor.SelectionSpec
	if *selTable != "" {
		sel = &advisor.SelectionSpec{Table: *selTable, Column: *selColumn, Bound: uint32(*selBound)}
	}
	if *c.server != "" {
		local := false
		c.fs.Visit(func(f *flag.Flag) { local = local || f.Name == "backend" || f.Name == "dir" })
		if local {
			return usageError{err: fmt.Errorf("-backend and -dir apply to a local run, not with -server")}
		}
		return execViaServer(c, sel)
	}

	cfg, cleanup, err := c.replayConfig()
	defer cleanup()
	if err != nil {
		return err
	}
	// Bind the selection to its table and column before any search runs: the
	// same checks POST /query applies, failing as usage errors.
	var opSel *knives.Selection
	if sel != nil {
		t := c.bench.Table(sel.Table)
		if t == nil {
			return usageError{err: fmt.Errorf("selection table %q not in workload", sel.Table)}
		}
		if opSel, err = (advisor.ExecSelection{Column: sel.Column, Bound: sel.Bound}).On(t); err != nil {
			return usageError{err: err}
		}
	}

	allExact := true
	err = c.eachTable(func(tw knives.TableWorkload) error {
		layout, algorithm, err := c.layoutFor(tw)
		if err != nil {
			return err
		}
		c.vt.step("advise " + tw.Table.Name)
		var tsel *knives.Selection
		if sel != nil && sel.Table == tw.Table.Name {
			tsel = opSel
		}
		rep, err := knives.ExecuteLayout(tw, layout, algorithm, cfg, tsel)
		if err != nil {
			return err
		}
		c.vt.step("exec " + tw.Table.Name)
		fmt.Print(rep)
		fmt.Println()
		allExact = allExact && rep.Exact()
		return nil
	})
	if err == nil && !allExact {
		err = errDiverged
	}
	return err
}

// execViaServer asks a running knivesd to execute the benchmark via POST
// /query and renders the tables -table selects.
func execViaServer(c *command, sel *advisor.SelectionSpec) error {
	client, err := c.client()
	if err != nil {
		return err
	}
	resp, err := client.Query(context.Background(), advisor.QueryRequest{
		Benchmark:   *c.benchName,
		ScaleFactor: *c.sf,
		MaxRows:     *c.rows,
		Seed:        *c.seed,
		Selection:   sel,
		Model:       &advisor.ModelSpec{Name: *c.modelName},
	})
	if err != nil {
		return err
	}
	c.vt.step("query via server")
	allExact := true
	for _, rep := range resp.Reports {
		if *c.table != "all" && rep.Table != *c.table {
			continue
		}
		from := "executed"
		if rep.Cached {
			from = "cached"
		}
		fmt.Printf("exec %s: algorithm=%s model=%s rows=%d/%d (%s)\n",
			rep.Table, rep.Algorithm, rep.Model, rep.RowsReplayed, rep.RowsFull, from)
		if rep.Selection != "" {
			fmt.Printf("  selection: %s\n", rep.Selection)
		}
		for _, p := range rep.Pipelines {
			fmt.Printf("  %-8s %s -> %d rows  measured=%.6e predicted=%.6e\n",
				p.ID, p.Plan, p.ResultRows, p.MeasuredSeconds, p.PredictedSeconds)
		}
		fmt.Printf("  total: measured=%.9e predicted=%.9e exact=%v\n",
			rep.MeasuredSeconds, rep.PredictedSeconds, rep.Exact)
		fmt.Println()
		allExact = allExact && rep.Exact
	}
	if !allExact {
		return errDiverged
	}
	return nil
}

func runMigrate(args []string) error {
	c := newCommand("migrate")
	c.target("advisor", "layout source for both endpoints: an algorithm name or advisor (portfolio winner)", false)
	drift := c.fs.Float64("drift", 0.5, "fraction of the workload replaced by perturbed queries")
	driftSeed := c.fs.Int64("drift-seed", 42, "seed for the deterministic workload drift")
	window := c.fs.Int64("window", 0, "break-even horizon bound in queries (0 = default)")
	c.sample()
	c.store()
	c.verboseFlag()
	if err := c.parse(args); err != nil {
		return err
	}
	defer c.vt.total()
	if *drift < 0 || *drift > 1 {
		return usageError{err: fmt.Errorf("-drift %v outside [0, 1]", *drift)}
	}
	cfg, cleanup, err := c.replayConfig()
	defer cleanup()
	if err != nil {
		return err
	}

	// Per table: the FROM layout is what the source advises for the
	// original workload, the TO layout what it advises after the workload
	// drifts.
	allExact := true
	err = c.eachTable(func(tw knives.TableWorkload) error {
		drifted := knives.DriftWorkload(tw, *drift, *driftSeed)
		from, fromAlgo, err := c.layoutFor(tw)
		if err != nil {
			return err
		}
		to, toAlgo, err := c.layoutFor(drifted)
		if err != nil {
			return err
		}
		c.vt.step("advise endpoints " + tw.Table.Name)
		plan, err := knives.MigratePlan(drifted, from, to, c.model, *window)
		if err != nil {
			return err
		}
		plan.FromAlgorithm, plan.ToAlgorithm = fromAlgo, toAlgo
		if plan.From.Equal(plan.To) {
			fmt.Print(plan)
			fmt.Println()
			return nil
		}
		rep, err := knives.MigrateExecute(drifted, plan, cfg)
		if err != nil {
			return err
		}
		c.vt.step("migrate " + tw.Table.Name)
		fmt.Print(rep)
		fmt.Println()
		allExact = allExact && rep.Exact()
		return nil
	})
	if err == nil && !allExact {
		err = fmt.Errorf("migration diverged: measured cost != predicted, or the migrated store failed verification (see above)")
	}
	return err
}

func runExperiment(args []string) error {
	if len(args) < 1 {
		return usageError{err: fmt.Errorf("experiment needs an id (or all); run \"knives list\"")}
	}
	id := args[0]
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	reps := fs.Int("reps", 3, "repetitions for timing experiments")
	extras := func() []string { return fs.Args() }
	if strings.HasPrefix(id, "-") {
		// Flags first: let the FlagSet handle them so -h prints this
		// subcommand's help (exit 0), and accept an id after the flags
		// ("experiment -reps 5 fig1").
		if err := parseFlags(fs, args); err != nil {
			return err
		}
		if id = fs.Arg(0); id == "" {
			return usageError{err: fmt.Errorf("experiment needs an id (or all); run \"knives list\"")}
		}
		extras = func() []string { return fs.Args()[1:] } // Arg(0) is the id
	} else if err := parseFlags(fs, args[1:]); err != nil {
		return err
	}
	// Unconsumed trailing arguments are a typo, not something to drop
	// silently ("experiment tab4 junk" must not report success).
	if rest := extras(); len(rest) > 0 {
		return usageError{err: fmt.Errorf("experiment takes one id; extra arguments %v", rest)}
	}
	if *reps < 1 {
		return usageError{err: fmt.Errorf("-reps must be >= 1 (got %d)", *reps)}
	}
	suite := experiments.NewSuite()
	suite.Reps = *reps

	run := func(e knives.Experiment) error {
		rep, err := e.Run(suite)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println(rep)
		return nil
	}
	if id == "all" {
		for _, e := range experiments.All() {
			if err := run(e); err != nil {
				return err
			}
		}
		return nil
	}
	e, err := experiments.ByID(id)
	if err != nil {
		return err
	}
	return run(e)
}
