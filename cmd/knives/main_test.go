package main

import (
	"net/http/httptest"
	"testing"

	"knives"
	"knives/internal/advisor"
)

// advise -server must round-trip against a live daemon handler, and reject
// nonsense retry flags as usage errors.
func TestRunAdviseServerMode(t *testing.T) {
	svc, err := advisor.OpenService(advisor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(advisor.NewServer(svc))
	defer ts.Close()

	if got := run([]string{"advise", "-server", ts.URL, "-benchmark", "tpch", "-sf", "0.01"}); got != 0 {
		t.Errorf("advise -server = exit %d, want 0", got)
	}
	if got := run([]string{"advise", "-server", ts.URL, "-retries", "0"}); got != 2 {
		t.Errorf("advise -server -retries 0 = exit %d, want 2", got)
	}
	// observe shares advise's -server flags, and their validation.
	if got := run([]string{"observe", "-server", ts.URL, "-retries", "0", "-sf", "0.01"}); got != 2 {
		t.Errorf("observe -server -retries 0 = exit %d, want 2", got)
	}
	if got := run([]string{"observe", "-benchmark", "tpch", "-sf", "0.01", "-rounds", "2"}); got != 2 {
		t.Errorf("observe without -server = exit %d, want 2", got)
	}
	if got := run([]string{"observe", "-server", ts.URL, "-benchmark", "tpch", "-sf", "0.01", "-rounds", "2"}); got != 0 {
		t.Errorf("observe -server on an advised benchmark = exit %d, want 0", got)
	}
	// A dead server is a command failure, not a usage error.
	ts.Close()
	if got := run([]string{"advise", "-server", ts.URL, "-retries", "1", "-benchmark", "tpch", "-sf", "0.01"}); got != 1 {
		t.Errorf("advise against dead server = exit %d, want 1", got)
	}
}

func TestPickBenchmark(t *testing.T) {
	for _, name := range []string{"tpch", "TPC-H", "ssb"} {
		b, err := knives.BenchmarkByName(name, 1)
		if err != nil {
			t.Errorf("knives.BenchmarkByName(%q): %v", name, err)
			continue
		}
		if b == nil || len(b.Tables) == 0 {
			t.Errorf("knives.BenchmarkByName(%q) returned empty benchmark", name)
		}
	}
	if _, err := knives.BenchmarkByName("mystery", 1); err == nil {
		t.Error("BenchmarkByName accepted an unknown benchmark")
	}
}

func TestRunListSucceeds(t *testing.T) {
	if err := runList(); err != nil {
		t.Fatal(err)
	}
}

func TestRunOptimizeRejectsBadFlags(t *testing.T) {
	if err := runOptimize([]string{"-model", "quantum"}); err == nil {
		t.Error("accepted unknown cost model")
	}
	if err := runOptimize([]string{"-benchmark", "mystery"}); err == nil {
		t.Error("accepted unknown benchmark")
	}
	if err := runOptimize([]string{"-algorithm", "Nope", "-table", "region", "-sf", "0.01"}); err == nil {
		t.Error("accepted unknown algorithm")
	}
}

func TestRunOptimizeSmallTable(t *testing.T) {
	// Region at SF 0.01 is tiny; exercises the full code path quickly.
	if err := runOptimize([]string{"-table", "region", "-sf", "0.01", "-algorithm", "HillClimb"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExperimentValidation(t *testing.T) {
	if err := runExperiment(nil); err == nil {
		t.Error("accepted missing experiment id")
	}
	if err := runExperiment([]string{"fig99"}); err == nil {
		t.Error("accepted unknown experiment id")
	}
}

// The process must fail loudly on bad input: unknown experiment IDs, table
// names, and algorithms exit 1; usage errors exit 2. run() is main() minus
// os.Exit, so these pins cover the real exit paths.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"experiment", "fig99"}, 1},
		// A missing id is malformed input, classified with the other usage
		// errors.
		{[]string{"experiment"}, 2},
		{[]string{"optimize", "-table", "nonexistent", "-sf", "0.01"}, 1},
		{[]string{"optimize", "-algorithm", "Nope", "-sf", "0.01"}, 1},
		{[]string{"advise", "-benchmark", "mystery"}, 1},
		{[]string{"slice"}, 2},
		{nil, 2},
		{[]string{"help"}, 0},
		{[]string{"list"}, 0},
		// Flag-parse failures must flow back through run(), not os.Exit
		// from inside fs.Parse: the FlagSets use ContinueOnError.
		{[]string{"optimize", "-nosuchflag"}, 2},
		{[]string{"advise", "-sf", "potato"}, 2},
		{[]string{"experiment", "tab4", "-nosuchflag"}, 2},
		{[]string{"optimize", "-h"}, 0},
		{[]string{"experiment", "-h"}, 0},
		{[]string{"experiment", "-reps", "2"}, 2},
		// Flags-then-id order works: the id is taken from the remaining
		// args.
		{[]string{"experiment", "-reps", "1", "tab4"}, 0},
		// Trailing junk is rejected, not silently dropped.
		{[]string{"experiment", "tab4", "junk"}, 2},
		{[]string{"experiment", "-reps", "1", "tab4", "junk"}, 2},
		// A repetition count below 1 is a usage error, not a silent 3.
		{[]string{"experiment", "-reps", "0", "tab4"}, 2},
		{[]string{"experiment", "tab4", "-reps", "-5"}, 2},
	}
	for _, tc := range cases {
		if got := run(tc.args); got != tc.want {
			t.Errorf("run(%v) = %d, want %d", tc.args, got, tc.want)
		}
	}
}

func TestRunOptimizeRejectsUnknownTable(t *testing.T) {
	if err := runOptimize([]string{"-table", "nonexistent", "-sf", "0.01", "-algorithm", "HillClimb"}); err == nil {
		t.Error("accepted unknown table name")
	}
}

func TestRunAdvise(t *testing.T) {
	if err := runAdvise([]string{"-sf", "0.01"}); err != nil {
		t.Fatal(err)
	}
	if err := runAdvise([]string{"-benchmark", "mystery"}); err == nil {
		t.Error("accepted unknown benchmark")
	}
}

// replay, exec, and migrate share one flag set and one per-table loop, so
// the same cases drive all three: a nil error IS the zero-tolerance
// assertion (any measured/predicted divergence makes the command error).
func TestRunReplaySmallTable(t *testing.T) {
	for _, tc := range []struct {
		cmd   string
		run   func([]string) error
		extra []string
	}{
		// Region at SF 0.01 with a capped sample: the full advise-
		// materialize-execute-verify path.
		{"replay", runReplay, nil},
		{"exec", runExec, nil},
		{"migrate", runMigrate, []string{"-drift", "0.5"}},
		// A named algorithm, the MM model, and the file backend all flow
		// through the same path.
		{"replay", runReplay, []string{"-algorithm", "HillClimb", "-model", "mm", "-backend", "file"}},
		{"migrate", runMigrate, []string{"-algorithm", "HillClimb", "-model", "mm", "-backend", "file"}},
		// exec has no page-store flags; its knobs are the batch size and the
		// pushed-down selection (region's int key), and the baseline
		// families are layout sources like any algorithm.
		{"exec", runExec, []string{"-algorithm", "HillClimb", "-model", "mm", "-batch", "64"}},
		{"exec", runExec, []string{"-algorithm", "Column", "-select-table", "region", "-select-column", "r_regionkey", "-select-bound", "3"}},
	} {
		args := append([]string{"-table", "region", "-sf", "0.01", "-rows", "500"}, tc.extra...)
		if err := tc.run(args); err != nil {
			t.Errorf("%s %v: %v", tc.cmd, args, err)
		}
	}
}

func TestRunReplayRejectsBadFlags(t *testing.T) {
	region := []string{"-table", "region", "-sf", "0.01"}
	shared := [][]string{
		{"-model", "quantum"},
		{"-benchmark", "mystery"},
		append([]string{"-algorithm", "Nope"}, region...),
		{"-table", "nonexistent", "-sf", "0.01"},
		append([]string{"-rows", "-4"}, region...),
	}
	for _, cmd := range []string{"replay", "exec", "migrate"} {
		cases := shared
		switch cmd {
		case "exec":
			cases = append(cases[:len(cases):len(cases)],
				append([]string{"-batch", "-1"}, region...),
				append([]string{"-select-table", "region"}, region...),
				append([]string{"-select-table", "region", "-select-column", "nope"}, region...))
		default:
			cases = append(cases[:len(cases):len(cases)], append([]string{"-backend", "s3"}, region...))
		}
		for _, args := range cases {
			if got := run(append([]string{cmd}, args...)); got == 0 {
				t.Errorf("%s %v accepted bad input", cmd, args)
			}
		}
		if got := run([]string{cmd, "-nosuchflag"}); got != 2 {
			t.Errorf("%s usage error exited %d, want 2", cmd, got)
		}
		if got := run([]string{cmd, "-table", "nonexistent", "-sf", "0.01"}); got != 1 {
			t.Errorf("%s unknown table exited %d, want 1", cmd, got)
		}
		if got := run(append([]string{cmd, "-rows", "-4"}, region...)); got != 2 {
			t.Errorf("%s negative -rows exited %d, want 2 (usage)", cmd, got)
		}
	}
	// The selection contract is "u32 column (int or date)": a text column
	// is a usage error before any search runs, not a silent 0-row answer.
	for _, col := range []string{"l_returnflag", "l_comment"} {
		if got := run([]string{"exec", "-table", "lineitem", "-sf", "0.01", "-rows", "500",
			"-select-table", "lineitem", "-select-column", col, "-select-bound", "5"}); got != 2 {
			t.Errorf("exec -select-column %s exited %d, want 2", col, got)
		}
	}
	// A selection on a table the workload does not have is the same usage
	// error the daemon answers with a 400, not an unfiltered run.
	if got := run([]string{"exec", "-table", "region", "-sf", "0.01", "-rows", "500",
		"-select-table", "nosuch", "-select-column", "r_regionkey", "-select-bound", "5"}); got != 2 {
		t.Errorf("exec -select-table nosuch exited %d, want 2", got)
	}
	// Each subcommand keeps exactly its own flags: replay has no batch knob,
	// exec no page store, and the executor-selecting flags are gone from both.
	for _, args := range [][]string{
		{"replay", "-batch", "64"},
		{"replay", "-exec", "vector"},
		{"exec", "-exec", "vector"},
		{"exec", "-exec-workers", "2"},
	} {
		if got := run(args); got != 2 {
			t.Errorf("%v exited %d, want 2 (flag provided but not defined)", args, got)
		}
	}
	if got := run([]string{"exec", "-backend", "file"}); got != 2 {
		t.Errorf("exec accepted replay's -backend flag (exit %d)", got)
	}
}

func TestRunMigrateSmallTable(t *testing.T) {
	// Partsupp at SF 0.01: the full advise-drift-plan-execute-verify path.
	// The command errors (exit 1) on any measured/predicted divergence, so
	// a nil error IS the zero-tolerance assertion.
	if err := runMigrate([]string{"-table", "partsupp", "-sf", "0.01", "-rows", "500",
		"-drift", "0.5"}); err != nil {
		t.Fatal(err)
	}
	// A named algorithm, the MM model, and the file backend all flow
	// through the same path.
	if err := runMigrate([]string{"-table", "partsupp", "-sf", "0.01", "-rows", "500",
		"-algorithm", "HillClimb", "-model", "mm", "-backend", "file", "-drift", "0.5"}); err != nil {
		t.Fatal(err)
	}
	// Zero drift: identical layouts, a refused identity plan, success.
	if err := runMigrate([]string{"-table", "region", "-sf", "0.01", "-rows", "500",
		"-drift", "0"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMigrateRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-model", "quantum"},
		{"-benchmark", "mystery"},
		{"-algorithm", "Nope", "-table", "region", "-sf", "0.01"},
		{"-table", "nonexistent", "-sf", "0.01"},
		{"-backend", "s3", "-table", "region", "-sf", "0.01"},
		{"-rows", "-4", "-table", "region", "-sf", "0.01"},
		{"-drift", "1.5", "-table", "region", "-sf", "0.01"},
		{"-drift", "-0.1", "-table", "region", "-sf", "0.01"},
	}
	for _, args := range cases {
		if err := runMigrate(args); err == nil {
			t.Errorf("runMigrate(%v) accepted bad input", args)
		}
	}
	if got := run([]string{"migrate", "-nosuchflag"}); got != 2 {
		t.Errorf("migrate usage error exited %d, want 2", got)
	}
	if got := run([]string{"migrate", "-table", "nonexistent", "-sf", "0.01"}); got != 1 {
		t.Errorf("migrate unknown table exited %d, want 1", got)
	}
}

func TestRunExperimentCheapID(t *testing.T) {
	// tab4 touches only Lineitem prefixes with HillClimb: cheap enough for
	// a smoke test of the full experiment path.
	if err := runExperiment([]string{"tab4", "-reps", "1"}); err != nil {
		t.Fatal(err)
	}
}
