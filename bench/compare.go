package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload x metric comparison.
const (
	verdictBetter = "better"
	verdictWithin = "within-bound"
	verdictWorse  = "worse"
)

// judge compares b against a for one end-to-end metric: worse when b is
// worse than a by more than the metric's bound, as a share of a.
func judge(d metricDef, a, b float64) string {
	if a == 0 {
		// End-to-end metrics are never 0 on a run that completed an op.
		return verdictWorse
	}
	worsening := (b - a) / a
	if d.better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > d.bound:
		return verdictWorse
	case worsening < 0:
		return verdictBetter
	default:
		return verdictWithin
	}
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints, per workload x end-to-end metric, both values, the
// change, the bound and a verdict, and returns 1 if any verdict is worse or
// either side failed an op.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	// Numbers from different machines or protocols do not compare; say so,
	// and leave the decision to the reader.
	ea, eb := a.Env, b.Env
	if ea.NProc != eb.NProc || ea.GOMAXPROCS != eb.GOMAXPROCS || ea.GoVersion != eb.GoVersion ||
		ea.CPUModel != eb.CPUModel || ea.Seconds != eb.Seconds || ea.Smoke != eb.Smoke {
		fmt.Fprintf(stdout, "WARNING: environments differ: A %d cpus %s %q %d s, B %d cpus %s %q %d s\n",
			ea.NProc, ea.GoVersion, ea.CPUModel, ea.Seconds, eb.NProc, eb.GoVersion, eb.CPUModel, eb.Seconds)
	}
	fmt.Fprintf(stdout, "A: %s (commit %.12s, seed %d)\nB: %s (commit %.12s, seed %d)\n",
		pathA, ea.GitCommit, ea.Seed, pathB, eb.GitCommit, eb.Seed)
	fmt.Fprintf(stdout, "%-15s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")

	worse := false
	byName := make(map[string]*workloadResult, len(b.Workloads))
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil || wa.EndToEnd == nil || wb.EndToEnd == nil {
			fmt.Fprintf(stdout, "%-15s missing from one side, or run without end-to-end metrics\n", wa.Name)
			worse = true
			continue
		}
		verdict := verdictWithin
		if wa.Failed > 0 || wb.Failed > 0 {
			verdict, worse = verdictWorse, true
		}
		fmt.Fprintf(stdout, "%-15s %-14s %14g %14g %9s %7g  %s\n", wa.Name, "failed_share", wa.FailedShare, wb.FailedShare, "", 0.0, verdict)
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			verdict := judge(d, va, vb)
			if verdict == verdictWorse {
				worse = true
			}
			// Print the signed change of the value itself; the verdict
			// knows which direction is better.
			fmt.Fprintf(stdout, "%-15s %-14s %14.6g %14.6g %+8.1f%% %7g  %s\n",
				wa.Name, d.name, va, vb, 100*ratio(vb-va, va), d.bound, verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}
