package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden report files")

// Golden-file tests turn the determinism gate into reviewable artifacts:
// the exact body of every registered experiment's report is committed under
// testdata/golden and diffed on every run, so any change to the numbers the
// reproduction claims shows up as a readable text diff instead of a silent
// drift.
//
// fig1, fig2 and fig10 embed wall-clock optimization times, which no golden
// file can pin; their timing-dependent cells and notes are masked at the
// Report level (before rendering, so column widths stay stable) while
// everything machine-independent — candidate counts, the creation-time
// estimate, the cost-determined "never" pay-off verdicts — is diffed
// exactly. Every other report is estimated or simulated seconds, layouts
// and counts, and is diffed whole.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/experiments -run TestGolden -update
func TestGoldenReports(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			diffGolden(t, e.ID, masked(paperReport(t, e.ID)).String())
		})
	}
}

// masks blank the wall-clock cells of the timed experiments.
var masks = map[string]func(*Report){"fig1": maskFig1, "fig2": maskFig2, "fig10": maskFig10}

// masked returns r with its experiment's mask applied, on a copy: the
// shared report stays whole for the other tests.
func masked(r *Report) *Report {
	mask := masks[r.ID]
	if mask == nil {
		return r
	}
	c := *r
	c.Rows = make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		c.Rows[i] = slices.Clone(row)
	}
	c.Notes = slices.Clone(r.Notes)
	mask(&c)
	return &c
}

// diffGolden compares a rendered report with its golden file, or rewrites
// the file under -update.
func diffGolden(t *testing.T, id, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", id+".txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("%s report drifted from golden file %s\n--- want:\n%s\n--- got:\n%s", id, path, want, got)
	}
}

const timingMask = "<timing>"

// maskFig1 blanks the opt-time column (cell 1) and the measured
// BruteForce/HillClimb ratio note; candidate counts and the creation-time
// estimate are deterministic and stay.
func maskFig1(r *Report) {
	for _, row := range r.Rows {
		if len(row) > 1 {
			row[1] = timingMask
		}
	}
	ratio := regexp.MustCompile(`optimization time = .*x$`)
	for i, n := range r.Notes {
		r.Notes[i] = ratio.ReplaceAllString(n, "optimization time = "+timingMask+"x")
	}
}

// maskFig2 blanks every optimization-time cell; the k column and the
// notes stay.
func maskFig2(r *Report) {
	for _, row := range r.Rows {
		for i := 1; i < len(row); i++ {
			row[i] = timingMask
		}
	}
}

// maskFig10 blanks numeric pay-off cells, which embed measured optimization
// time. The "never" verdicts depend only on estimated costs (a layout that
// never beats the baseline never pays off, however fast the search was), so
// they are part of the golden contract.
func maskFig10(r *Report) {
	for _, row := range r.Rows {
		for i := 1; i < len(row); i++ {
			if row[i] != "never" {
				row[i] = timingMask
			}
		}
	}
}
