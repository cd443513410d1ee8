package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden report files")

// Golden-file tests turn the determinism gate into reviewable artifacts:
// the exact report bodies of the experiments below are committed under
// testdata/golden and diffed on every run, so any change to the numbers the
// reproduction claims shows up in a PR as a readable text diff instead of a
// silent drift.
//
// Fig1 and Fig10 embed wall-clock optimization times, which no golden file
// can pin; their timing-dependent cells and notes are masked at the Report
// level (BEFORE rendering, so column widths stay stable) while everything
// machine-independent — candidate counts, creation-time estimate, the
// cost-determined "never" pay-off verdicts — is diffed exactly.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/experiments -run TestGolden -update
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("fig1/fig10 time every algorithm over the full benchmark")
	}
	s := NewSuite()
	s.Reps = 1
	cases := []struct {
		id   string
		mask func(*Report)
	}{
		// fig3 is the paper's headline result and fig14 the layouts behind
		// it: estimated costs and computed partitions only, so golden
		// without masking. fig3 prints whole seconds; fig14 is the one a
		// changed layout shows up in.
		{"fig3", nil},
		{"fig14", nil},
		{"tab4", nil},
		{"fig1", maskFig1},
		{"fig10", maskFig10},
		// fig4/fig5/tab3 now carry executed columns from operator pipelines
		// next to the paper's estimates — simulated I/O over deterministic
		// samples, so golden without masking, verification verdicts included.
		{"fig4", nil},
		{"fig5", nil},
		{"tab3", nil},
		// ext-operators pins the σ/π/⋈ pipeline against the cost model on
		// all three devices plus a selectivity sweep — all simulated seconds.
		{"ext-operators", nil},
		// ext-replay's times are simulated (virtual-disk) seconds — fully
		// deterministic, so measured-vs-estimated deltas, exactness
		// verdicts, and all three rankings are golden without masking.
		{"ext-replay", nil},
		// ext-migrate pins, per algorithm, the drift scenario's break-even
		// horizons and the measured==predicted migration cost — simulated
		// seconds again, so golden without masking.
		{"ext-migrate", nil},
		// ext-device pins the per-device algorithm ranking and the flips
		// along the HDD -> SSD -> MM spectrum — estimated costs over
		// deterministic searches, so golden without masking.
		{"ext-device", nil},
		// ext-recovery pins crash-recovery equivalence: acked counts,
		// snapshot sequences, replayed records, torn-byte lengths, and
		// verdicts all come from deterministic fault schedules over a fixed
		// event stream, so golden without masking.
		{"ext-recovery", nil},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			e, err := ByID(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := e.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if tc.mask != nil {
				tc.mask(rep)
			}
			got := rep.String()
			path := filepath.Join("testdata", "golden", tc.id+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
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
				t.Errorf("%s report drifted from golden file %s\n--- want:\n%s\n--- got:\n%s",
					tc.id, path, want, got)
			}
		})
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
