package experiments

import (
	"slices"
	"strings"
	"testing"
)

// The Section 7 claim: the selection predicate changes the layout only for
// selectivities below ~1e-4.
func TestExtSelectivityThreshold(t *testing.T) {
	rep := paperReport(t, "ext-selectivity")
	differs := map[string]string{}
	for _, row := range rep.Rows {
		differs[row[0]] = row[1]
	}
	for _, sel := range []string{"1e+00", "1e-01", "1e-02", "1e-03", "1e-04"} {
		if differs[sel] != "no" {
			t.Errorf("layout differs at selectivity %s; paper says only beyond 1e-4", sel)
		}
	}
	changed := differs["1e-05"] == "yes" || differs["1e-06"] == "yes"
	if !changed {
		t.Error("layout never changed even at 1e-6 selectivity")
	}
}

// The Section 6.3 aside: up to 50% workload change moves costs by roughly
// 14%; re-optimizing buys almost nothing (low regret).
func TestExtWorkloadDriftShape(t *testing.T) {
	rep := paperReport(t, "ext-drift")
	last := rep.Rows[len(rep.Rows)-1] // 50% drift
	change := parsePercent(t, last[1])
	if change < 0.02 || change > 0.4 {
		t.Errorf("cost change at 50%% drift = %v, paper ~0.14", change)
	}
	regret := parsePercent(t, last[2])
	if regret < 0 || regret > 0.15 {
		t.Errorf("regret at 50%% drift = %v, expected small", regret)
	}
	// Drift fragility grows with the drift fraction.
	first := parsePercent(t, rep.Rows[0][1])
	if first > change {
		t.Errorf("10%% drift change (%v) exceeds 50%% drift change (%v)", first, change)
	}
}

// The Section 2 claim, bottom-up half: HillClimb needs fewer candidates on
// fragmented workloads than on regular ones ("after a few merge steps the
// costs will not improve any more").
func TestExtConvergenceShape(t *testing.T) {
	rep := paperReport(t, "ext-convergence")
	regular := parseFloat(t, rep.Rows[0][1])
	fragmented := parseFloat(t, rep.Rows[len(rep.Rows)-1][1])
	if fragmented >= regular {
		t.Errorf("HillClimb candidates: fragmented %v >= regular %v", fragmented, regular)
	}
	// Costs stay valid and positive everywhere.
	for _, row := range rep.Rows {
		if parseFloat(t, row[3]) <= 0 || parseFloat(t, row[4]) <= 0 {
			t.Errorf("non-positive cost in row %v", row)
		}
	}
}

// Trojan query grouping: more replicas monotonically approach the PMV
// bound, and the group sizes partition the 17 Lineitem queries.
func TestExtGroupingShape(t *testing.T) {
	rep := paperReport(t, "ext-grouping")
	prev := -1.0
	for _, row := range rep.Rows {
		costVal := parseFloat(t, row[1])
		if prev >= 0 && costVal > prev*1.02 {
			t.Errorf("replicas=%s: cost %v worse than fewer replicas (%v)", row[0], costVal, prev)
		}
		prev = costVal
		// Group sizes sum to the Lineitem query count (17).
		sum := 0
		for _, part := range strings.Split(row[3], "+") {
			sum += int(parseFloat(t, part))
		}
		if sum != 17 {
			t.Errorf("replicas=%s: group sizes %s sum to %d, want 17", row[0], row[3], sum)
		}
	}
	// Distance from PMV shrinks from 1 replica to 4.
	first := parsePercent(t, rep.Rows[0][2])
	last := parsePercent(t, rep.Rows[len(rep.Rows)-1][2])
	if last >= first {
		t.Errorf("PMV distance did not shrink with replicas: %v -> %v", first, last)
	}
}

// Replication never hurts, respects the budget, and closes part of the PMV
// gap once any budget is granted.
func TestExtReplicationShape(t *testing.T) {
	rep := paperReport(t, "ext-replication")
	base := parseFloat(t, rep.Rows[0][1]) // zero budget
	for _, row := range rep.Rows {
		budget := parsePercent(t, row[0])
		costVal := parseFloat(t, row[1])
		overhead := parsePercent(t, row[2])
		if costVal > base+1e-6 {
			t.Errorf("budget %v made cost worse: %v > %v", budget, costVal, base)
		}
		if overhead > budget+1e-9 {
			t.Errorf("budget %v exceeded: overhead %v", budget, overhead)
		}
	}
	best := parseFloat(t, rep.Rows[len(rep.Rows)-1][1])
	if best >= base {
		t.Error("full budget bought no improvement on Lineitem")
	}
}

// ext-device: the best knife depends on the hardware. At least one pair of
// layouts swaps order between HDD and MM, and on MM no heuristic beats
// Column (tab6: "in main memory no algorithm beats column").
func TestExtDeviceShape(t *testing.T) {
	rep := paperReport(t, "ext-device")
	hdd, mm := map[string]float64{}, map[string]float64{}
	for _, row := range rep.Rows {
		hdd[row[0]], mm[row[0]] = parseFloat(t, row[1]), parseFloat(t, row[5])
	}
	flips := 0
	for x := range hdd {
		for y := range hdd {
			if hdd[x] < hdd[y] && mm[x] > mm[y] {
				flips++
			}
		}
	}
	if flips == 0 {
		t.Error("no HDD -> MM ranking flip")
	}
	for _, name := range evaluatedAlgorithms {
		if mm[name] < mm["Column"] {
			t.Errorf("MM: %s (%v) beats Column (%v)", name, mm[name], mm["Column"])
		}
	}
}

// The executed-equals-predicted verdicts: every cell of ext-replay's
// exact column, ext-operators' exact column and ext-migrate's cost==model
// and migrated==generator columns reads "true".
func TestExtReplayShape(t *testing.T)    { allTrue(t, paperReport(t, "ext-replay"), "exact") }
func TestExtOperatorsShape(t *testing.T) { allTrue(t, paperReport(t, "ext-operators"), "exact") }
func TestExtMigrateShape(t *testing.T) {
	allTrue(t, paperReport(t, "ext-migrate"), "cost==model", "migrated==generator")
}

func allTrue(t *testing.T, rep *Report, columns ...string) {
	for _, col := range columns {
		i := slices.Index(rep.Header, col)
		if i < 0 {
			t.Fatalf("no column %q in %v", col, rep.Header)
		}
		for _, row := range rep.Rows {
			if row[i] != "true" {
				t.Errorf("%s is %q in row %v", col, row[i], row)
			}
		}
	}
}

// ext-recovery: every crash and retry schedule recovers exactly.
func TestExtRecoveryShape(t *testing.T) {
	rep := paperReport(t, "ext-recovery")
	for _, row := range rep.Rows {
		if v := row[len(row)-1]; !strings.HasPrefix(v, "exact(") {
			t.Errorf("%s: verdict %q", row[0], v)
		}
	}
}
