package experiments

import (
	"fmt"
	"sort"
)

// Runner executes one experiment against a suite.
type Runner func(*Suite) (*Report, error)

// Experiment describes a registered paper artifact.
type Experiment struct {
	ID          string
	Description string
	Run         Runner
}

// registry lists every reproduced table and figure in paper order.
var registry = []Experiment{
	{"fig1", "Optimization time for different algorithms", Fig1},
	{"fig2", "Optimization time over varying workload size", Fig2},
	{"fig3", "Estimated workload runtime for different algorithms", Fig3},
	{"fig4", "Fraction of unnecessary data read", Fig4},
	{"fig5", "Average tuple-reconstruction joins", Fig5},
	{"fig6", "Distance from perfect materialized views", Fig6},
	{"fig7", "Improvement over Column when re-optimizing for the first k queries", Fig7},
	{"tab3", "Unnecessary data reads over Lineitem for the first k queries", Tab3},
	{"tab4", "Tuple-reconstruction joins per Lineitem row for the first k queries", Tab4},
	{"fig8", "Fragility: changing the buffer size at query time", Fig8},
	{"fig9", "Sweet spots: re-optimizing per buffer size", Fig9},
	{"tab5", "Improvement over Column with different benchmarks (TPC-H vs SSB)", Tab5},
	{"tab6", "Improvement over Column with different cost models (HDD vs MM)", Tab6},
	{"tab7", "Simulated DBMS-X runtimes per layout and compression scheme", Tab7},
	{"fig10", "Pay-off over Row and Column", Fig10},
	{"fig11", "Fragility: block size, bandwidth, seek time", Fig11},
	{"fig12", "Sweet spots: re-optimizing per block size, bandwidth, seek time", Fig12},
	{"fig13", "Sweet spots across dataset scale (buffer x SF)", Fig13},
	{"fig14", "Computed partitions for the TPC-H workload", Fig14},
	// Extensions: results the paper states in prose, and features its
	// unified setting stripped.
	{"ext-selectivity", "Selection-aware layouts across selectivities (Section 7 claim)", ExtSelectivity},
	{"ext-drift", "Fragility to workload change (Section 6.3 aside)", ExtWorkloadDrift},
	{"ext-convergence", "Search effort vs workload fragmentation (Section 2 claims)", ExtConvergence},
	{"ext-replication", "AutoPart with partial replication (stripped feature restored)", ExtReplication},
	{"ext-grouping", "Trojan query grouping across replicas (stripped feature restored)", ExtGrouping},
	{"ext-replay", "Measured replay of advised layouts vs cost-model predictions (fig3 from execution)", ExtReplay},
	{"ext-operators", "Operator pipelines: executed sigma/pi/join I/O vs predictions across devices", ExtOperators},
	{"ext-migrate", "Online migration after workload drift: break-even points and verified transition cost", ExtMigrate},
	{"ext-device", "Algorithm ranking across the device spectrum (HDD -> SSD -> MM)", ExtDevice},
	{"ext-recovery", "Crash-recovery equivalence of the durable state store (kill@write and retry schedules)", ExtRecovery},
}

// All returns every registered experiment in paper order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, ids)
}
