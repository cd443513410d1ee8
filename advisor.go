package knives

import "knives/internal/advisor"

// TableAdvice is the advisor's recommendation for one table: the cheapest
// layout AutoPart, HillClimb and HYRISE find, with Row/Column baselines
// and each of the three's cost for transparency.
type TableAdvice = advisor.TableAdvice

// AdvisorService is a long-running, concurrent partitioning advisor with a
// fingerprint-keyed advice cache and per-table drift tracking; knivesd
// serves one over HTTP.
type AdvisorService = advisor.Service

// AdvisorConfig parameterizes an AdvisorService.
type AdvisorConfig = advisor.Config

// Advisor wire and observation types, aliased so external importers can
// name arguments and results of the AdvisorService API.
type (
	// AdvisorStats is a snapshot of the service counters.
	AdvisorStats = advisor.Stats
	// DriftReport describes a tracker's state after an observation batch.
	DriftReport = advisor.DriftReport
	// ObservedQuery is one observed query by column names.
	ObservedQuery = advisor.ObservedQry
	// WorkloadFingerprint canonically identifies a table workload.
	WorkloadFingerprint = advisor.Fingerprint
)

// Advise races AutoPart, HillClimb and HYRISE on every table of the
// benchmark (concurrently, over the parallel search kernel) and
// recommends, per table, the cheapest layout found (falling back to column
// layout when nothing beats it). These are the knives that decide the
// advice: BruteForce finds the same layouts at far greater computation,
// and Navathe, O2P and Trojan do not win on the shapes the advisor is
// held to (DESIGN.md's Portfolio paragraph states what that costs).
// Algorithms and RunExperiment still reach all seven.
func Advise(b *Benchmark, m CostModel) ([]TableAdvice, error) {
	return advisor.Advise(b, m)
}

// AdviseTable races AutoPart, HillClimb and HYRISE on one table's
// workload and returns the cheapest layout found, falling back to column
// layout when nothing beats it.
func AdviseTable(tw TableWorkload, m CostModel) (TableAdvice, error) {
	return advisor.AdviseTable(tw, m)
}

// NewAdvisorService returns an empty advisor service.
func NewAdvisorService(cfg AdvisorConfig) *AdvisorService {
	return advisor.NewService(cfg)
}
