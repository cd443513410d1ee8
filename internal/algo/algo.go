// Package algo defines the interface every vertical partitioning algorithm
// implements, plus the bookkeeping and search helpers they share.
package algo

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

// Stats records how much work an algorithm did. Candidate counts make the
// paper's "four orders of magnitude less computation" lesson measurable
// independently of hardware and language.
type Stats struct {
	// Candidates is the number of candidate layouts whose workload cost the
	// algorithm evaluated.
	Candidates int64
	// Duration is the measured wall-clock optimization time.
	Duration time.Duration
}

// Result is an algorithm's output for one table.
type Result struct {
	Partitioning partition.Partitioning
	Cost         float64 // estimated workload cost of the final layout
	Stats        Stats
}

// Algorithm computes a vertical partitioning of one table for a workload
// under a cost model. Implementations must be deterministic and safe for
// concurrent use by multiple goroutines.
type Algorithm interface {
	// Name identifies the algorithm in reports (e.g. "HillClimb").
	Name() string
	// Partition computes a layout for the table of tw.
	Partition(tw schema.TableWorkload, model cost.Model) (Result, error)
}

// ErrDeclined marks an algorithm's refusal of an input it is not built for
// — today only Trojan's enumeration-width cap wraps it. The input is valid
// and the other algorithms can lay it out, so a portfolio leaves the
// declining member out instead of failing; test with errors.Is.
var ErrDeclined = errors.New("algo: input declined")

// Counter tallies candidate evaluations during a search. It is safe for
// concurrent use, so parallel searches (the sharded BruteForce walk, the
// concurrent experiment fan-out) can share one counter; use by pointer only.
type Counter struct{ n atomic.Int64 }

// Eval computes the workload cost of one candidate and counts it.
func (c *Counter) Eval(m cost.Model, tw schema.TableWorkload, parts []attrset.Set) float64 {
	c.n.Add(1)
	return cost.WorkloadCost(m, tw, parts)
}

// Tick counts a candidate evaluation whose cost was computed elsewhere
// (e.g. through a model fast path).
func (c *Counter) Tick() { c.n.Add(1) }

// Add counts n candidate evaluations at once, for searches that tally
// worker-local counts and merge them in bulk.
func (c *Counter) Add(n int64) { c.n.Add(n) }

// Count returns the number of evaluations so far.
func (c *Counter) Count() int64 { return c.n.Load() }

// improvementEps guards greedy loops against floating-point jitter: a merge
// or split must improve the workload cost by more than this to be taken.
const improvementEps = 1e-9

// Finish assembles a Result from search output, validating the layout.
func Finish(tw schema.TableWorkload, parts []attrset.Set, costVal float64, c *Counter, start time.Time) (Result, error) {
	p, err := partition.New(tw.Table, parts)
	if err != nil {
		return Result{}, fmt.Errorf("algo: invalid layout for %s: %w", tw.Table.Name, err)
	}
	return Result{
		Partitioning: p,
		Cost:         costVal,
		Stats:        Stats{Candidates: c.Count(), Duration: time.Since(start)},
	}, nil
}
