// Package advisor implements the paper's end product as a reusable layer:
// race a portfolio of partitioning algorithms on a workload, recommend the
// cheapest layout per table, and serve that advice — one-shot (the knives
// CLI and examples), or long-running with a fingerprint cache and online
// drift tracking (the knivesd daemon).
//
// The portfolio is the bottom-up class the paper finds best: AutoPart,
// HillClimb and HYRISE. BruteForce is out because the heuristics already
// find its layouts at a fraction of the computation; Navathe, O2P and
// Trojan are out because they never decide the advice on the served shapes
// (TestServedPortfolioLedger holds the three to the six-heuristic answer,
// and DESIGN.md records what the cut costs on random workloads).
// Portfolio members fan out concurrently over the parallel search kernel,
// drawing slots from the same process-wide gate as the experiment suite so
// stacked parallelism stays bounded.
package advisor

import (
	"context"
	"fmt"
	"sort"

	"knives/internal/algo"
	"knives/internal/algo/autopart"
	"knives/internal/algo/hillclimb"
	"knives/internal/algo/hyrise"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/telemetry"
)

// TableAdvice is the advisor's recommendation for one table.
type TableAdvice struct {
	Table *schema.Table
	// Algorithm that produced the cheapest layout.
	Algorithm string
	// Layout is the recommended partitioning.
	Layout partition.Partitioning
	// Cost is the estimated workload cost of the recommendation.
	Cost float64
	// RowCost and ColumnCost are the baseline costs for comparison.
	RowCost, ColumnCost float64
	// PerAlgorithm holds every algorithm's cost, for transparency.
	PerAlgorithm map[string]float64
}

// ImprovementOverRow returns the relative improvement over row layout.
func (a TableAdvice) ImprovementOverRow() float64 {
	if a.RowCost == 0 {
		return 0
	}
	return (a.RowCost - a.Cost) / a.RowCost
}

// ImprovementOverColumn returns the relative improvement over column layout.
func (a TableAdvice) ImprovementOverColumn() float64 {
	if a.ColumnCost == 0 {
		return 0
	}
	return (a.ColumnCost - a.Cost) / a.ColumnCost
}

// portfolio returns the algorithms the advisor races, in the paper's
// presentation order. Fresh instances every call: algorithms are
// concurrency-safe, but fresh instances make that property irrelevant.
func portfolio() []algo.Algorithm {
	return []algo.Algorithm{autopart.New(), hillclimb.New(), hyrise.New()}
}

// PortfolioNames returns the names of the advised algorithms in evaluation
// order.
func PortfolioNames() []string {
	ps := portfolio()
	names := make([]string, len(ps))
	for i, a := range ps {
		names[i] = a.Name()
	}
	return names
}

// MaxWeight is the largest query weight the service accepts, on /advise
// and /observe alike: 2^53, the range in which every integer weight is an
// exact float64. Weights multiply into every price, and a finite weight
// like 1e308 overflows the sums to ±Inf/NaN, which JSON cannot render; so
// validation rejects a larger weight (400) before anything is journaled.
// At the ceiling every price stays finite on every device
// cost.Device.Validate admits, even for the largest table schema.NewTable
// admits — schema.MaxTableBytes of rows schema.MaxRowWidth wide, 64
// columns — and the largest workload an 8 MiB request body can carry:
// TestWeightCeilingKeepsPricesFinite works the bound.
const MaxWeight = 1 << 53

// MinWeight is the smallest positive query weight the service accepts, on
// /advise and /observe alike: 2^-53, MaxWeight's reciprocal. On every
// device cost.Device.Validate admits, a query that reads anything prices at
// least 2^-60 s and below 2^78 s, so its weighted cost lies in [2^-113,
// 2^131]: a normal, nonzero float, far from underflow and overflow alike. A
// query that reads nothing prices 0 under every layout. So a drift check's
// shadow layout prices a window 0 only when the advised layout does too,
// and their ratio stays finite. Below the floor a weight like 5e-324 can
// round the shadow's cost to 0 and not the advised one's, and a +Inf ratio
// cannot be rendered, so validation rejects such a weight (400) before
// anything is journaled. TestWeightFloorKeepsPricesNormal works the bound.
const MinWeight = 0x1p-53

// validWeight reports whether w is a weight the service accepts: 0 (which
// means 1), or MinWeight up to MaxWeight. The comparisons reject NaN.
func validWeight(w float64) bool { return w == 0 || w >= MinWeight && w <= MaxWeight }

// normalizeWeights returns tw with zero query weights replaced by 1 — the
// system-wide pricing convention (schema.Workload.ForTable applies the same
// rule). The service normalizes before both fingerprinting and searching,
// so the cache key and the search input can never disagree about a query's
// weight.
func normalizeWeights(tw schema.TableWorkload) schema.TableWorkload {
	normalized := false
	for _, q := range tw.Queries {
		if q.Weight == 0 {
			normalized = true
			break
		}
	}
	if !normalized {
		return tw
	}
	return schema.TableWorkload{Table: tw.Table, Queries: normalizeQueryWeights(tw.Queries)}
}

// normalizeQueryWeights copies a query batch with zero weights replaced
// by 1.
func normalizeQueryWeights(queries []schema.TableQuery) []schema.TableQuery {
	qs := append([]schema.TableQuery(nil), queries...)
	for i := range qs {
		if qs[i].Weight == 0 {
			qs[i].Weight = 1
		}
	}
	return qs
}

// AdviseTable races the portfolio on one table's workload and returns the
// cheapest layout found, falling back to column layout when nothing beats
// it. The portfolio members run concurrently (each under a process-wide
// search slot); the winner is picked in portfolio order with a strict
// comparison, so the result is identical to a sequential run.
func AdviseTable(tw schema.TableWorkload, m cost.Model) (TableAdvice, error) {
	return AdviseTableContext(context.Background(), tw, m)
}

// AdviseTableContext is AdviseTable under a request context: every
// portfolio member's wait for a search slot honors the deadline, so a
// request that times out queued behind long searches releases its
// goroutines immediately instead of leaking them against the gate. A
// search already running is not interrupted — slots are held briefly
// relative to any sane deadline, and the result still populates caches
// for the client's retry.
func AdviseTableContext(ctx context.Context, tw schema.TableWorkload, m cost.Model) (TableAdvice, error) {
	return adviseTable(ctx, tw, m, nil)
}

// adviseTable is AdviseTableContext recording each member's search into tm
// (nil records nothing). An error fails the fan-out, lowest portfolio index
// first.
func adviseTable(ctx context.Context, tw schema.TableWorkload, m cost.Model, tm *svcMetrics) (TableAdvice, error) {
	if tw.Table == nil {
		return TableAdvice{}, fmt.Errorf("advisor: nil table")
	}
	if m == nil {
		m = cost.NewHDD(cost.DefaultDisk())
	}
	algos := portfolio()
	results := make([]algo.Result, len(algos))
	err := algo.FanOut(len(algos), func(i int) error {
		_, gateSp := telemetry.StartSpan(ctx, "gate-wait "+algos[i].Name())
		err := algo.AcquireSearchSlotCtx(ctx)
		gateSp.End()
		if err != nil {
			return fmt.Errorf("advisor: %s on %s: %w", algos[i].Name(), tw.Table.Name, err)
		}
		defer algo.ReleaseSearchSlot()
		_, searchSp := telemetry.StartSpan(ctx, "search "+algos[i].Name())
		res, err := algos[i].Partition(tw, m)
		searchSp.End()
		if err != nil {
			return fmt.Errorf("advisor: %s on %s: %w", algos[i].Name(), tw.Table.Name, err)
		}
		tm.recordSearch(algos[i].Name(), res.Stats)
		results[i] = res
		return nil
	})
	if err != nil {
		return TableAdvice{}, err
	}
	// The cheapest answer wins, compared in portfolio order against the
	// Column baseline.
	adv := TableAdvice{
		Table:        tw.Table,
		PerAlgorithm: make(map[string]float64, len(algos)),
		RowCost:      cost.WorkloadCost(m, tw, partition.Row(tw.Table).Parts),
		ColumnCost:   cost.WorkloadCost(m, tw, partition.Column(tw.Table).Parts),
	}
	adv.Algorithm = "Column"
	adv.Layout = partition.Column(tw.Table)
	adv.Cost = adv.ColumnCost
	for i, a := range algos {
		res := results[i]
		adv.PerAlgorithm[a.Name()] = res.Cost
		if res.Cost < adv.Cost {
			adv.Algorithm = a.Name()
			adv.Layout = res.Partitioning
			adv.Cost = res.Cost
		}
	}
	return adv, nil
}

// Advise runs the portfolio on every table of the benchmark and recommends,
// per table, the cheapest layout found. Tables fan out concurrently; the
// output is sorted by table name, as the façade has always promised.
func Advise(b *schema.Benchmark, m cost.Model) ([]TableAdvice, error) {
	if b == nil {
		return nil, fmt.Errorf("advisor: nil benchmark")
	}
	if m == nil {
		m = cost.NewHDD(cost.DefaultDisk())
	}
	tws := b.TableWorkloads()
	out := make([]TableAdvice, len(tws))
	err := algo.FanOut(len(tws), func(i int) error {
		var err error
		out[i], err = AdviseTable(tws[i], m)
		return err
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table.Name < out[j].Table.Name })
	return out, nil
}
