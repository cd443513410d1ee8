// Package knives is a Go reproduction of "A Comparison of Knives for Bread
// Slicing" (Jindal, Palatinus, Pavlov, Dittrich — VLDB 2013), the
// experimental survey of vertical partitioning algorithms.
//
// The package exposes the paper's whole apparatus behind one façade:
//
//   - Benchmarks: TPCH and SSB build the workloads with the paper's schemas
//     and per-query attribute access sets.
//   - Cost models: one device-parameterized layer (Device) with presets —
//     NewHDDModel prices layouts with the unified disk I/O model of
//     Section 4 (proportional buffer sharing, seek + scan), NewSSDModel is
//     the same block discipline with flash constants, NewMMModel is the
//     main-memory cache-miss model of Table 6, and NewDeviceModel accepts
//     any custom hardware spec.
//   - Algorithms: Algorithms returns AutoPart, HillClimb, HYRISE, Navathe,
//     O2P, Trojan and BruteForce; AlgorithmByName picks one.
//   - Advisor: Advise runs every algorithm on every table and recommends
//     the cheapest layout per table, with Row/Column baselines.
//   - Experiments: Experiments and RunExperiment regenerate every table
//     and figure of the paper's evaluation.
//   - Execution: ExecuteLayout materializes a layout as real pages on a
//     simulated disk and runs the workload over them as σ/π/⋈ operator
//     pipelines, for validating the cost model's predictions (replay.go);
//     NewEngine is the page store underneath, which can also be
//     repartitioned in place (migrate.go).
//
// Quick start:
//
//	bench := knives.TPCH(10)
//	model := knives.NewHDDModel(knives.DefaultDisk())
//	hc, _ := knives.AlgorithmByName("HillClimb")
//	tw := bench.Workload.ForTable(bench.Table("partsupp"))
//	res, _ := hc.Partition(tw, model)
//	fmt.Println(res.Partitioning) // [ps_partkey ps_suppkey | ps_availqty | ps_supplycost | ps_comment]
package knives

import (
	"knives/internal/algo"
	"knives/internal/algorithms"
	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/experiments"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/storage"
)

// Core schema and workload types.
type (
	// Benchmark bundles tables with a workload (TPC-H or SSB, or custom).
	Benchmark = schema.Benchmark
	// Table is a logical relation with sized columns and a row count.
	Table = schema.Table
	// Column is one attribute of a Table.
	Column = schema.Column
	// Query is one workload query: per-table referenced attribute sets.
	Query = schema.Query
	// Workload is an ordered list of queries.
	Workload = schema.Workload
	// TableWorkload is a workload projected onto a single table — the unit
	// every partitioning algorithm operates on.
	TableWorkload = schema.TableWorkload
	// TableQuery is one query's references to one table.
	TableQuery = schema.TableQuery
	// AttrSet is a set of column indexes.
	AttrSet = attrset.Set
	// ColumnKind classifies a column's value domain.
	ColumnKind = schema.ColumnKind
)

// Column kinds.
const (
	KindInt     = schema.KindInt
	KindDecimal = schema.KindDecimal
	KindDate    = schema.KindDate
	KindChar    = schema.KindChar
	KindVarchar = schema.KindVarchar
)

// Partitioning types.
type (
	// Partitioning is a complete, disjoint decomposition of a table's
	// attributes into column groups.
	Partitioning = partition.Partitioning
)

// Cost model types.
type (
	// Device is the parameterized hardware spec every cost model prices
	// against: block geometry, buffer, seek, bandwidths, and cache
	// parameters, plus the pricing discipline (block or cache).
	Device = cost.Device
	// Disk is the historical name for Device.
	Disk = cost.Disk
	// CostModel estimates query costs over a partitioned table.
	CostModel = cost.Model
)

// Pricing disciplines a Device can follow.
const (
	PricingBlock = cost.PricingBlock
	PricingCache = cost.PricingCache
)

// Algorithm types.
type (
	// Algorithm computes a vertical partitioning of one table.
	Algorithm = algo.Algorithm
	// Result is an algorithm's output: layout, cost, and search statistics.
	Result = algo.Result
	// Stats records candidate counts and optimization time.
	Stats = algo.Stats
)

// Experiment types.
type (
	// Experiment is one reproduced paper artifact (figure or table).
	Experiment = experiments.Experiment
	// Report is a rendered experiment result.
	Report = experiments.Report
	// Suite is the shared configuration of an experiment run.
	Suite = experiments.Suite
)

// Storage types.
type (
	// Engine stores a table as vertically partitioned pages: load it,
	// repartition it in place, execute over it with ExecuteLayout.
	Engine = storage.Engine
	// Generator produces deterministic synthetic rows.
	Generator = storage.Generator
	// ScanStats reports what executing one query read.
	ScanStats = storage.ScanStats
)

// TPCH returns the TPC-H benchmark at the given scale factor (the paper
// uses 10).
func TPCH(sf float64) *Benchmark { return schema.TPCH(sf) }

// SSB returns the Star Schema Benchmark at the given scale factor.
func SSB(sf float64) *Benchmark { return schema.SSB(sf) }

// BenchmarkByName returns a built-in benchmark by name ("tpch" or "ssb",
// case-insensitive) at the given scale factor. Zero means "unset" and uses
// the paper's default of 10; negative scale factors are rejected.
func BenchmarkByName(name string, sf float64) (*Benchmark, error) {
	return schema.BenchmarkByName(name, sf)
}

// NewTable builds a validated custom table.
func NewTable(name string, rows int64, cols []Column) (*Table, error) {
	return schema.NewTable(name, rows, cols)
}

// Attrs builds an attribute set from column indexes.
func Attrs(indexes ...int) AttrSet { return attrset.Of(indexes...) }

// DefaultDisk returns the paper's testbed disk characteristics: 8 KB
// blocks, 8 MB buffer, 90.07 MB/s read, 64.37 MB/s write, 4.84 ms seek.
func DefaultDisk() Disk { return cost.DefaultDisk() }

// NewHDDModel returns the unified disk I/O cost model of the paper's
// Section 4.
func NewHDDModel(d Disk) CostModel { return cost.NewHDD(d) }

// NewMMModel returns the main-memory (cache-miss) cost model used by the
// paper's Table 6.
func NewMMModel() CostModel { return cost.NewMM() }

// NewSSDModel returns the flash cost model: the paper's block discipline
// with the SSD preset's near-zero seek and high read bandwidth — the point
// on the hardware spectrum between the paper's two.
func NewSSDModel() CostModel { return cost.NewSSD() }

// NewDeviceModel returns a cost model over a validated custom device spec.
func NewDeviceModel(d Device) (CostModel, error) { return cost.NewDeviceModel(d) }

// DeviceByName returns the named device preset ("hdd", "ssd", "mm",
// case-insensitive, plus aliases like "disk", "flash", "ram"); the
// unknown-name error lists every valid name.
func DeviceByName(name string) (Device, error) { return cost.DeviceByName(name) }

// CostModelByName returns the named cost model ("hdd", "ssd", or "mm",
// case-insensitive, aliases accepted); every non-zero hardware parameter of
// d overrides the named preset's, and the resolved device is validated.
func CostModelByName(name string, d Disk) (CostModel, error) {
	return cost.ModelByName(name, d)
}

// Algorithms returns fresh instances of the seven evaluated algorithms in
// the paper's presentation order.
func Algorithms() []Algorithm { return algorithms.All() }

// AlgorithmByName returns the named algorithm: one of AutoPart, HillClimb,
// HYRISE, Navathe, O2P, Trojan, BruteForce.
func AlgorithmByName(name string) (Algorithm, error) { return algorithms.ByName(name) }

// RowLayout returns the no-partitioning layout of a table.
func RowLayout(t *Table) Partitioning { return partition.Row(t) }

// ColumnLayout returns the fully partitioned layout of a table.
func ColumnLayout(t *Table) Partitioning { return partition.Column(t) }

// WorkloadCost prices a layout against a per-table workload.
func WorkloadCost(m CostModel, tw TableWorkload, p Partitioning) float64 {
	return cost.WorkloadCost(m, tw, p.Parts)
}

// Experiments returns every reproduced paper artifact in paper order.
func Experiments() []Experiment { return experiments.All() }

// NewSuite returns an experiment suite over TPC-H SF 10 with the paper's
// default disk.
func NewSuite() *Suite { return experiments.NewSuite() }

// RunExperiment runs one paper artifact by id ("fig1".."fig14",
// "tab3".."tab7") on a fresh default suite.
func RunExperiment(id string) (*Report, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(experiments.NewSuite())
}

// NewGenerator returns a deterministic synthetic data generator.
func NewGenerator(seed int64) *Generator { return storage.NewGenerator(seed) }

// NewEngine creates a storage engine holding the layout's partition files in
// memory, with the simulated disk's page geometry.
func NewEngine(layout Partitioning, d Disk) (*Engine, error) {
	return storage.NewEngine(layout, d, nil)
}
