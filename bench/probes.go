package main

import (
	"fmt"

	"knives/internal/advisor"
	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/migrate"
	"knives/internal/operator"
	"knives/internal/partition"
	"knives/internal/replay"
	"knives/internal/schema"
	"knives/internal/storage"
)

// Layer probes: the work the daemon does per request, called one layer
// down, on one goroutine, on fixed inputs — lineitem at SF 10 statistics,
// sampled to the 20000 rows every /query op materializes, under the layout
// the portfolio advises for it. A workload runs the probes of the layers its
// op classes load and reports 0 for the rest, so a per-layer number always
// stands beside an end-to-end number it can explain.

// probeRepeats is how often each probe runs; the median is reported. Probes
// that take tens of milliseconds run heavyRepeats times.
const (
	probeRepeats = 5
	heavyRepeats = 3
)

// sink keeps the compiler from discarding the pure functions the cost
// probes call.
var sink float64

type prober struct {
	tr     *tracer
	model  cost.Model
	r      *runner
	values metrics
}

func (p *prober) dev() cost.Device { return p.model.(*cost.DeviceModel).Device() }

// timed runs f under a span below root and returns its duration in seconds.
func (p *prober) timed(name string, root int, f func() error) (float64, error) {
	id, err := p.tr.child(name, root, f)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return float64(p.tr.rec.get(id).dur()) / 1e9, nil
}

// repeat runs f n times under spans of one name and returns the median
// duration in seconds.
func (p *prober) repeat(name string, root, n int, f func() error) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		s, err := p.timed(name, root, f)
		if err != nil {
			return 0, err
		}
		secs = append(secs, s)
	}
	return median(secs), nil
}

// run executes the probes the traced prefix's op classes call for.
func (p *prober) run(classes map[string]bool) error {
	tpch := schema.TPCH(10)
	tw := tpch.Workload.ForTable(tpch.Table("lineitem"))
	advice, err := advisor.AdviseTable(tw, p.model)
	if err != nil {
		return err
	}
	if err := p.cost(tw, advice.Layout); err != nil {
		return err
	}
	if classes[clsQueryMiss] || classes[clsQueryHit] || classes[clsReplayMiss] {
		if err := p.scan(tw, advice); err != nil {
			return err
		}
	}
	if classes[clsMigrate] {
		return p.migrate()
	}
	return nil
}

// cost times the two pricing functions everything else stands on.
func (p *prober) cost(tw schema.TableWorkload, layout partition.Partitioning) error {
	// What a drift check prices: a full 256-query observation window.
	window := schema.TableWorkload{Table: tw.Table}
	for i := 0; i < advisor.DefaultDriftWindow; i++ {
		window.Queries = append(window.Queries, tw.Queries[i%len(tw.Queries)])
	}
	dm := p.model.(*cost.DeviceModel)
	total := tw.Table.RowSize()
	return p.tr.root("probe:cost", func(root int) error {
		const workloadCalls, partitionCalls = 50, 100_000
		s, err := p.repeat("cost.workload_cost", root, probeRepeats, func() error {
			for i := 0; i < workloadCalls; i++ {
				sink += cost.WorkloadCost(p.model, window, layout.Parts)
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.values["cost.workload_cost_us"] = s / workloadCalls * 1e6
		s, err = p.repeat("cost.partition_cost", root, probeRepeats, func() error {
			for i := 0; i < partitionCalls; i++ {
				sink += dm.PartitionCost(tw.Table, int64(4+i&63), total)
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.values["cost.partition_cost_ns"] = s / partitionCalls * 1e9
		return nil
	})
}

// sweep reads every page of every partition of a snapshot through cursors,
// as a scan leaf does, and returns the page bytes read.
func sweep(snap *storage.Snapshot, dev cost.Device) (int64, error) {
	var bytes int64
	for i := 0; i < snap.NumParts(); i++ {
		cur, err := snap.Cursor(i, dev, int64(snap.PartRowSize(i)))
		if err != nil {
			return 0, err
		}
		for {
			_, _, n, err := cur.NextRows(operator.DefaultBatchSize)
			if err != nil {
				return 0, err
			}
			if n == 0 {
				break
			}
		}
		bytes += cur.Stats().BytesRead
	}
	return bytes, nil
}

// scan probes storage, operator and replay: everything a /query or /replay
// miss does below the advisor.
func (p *prober) scan(tw schema.TableWorkload, advice advisor.TableAdvice) error {
	dev := p.dev()
	sample, err := schema.NewTable(tw.Table.Name, queryMaxRows, tw.Table.Columns)
	if err != nil {
		return err
	}
	sampled, err := partition.New(sample, advice.Layout.Parts)
	if err != nil {
		return err
	}
	load := func(newBackend func(string, int) (storage.Backend, error)) (*storage.Engine, error) {
		e, err := storage.NewEngine(sampled, dev, newBackend)
		if err != nil {
			return nil, err
		}
		if err := e.LoadParallel(storage.NewGenerator(queryDataSeed), sample.Rows, 1); err != nil {
			e.Close()
			return nil, err
		}
		return e, nil
	}

	var mem *storage.Engine
	defer func() {
		if mem != nil {
			mem.Close()
		}
	}()
	var materialize float64
	err = p.tr.root("probe:storage", func(root int) error {
		var err error
		materialize, err = p.repeat("storage.materialize", root, probeRepeats, func() error {
			if mem != nil {
				mem.Close()
			}
			var err error
			mem, err = load(nil)
			return err
		})
		if err != nil {
			return err
		}
		p.values["storage.materialize_ms"] = materialize * 1e3
		p.values["storage.materialize_mb_s"] = float64(sample.Bytes()) / 1e6 / materialize

		var swept int64
		s, err := p.repeat("storage.page_read", root, probeRepeats, func() error {
			var err error
			swept, err = sweep(mem.Snapshot(), dev)
			return err
		})
		if err != nil {
			return err
		}
		p.values["storage.page_read_gb_s"] = float64(swept) / 1e9 / s

		dir, err := p.r.freshDir("probe-store")
		if err != nil {
			return err
		}
		onFile, err := load(func(name string, pageSize int) (storage.Backend, error) {
			return storage.NewFileBackend(dir, name, pageSize)
		})
		if err != nil {
			return err
		}
		defer onFile.Close()
		s, err = p.repeat("storage.page_read_file", root, probeRepeats, func() error {
			var err error
			swept, err = sweep(onFile.Snapshot(), dev)
			return err
		})
		if err != nil {
			return err
		}
		p.values["storage.page_read_file_gb_s"] = float64(swept) / 1e9 / s
		return nil
	})
	if err != nil {
		return err
	}

	// The predicate every probe pushes down: half the date domain, so σ
	// keeps about half the rows.
	selAttr := sample.AttrIndex(selectionColumns[0])
	pred := operator.U32Less(selAttr, storage.DateDomain/2)

	var vectorPass float64
	err = p.tr.root("probe:operator", func(root int) error {
		snap := mem.Snapshot()
		var builds, fills []float64
		var bytes int64
		// pass builds and runs one pipeline per query and returns the summed
		// run time.
		pass := func(mode operator.ExecMode, runName string) (float64, error) {
			var total float64
			bytes = 0
			for _, q := range tw.Queries {
				var pipe *operator.Pipeline
				s, err := p.timed("operator.build", root, func() error {
					var err error
					pipe, err = operator.BuildExec(snap, dev, q.Attrs, &pred, operator.ExecOptions{Mode: mode})
					return err
				})
				if err != nil {
					return 0, err
				}
				builds = append(builds, s)
				s, err = p.timed(runName, root, func() error {
					res, err := pipe.Run()
					bytes += res.Stats.BytesRead
					fills = append(fills, res.FillRatios...)
					return err
				})
				if err != nil {
					return 0, err
				}
				total += s
			}
			return total, nil
		}
		var vector, row []float64
		for i := 0; i < heavyRepeats; i++ {
			v, err := pass(operator.ExecVector, "operator.run_vector")
			if err != nil {
				return err
			}
			r, err := pass(operator.ExecRow, "operator.run_row")
			if err != nil {
				return err
			}
			vector, row = append(vector, v), append(row, r)
		}
		vectorPass = median(vector)
		rows := float64(snap.Rows()) * float64(len(tw.Queries))
		p.values["operator.build_us"] = mean(builds) * 1e6
		p.values["operator.vector_rows_s"] = rows / vectorPass
		p.values["operator.vector_gb_s"] = float64(bytes) / 1e9 / vectorPass
		p.values["operator.row_rows_s"] = rows / median(row)
		p.values["operator.vector_over_row"] = median(row) / vectorPass
		p.values["operator.fill_ratio"] = mean(fills)
		return nil
	})
	if err != nil {
		return err
	}

	return p.tr.root("probe:replay", func(root int) error {
		// One worker, like every probe: with a pool, the pipelines' summed
		// run time would exceed the wall time it is subtracted from.
		cfg := replay.Config{Disk: dev, MaxRows: queryMaxRows, Seed: queryDataSeed, Workers: 1, ExecMode: string(operator.ExecVector)}
		sel := &replay.Selection{Attr: selAttr, Bound: storage.DateDomain / 2}
		s, err := p.repeat("replay.operators", root, heavyRepeats, func() error {
			rep, err := replay.Operators(tw, advice.Layout, advice.Algorithm, cfg, sel)
			if err == nil && !rep.Exact() {
				err = fmt.Errorf("measured %v != predicted %v", rep.MeasuredTotal, rep.PredictedTotal)
			}
			return err
		})
		if err != nil {
			return err
		}
		p.values["replay.operators_ms"] = s * 1e3
		p.values["replay.self_ms"] = (s - materialize - vectorPass) * 1e3
		s, err = p.repeat("replay.layout", root, heavyRepeats, func() error {
			rep, err := replay.Layout(tw, advice.Layout, advice.Algorithm, cfg)
			if err == nil && !rep.Exact() {
				err = fmt.Errorf("measured %v != predicted %v", rep.MeasuredTotal, rep.PredictedTotal)
			}
			return err
		})
		p.values["replay.layout_ms"] = s * 1e3
		return err
	})
}

// migrate probes the plan, the sampled execute-and-verify and the bare
// repartition of the transition every drift cycle ends in: four 100-byte
// columns from [a b | c d] to one column each.
func (p *prober) migrate() error {
	dev := p.dev()
	t := driftTable("probe")
	from := partition.Must(t, []attrset.Set{attrset.Of(0, 1), attrset.Of(2, 3)})
	to := partition.Column(t)
	tw := schema.TableWorkload{Table: t}
	for i := 0; i < advisor.DefaultDriftWindow; i++ {
		tw.Queries = append(tw.Queries, schema.TableQuery{ID: fmt.Sprintf("s%d", i), Weight: 1, Attrs: attrset.Of(i % 2)})
	}
	return p.tr.root("probe:migrate", func(root int) error {
		var plan *migrate.Plan
		s, err := p.repeat("migrate.plan", root, probeRepeats, func() error {
			var err error
			plan, err = migrate.New(tw, from, to, p.model, migrate.DefaultWindow)
			return err
		})
		if err != nil {
			return err
		}
		p.values["migrate.plan_us"] = s * 1e6
		s, err = p.repeat("migrate.execute", root, heavyRepeats, func() error {
			rep, err := migrate.Execute(tw, plan, replay.Config{Disk: dev, MaxRows: migrateMaxRows, Workers: 1})
			if err == nil && !rep.Exact() {
				err = fmt.Errorf("sampled migration inexact")
			}
			return err
		})
		if err != nil {
			return err
		}
		p.values["migrate.execute_ms"] = s * 1e3

		sample, err := schema.NewTable(t.Name, migrateMaxRows, t.Columns)
		if err != nil {
			return err
		}
		var secs []float64
		var moved int64
		for i := 0; i < probeRepeats; i++ {
			e, err := storage.NewEngine(partition.Must(sample, from.Parts), dev, nil)
			if err != nil {
				return err
			}
			if err := e.Load(storage.NewGenerator(0), sample.Rows); err != nil {
				e.Close()
				return err
			}
			s, err := p.timed("storage.repartition", root, func() error {
				st, err := e.Repartition(partition.Must(sample, to.Parts), 1)
				moved = st.BytesRead + st.BytesWritten
				return err
			})
			e.Close()
			if err != nil {
				return err
			}
			secs = append(secs, s)
		}
		p.values["storage.repartition_ms"] = median(secs) * 1e3
		p.values["storage.repartition_mb"] = float64(moved) / 1e6
		return nil
	})
}
