// Package workgen generates synthetic workloads with controllable access
// patterns. The paper's Section 2 predicts how search strategies respond to
// workload shape — top-down algorithms converge faster on highly regular
// access patterns (many queries touching almost the same attributes),
// bottom-up algorithms on highly fragmented ones (queries sharing few
// attributes) — and this package provides the knob that makes those claims
// testable. It also supports the workload-drift experiment of Section 6.3.
package workgen

import (
	"fmt"
	"math/rand"

	"knives/internal/attrset"
	"knives/internal/schema"
)

// Config controls workload generation.
type Config struct {
	// Queries is the number of queries to generate.
	Queries int
	// Fragmentation in [0, 1] steers the access pattern: 0 is perfectly
	// regular (every query references the same attribute cluster), 1 is
	// perfectly fragmented (queries reference disjoint clusters as far as
	// the attribute count allows).
	Fragmentation float64
	// MeanAttrs is the average number of attributes per query (at least 1).
	MeanAttrs int
	// Seed makes generation deterministic.
	Seed int64
}

// splitmix64 is the same stateless mixer the storage generator uses.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Generate builds a per-table workload over the given table.
func Generate(t *schema.Table, cfg Config) (schema.TableWorkload, error) {
	if cfg.Queries <= 0 {
		return schema.TableWorkload{}, fmt.Errorf("workgen: Queries must be positive")
	}
	if cfg.Fragmentation < 0 || cfg.Fragmentation > 1 {
		return schema.TableWorkload{}, fmt.Errorf("workgen: Fragmentation %v outside [0,1]", cfg.Fragmentation)
	}
	mean := cfg.MeanAttrs
	if mean < 1 {
		mean = 1
	}
	n := t.NumAttrs()
	if mean > n {
		mean = n
	}

	state := uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 1
	next := func(bound int) int {
		state = splitmix64(state)
		return int(state % uint64(bound))
	}

	tw := schema.TableWorkload{Table: t}
	for q := 0; q < cfg.Queries; q++ {
		// Regular component: a shared cluster starting at attribute 0.
		// Fragmented component: a per-query cluster offset.
		width := mean/2 + next(mean+1) // in [mean/2, 3*mean/2]
		if width < 1 {
			width = 1
		}
		if width > n {
			width = n
		}
		offset := 0
		if cfg.Fragmentation > 0 {
			// Queries spread across the attribute range proportionally to
			// the fragmentation knob.
			span := int(cfg.Fragmentation * float64(n))
			if span > 0 {
				offset = next(span + 1)
			}
		}
		var s attrset.Set
		for i := 0; i < width; i++ {
			s = s.Add((offset + i) % n)
		}
		tw.Queries = append(tw.Queries, schema.TableQuery{
			ID:     fmt.Sprintf("g%d", q),
			Weight: 1,
			Attrs:  s,
		})
	}
	return tw, nil
}

// Drift returns a copy of the workload with a fraction of its queries
// replaced by perturbed variants (each replaced query has one random
// attribute toggled, keeping at least one attribute). This models the
// workload change of the paper's Section 6.3 ("up to 50% change in query
// workload").
func Drift(tw schema.TableWorkload, fraction float64, seed int64) schema.TableWorkload {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	n := tw.Table.NumAttrs()
	state := uint64(seed)*0x9e3779b97f4a7c15 + 7
	next := func(bound int) int {
		state = splitmix64(state)
		return int(state % uint64(bound))
	}
	out := schema.TableWorkload{Table: tw.Table}
	changed := int(fraction * float64(len(tw.Queries)))
	for i, q := range tw.Queries {
		if i < changed {
			attrs := q.Attrs
			toggle := next(n)
			if attrs.Has(toggle) && attrs.Len() > 1 {
				attrs = attrs.Remove(toggle)
			} else {
				attrs = attrs.Add(toggle)
			}
			q = schema.TableQuery{ID: q.ID + "'", Weight: q.Weight, Attrs: attrs}
		}
		out.Queries = append(out.Queries, q)
	}
	return out
}

// shapedColumns is the palette Shaped draws columns from: the fixed-width
// encodings of the paper's cost model.
var shapedColumns = []schema.Column{
	{Kind: schema.KindInt, Size: 4},
	{Kind: schema.KindDecimal, Size: 8},
	{Kind: schema.KindDate, Size: 4},
	{Kind: schema.KindChar, Size: 1},
	{Kind: schema.KindChar, Size: 15},
	{Kind: schema.KindChar, Size: 25},
	{Kind: schema.KindVarchar, Size: 44},
	{Kind: schema.KindVarchar, Size: 117},
}

// Shaped draws n synthetic tables the way knivesd's benchmark traffic
// draws its never-seen /advise tables: table i is widths[i%len(widths)]
// columns wide at fragmentation 0, 0.25, 0.5, 0.75 or 1 (walking the
// widths x fragmentations grid), with columns from the fixed-width palette,
// 1e5..6.4e6 rows and 16-32 queries. The same seed draws the same tables.
func Shaped(n int, widths []int, seed int64) []schema.TableWorkload {
	frags := []float64{0, 0.25, 0.5, 0.75, 1}
	rng := rand.New(rand.NewSource(seed))
	out := make([]schema.TableWorkload, n)
	for i := range out {
		width := widths[i%len(widths)]
		cols := make([]schema.Column, width)
		for c := range cols {
			cols[c] = shapedColumns[rng.Intn(len(shapedColumns))]
			cols[c].Name = fmt.Sprintf("c%d", c)
		}
		t := schema.MustTable(fmt.Sprintf("t%d", i), int64(100_000)<<rng.Intn(7), cols)
		tw, err := Generate(t, Config{
			Queries:       16 + rng.Intn(17),
			Fragmentation: frags[(i/len(widths))%len(frags)],
			MeanAttrs:     2 + rng.Intn(width/2),
			Seed:          rng.Int63(),
		})
		if err != nil {
			panic(err) // every config is in range by construction
		}
		out[i] = tw
	}
	return out
}
