package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"knives/internal/advisor"
	"knives/internal/schema"
	"knives/internal/storage"
	"knives/internal/workgen"
)

// Op classes: one name per kind of request a schedule holds. The class
// fixes the endpoint, the verification rules and — where the endpoint has a
// cache — whether the answer must come from it.
const (
	clsAdviseMiss   = "advise-miss"
	clsAdviseHit    = "advise-hit"
	clsObserve      = "observe"
	clsQueryMiss    = "query-miss"
	clsQueryHit     = "query-hit"
	clsReplayMiss   = "replay-miss"
	clsDriftAdvise  = "drift-advise"
	clsDriftObserve = "drift-observe"
	clsMigrate      = "migrate"
	clsMigrateAgain = "migrate-again"
)

// classPath maps an op class to the endpoint it posts to.
var classPath = map[string]string{
	clsAdviseMiss:   "/advise",
	clsAdviseHit:    "/advise",
	clsObserve:      "/observe",
	clsQueryMiss:    "/query",
	clsQueryHit:     "/query",
	clsReplayMiss:   "/replay",
	clsDriftAdvise:  "/advise",
	clsDriftObserve: "/observe",
	clsMigrate:      "/migrate",
	clsMigrateAgain: "/migrate",
}

// wantCached says, for the classes that promise one, whether the answer must
// come from the endpoint's cache. A workload whose misses turn into hits (or
// hits into misses) measures something else than it says; the flag is
// checked on every response, over HTTP and in the traced pass alike.
var wantCached = map[string]bool{
	clsAdviseMiss:  false,
	clsAdviseHit:   true,
	clsDriftAdvise: false,
	clsQueryMiss:   false,
	clsQueryHit:    true,
	clsReplayMiss:  false,
	clsMigrate:     false,
}

// checkCached compares an answer's cached flag with the op's class.
func checkCached(class string, cached bool) error {
	if want, ok := wantCached[class]; ok && cached != want {
		return fmt.Errorf("cached=%v on a %s op", cached, class)
	}
	return nil
}

// op is one request: its class and its body, marshalled before any clock
// starts.
type op struct {
	class string
	body  []byte
}

// unit is what a client takes from the stream at once: a single op, or a
// drift cycle — a chain of dependent requests on a table only that client
// touches. A chain holds, in order: one drift-advise, maxDriftBatches
// drift-observes (sent until a verdict says recomputed), one migrate, one
// migrate-again.
type unit struct {
	ops   []op
	chain bool
}

// maxDriftBatches bounds a drift cycle: a cycle whose advice has not been
// recomputed after this many single-column batches is a failed op.
const maxDriftBatches = 16

// driftBatchQueries is the size of one single-column batch of a drift cycle.
const driftBatchQueries = 128

// stream is everything a workload sends, generated from the seed alone.
type stream struct {
	setup []op   // registration and warm-up; verified, never timed
	units []unit // the timed pass, in order
	// columns names every table's columns, so that each advised layout in a
	// response can be checked to partition exactly them.
	columns map[string][]string
}

// Replay knobs every /query, /replay and /migrate op carries: big enough
// that materialization and execution dominate the request, small enough for
// tens of ops per second on two cores.
const (
	queryMaxRows   = 20000
	queryDataSeed  = 1
	migrateMaxRows = 2000
)

// selectionColumns are lineitem's three date columns; a distinct
// (column, bound) pair is a distinct exec-cache key.
var selectionColumns = []string{"l_shipdate", "l_commitdate", "l_receiptdate"}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Only wire structs of strings and numbers are marshalled here.
		panic(fmt.Sprintf("bench: marshal %T: %v", v, err))
	}
	return b
}

func tableSpec(t *schema.Table) advisor.TableSpec {
	ts := advisor.TableSpec{Name: t.Name, Rows: t.Rows, Columns: make([]advisor.ColumnSpec, len(t.Columns))}
	for i, c := range t.Columns {
		ts.Columns[i] = advisor.ColumnSpec{Name: c.Name, Kind: c.Kind.String(), Size: c.Size}
	}
	return ts
}

func querySpecs(tw schema.TableWorkload) []advisor.QuerySpec {
	qs := make([]advisor.QuerySpec, len(tw.Queries))
	for i, q := range tw.Queries {
		qs[i] = advisor.QuerySpec{
			ID:     q.ID,
			Weight: q.Weight,
			Tables: map[string][]string{tw.Table.Name: tw.Table.AttrNames(q.Attrs)},
		}
	}
	return qs
}

func columnNames(t *schema.Table) []string {
	names := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		names[i] = c.Name
	}
	return names
}

// gen builds op streams from one seeded source.
type gen struct {
	rng     *rand.Rand
	seed    int64
	tpch    *schema.Benchmark
	columns map[string][]string

	// lineitem as an explicit wire workload, identical column for column
	// and query for query to the built-in TPC-H one — so on a prewarmed
	// daemon it fingerprints to the prewarmed advice.
	lineitemTables  []advisor.TableSpec
	lineitemQueries []advisor.QuerySpec
	// bounds is a seeded permutation of [1, storage.DateDomain).
	bounds []uint32
	// registered[t] is TPC-H table t's registered workload as wire
	// observations; ring[t] is the next of them an observe op draws.
	registered [][]advisor.ObservedQry
	ring       []int
}

func newGen(seed int64) *gen {
	g := &gen{
		rng:     rand.New(rand.NewSource(seed)),
		seed:    seed,
		tpch:    schema.TPCH(10),
		columns: make(map[string][]string),
	}
	for _, t := range g.tpch.Tables {
		g.columns[t.Name] = columnNames(t)
	}
	li := g.tpch.Workload.ForTable(g.tpch.Table("lineitem"))
	g.lineitemTables = []advisor.TableSpec{tableSpec(li.Table)}
	g.lineitemQueries = querySpecs(li)
	g.bounds = make([]uint32, 0, storage.DateDomain-1)
	for _, p := range g.rng.Perm(storage.DateDomain - 1) {
		g.bounds = append(g.bounds, uint32(p+1))
	}
	g.ring = make([]int, len(g.tpch.Tables))
	g.registered = make([][]advisor.ObservedQry, len(g.tpch.Tables))
	for i, t := range g.tpch.Tables {
		g.ring[i] = g.rng.Intn(64)
		for _, q := range g.tpch.Workload.ForTable(t).Queries {
			g.registered[i] = append(g.registered[i], advisor.ObservedQry{Attrs: t.AttrNames(q.Attrs), Weight: q.Weight})
		}
	}
	return g
}

var (
	synthWidths = []int{8, 12, 16, 18, 20}
	synthFrags  = []float64{0, 0.25, 0.5, 0.75, 1}
)

// synthKinds is the palette synthetic columns draw from: the fixed-width
// encodings of the paper's cost model.
var synthKinds = []schema.Column{
	{Kind: schema.KindInt, Size: 4},
	{Kind: schema.KindDecimal, Size: 8},
	{Kind: schema.KindDate, Size: 4},
	{Kind: schema.KindChar, Size: 1},
	{Kind: schema.KindChar, Size: 15},
	{Kind: schema.KindChar, Size: 25},
	{Kind: schema.KindVarchar, Size: 44},
	{Kind: schema.KindVarchar, Size: 117},
}

// synthAdvise returns a /advise body over a fresh synthetic table: width
// columns, 16-32 workgen queries at the given fragmentation. The table name
// must be new to the daemon for the request to miss the advice cache.
func (g *gen) synthAdvise(name string, width int, frag float64) []byte {
	cols := make([]schema.Column, width)
	for i := range cols {
		cols[i] = synthKinds[g.rng.Intn(len(synthKinds))]
		cols[i].Name = fmt.Sprintf("c%d", i)
	}
	rows := int64(100_000) << g.rng.Intn(7) // 1e5 .. 6.4e6
	t := schema.MustTable(name, rows, cols)
	tw, err := workgen.Generate(t, workgen.Config{
		Queries:       16 + g.rng.Intn(17),
		Fragmentation: frag,
		MeanAttrs:     2 + g.rng.Intn(width/2),
		Seed:          g.rng.Int63(),
	})
	if err != nil {
		panic(fmt.Sprintf("bench: workgen: %v", err)) // config is in range by construction
	}
	g.columns[name] = columnNames(t)
	return mustJSON(advisor.AdviseRequest{
		Tables:  []advisor.TableSpec{tableSpec(t)},
		Queries: querySpecs(tw),
	})
}

// observe returns a batched /observe body: perTable queries for each of the
// listed TPC-H tables, drawn round-robin from the table's registered
// workload, so the observed mix never drifts from what was advised.
func (g *gen) observe(batchID string, tables []int, perTable int) []byte {
	req := advisor.ObserveRequest{BatchID: batchID}
	for _, ti := range tables {
		qs := make([]advisor.ObservedQry, perTable)
		for j := range qs {
			qs[j] = g.registered[ti][g.ring[ti]%len(g.registered[ti])]
			g.ring[ti]++
		}
		req.Batches = append(req.Batches, advisor.TableObservation{Table: g.tpch.Tables[ti].Name, Queries: qs})
	}
	return mustJSON(req)
}

// selection returns the i-th distinct (column, bound) pair. The column
// cycles with period 3 and the bound with period DateDomain-1 = 2525, which
// is not a multiple of 3, so pairs repeat only after 7575 ops.
func (g *gen) selection(i int) *advisor.SelectionSpec {
	return &advisor.SelectionSpec{
		Table:  "lineitem",
		Column: selectionColumns[i%len(selectionColumns)],
		Bound:  g.bounds[i%len(g.bounds)],
	}
}

func (g *gen) query(sel *advisor.SelectionSpec) []byte {
	return mustJSON(advisor.QueryRequest{
		Tables:    g.lineitemTables,
		Queries:   g.lineitemQueries,
		MaxRows:   queryMaxRows,
		Seed:      queryDataSeed,
		Exec:      "vector",
		Selection: sel,
	})
}

func (g *gen) replay(dataSeed int64) []byte {
	return mustJSON(advisor.ReplayRequest{
		Tables:  g.lineitemTables,
		Queries: g.lineitemQueries,
		MaxRows: queryMaxRows,
		Seed:    dataSeed,
	})
}

// driftTable is the table of a drift cycle: four wide columns, so that which
// of them share a partition decides most of a query's cost.
func driftTable(name string) *schema.Table {
	return schema.MustTable(name, 1_000_000, []schema.Column{
		{Name: "a", Kind: schema.KindChar, Size: 100},
		{Name: "b", Kind: schema.KindChar, Size: 100},
		{Name: "c", Kind: schema.KindChar, Size: 100},
		{Name: "d", Kind: schema.KindChar, Size: 100},
	})
}

// driftChain returns one drift cycle on a fresh table: advised for a
// workload that reads a and b strictly together, then observed reading them
// strictly apart until the advice is recomputed, then migrated, then
// migrated again.
func (g *gen) driftChain(name string) unit {
	t := driftTable(name)
	g.columns[name] = columnNames(t)
	together := func(names ...string) advisor.QuerySpec {
		return advisor.QuerySpec{Tables: map[string][]string{name: names}}
	}
	// The tracker keeps a window of 256 observed queries; 128 per batch
	// push the registered co-access queries out with the second batch,
	// which is therefore the one that recomputes.
	apart := make([]advisor.ObservedQry, driftBatchQueries)
	for i := range apart {
		apart[i] = advisor.ObservedQry{Attrs: []string{"ab"[i%2 : i%2+1]}}
	}
	u := unit{chain: true}
	u.ops = append(u.ops, op{clsDriftAdvise, mustJSON(advisor.AdviseRequest{
		Tables:  []advisor.TableSpec{tableSpec(t)},
		Queries: []advisor.QuerySpec{together("a", "b"), together("a", "b"), together("c", "d")},
	})})
	for k := 0; k < maxDriftBatches; k++ {
		u.ops = append(u.ops, op{clsDriftObserve, mustJSON(advisor.ObserveRequest{
			BatchID: fmt.Sprintf("%d-%s-%d", g.seed, name, k),
			Batches: []advisor.TableObservation{{Table: name, Queries: apart}},
		})})
	}
	migrate := mustJSON(advisor.MigrateRequest{Table: name, MaxRows: migrateMaxRows})
	u.ops = append(u.ops, op{clsMigrate, migrate}, op{clsMigrateAgain, migrate})
	return u
}

func single(class string, body []byte) unit { return unit{ops: []op{{class, body}}} }

// allTables lists every TPC-H table index, rotated by start.
func allTables(n, start int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = (start + i) % n
	}
	return out
}

// adviseSearchStream: every op is a never-seen table, so every request
// misses the advice cache and runs the six-heuristic portfolio search.
// Width and fragmentation walk their 5x5 grid, so any 25 consecutive ops
// hold every combination once.
func adviseSearchStream(seed int64, n int) *stream {
	g := newGen(seed)
	s := &stream{columns: g.columns}
	// Warm-up stays on the two narrowest widths, where a search takes well
	// under a millisecond whatever the seed drew: it is there to grow the
	// heap and open the connection, and one Trojan search at 16 columns or
	// more would cost more than the rest of set-up together — by an amount
	// that depends on the seed, which setup_s must not.
	for i := 0; i < 24; i++ {
		s.setup = append(s.setup, op{clsAdviseMiss, g.synthAdvise(fmt.Sprintf("warm%d", i), synthWidths[i%2], synthFrags[i%5])})
	}
	for i := 0; i < n; i++ {
		s.units = append(s.units, single(clsAdviseMiss, g.synthAdvise(fmt.Sprintf("t%d", i), synthWidths[i%5], synthFrags[(i/5)%5])))
	}
	return s
}

// observeIngestStream: batched observes of 8 tables x 32 queries on a
// prewarmed durable daemon.
func observeIngestStream(seed int64, n int) *stream {
	g := newGen(seed)
	s := &stream{columns: g.columns}
	nt := len(g.tpch.Tables)
	for i := 0; i < 16; i++ {
		s.setup = append(s.setup, op{clsObserve, g.observe(fmt.Sprintf("%d-warm-%d", seed, i), allTables(nt, i), 32)})
	}
	for i := 0; i < n; i++ {
		s.units = append(s.units, single(clsObserve, g.observe(fmt.Sprintf("%d-%d", seed, i), allTables(nt, i), 32)))
	}
	return s
}

// warmBound selects every row: it is outside the permuted bounds, so a
// warm-up query can never collide with a timed one.
const warmBound = storage.DateDomain

// queryScanStream: the same table and queries under a distinct predicate
// each time, so advice always hits and the exec cache always misses.
func queryScanStream(seed int64, n int) *stream {
	g := newGen(seed)
	s := &stream{columns: g.columns}
	for _, col := range selectionColumns {
		s.setup = append(s.setup, op{clsQueryMiss, g.query(&advisor.SelectionSpec{Table: "lineitem", Column: col, Bound: warmBound})})
	}
	for i := 0; i < n; i++ {
		s.units = append(s.units, single(clsQueryMiss, g.query(g.selection(i))))
	}
	return s
}

// Mixed schedule: the units of one block. A block holds 95 single ops and
// one drift cycle, which recomputes on its second batch and therefore
// expands to 5 requests — 100 ops, so the shares below are percentages of
// ops.
const (
	mixObserve    = 55
	mixAdviseHit  = 20
	mixAdviseMiss = 5
	mixQueryHit   = 5
	mixQueryMiss  = 8
	mixReplayMiss = 2
	mixChains     = 1
	mixBlockUnits = mixObserve + mixAdviseHit + mixAdviseMiss + mixQueryHit + mixQueryMiss + mixReplayMiss + mixChains

	mixHotTables      = 64 // pre-registered workloads the advise-hit ops repeat
	mixWarmSelections = 16 // selections executed during set-up

	// A query-hit op repeats a selection first sent between mixHitMinLag and
	// mixHitMaxLag query executions earlier. The exec cache is FIFO with
	// 256 entries, so a fixed hot set would be evicted by the miss stream
	// after 240 misses however often it is asked for; a recent selection is
	// always resident. The minimum lag keeps the repeat from racing the
	// original on the other client, which would flip which of the two
	// reports cached.
	mixHitMinLag = 8
	mixHitMaxLag = 64
)

var mixColdWidths = []int{8, 12, 16}

// mixedStream: the production shape — every endpoint, hits beside misses,
// repartition writes beside scan reads — on a working set that fits the
// caches. n counts units; whole blocks only.
func mixedStream(seed int64, n int) *stream {
	g := newGen(seed)
	s := &stream{columns: g.columns}
	nt := len(g.tpch.Tables)

	// The explicit lineitem workload must answer from the prewarmed cache:
	// that proves it fingerprints like the built-in one, so /query ops
	// share — and never reset — the tracker the observe ops feed.
	s.setup = append(s.setup, op{clsAdviseHit, mustJSON(advisor.AdviseRequest{Tables: g.lineitemTables, Queries: g.lineitemQueries})})
	hot := make([][]byte, mixHotTables)
	for k := range hot {
		hot[k] = g.synthAdvise(fmt.Sprintf("hot%d", k), mixColdWidths[k%3], synthFrags[k%5])
		s.setup = append(s.setup, op{clsAdviseMiss, hot[k]})
	}
	// executed holds every distinct /query body in the order first sent.
	var executed [][]byte
	for k := 0; k < mixWarmSelections; k++ {
		executed = append(executed, g.query(g.selection(k)))
		s.setup = append(s.setup, op{clsQueryMiss, executed[k]})
	}
	for i := 0; i < 8; i++ {
		s.setup = append(s.setup, op{clsObserve, g.observe(fmt.Sprintf("%d-warm-%d", seed, i), allTables(nt, i)[:2], 32)})
	}

	var nObs, nCold, nReplay, nChain int
	block := make([]string, 0, mixBlockUnits)
	for len(s.units)+mixBlockUnits <= n {
		block = block[:0]
		for _, c := range []struct {
			class string
			count int
		}{
			{clsObserve, mixObserve}, {clsAdviseHit, mixAdviseHit}, {clsAdviseMiss, mixAdviseMiss},
			{clsQueryHit, mixQueryHit}, {clsQueryMiss, mixQueryMiss}, {clsReplayMiss, mixReplayMiss},
			{clsDriftAdvise, mixChains},
		} {
			for k := 0; k < c.count; k++ {
				block = append(block, c.class)
			}
		}
		g.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, class := range block {
			switch class {
			case clsObserve:
				s.units = append(s.units, single(class, g.observe(fmt.Sprintf("%d-%d", seed, nObs), allTables(nt, 2*nObs)[:2], 32)))
				nObs++
			case clsAdviseHit:
				s.units = append(s.units, single(class, hot[g.rng.Intn(len(hot))]))
			case clsAdviseMiss:
				s.units = append(s.units, single(class, g.synthAdvise(fmt.Sprintf("cold%d", nCold), mixColdWidths[nCold%3], synthFrags[(nCold/3)%5])))
				nCold++
			case clsQueryHit:
				lo := max(0, len(executed)-mixHitMaxLag)
				hi := len(executed) - mixHitMinLag
				s.units = append(s.units, single(class, executed[lo+g.rng.Intn(hi-lo)]))
			case clsQueryMiss:
				executed = append(executed, g.query(g.selection(len(executed))))
				s.units = append(s.units, single(class, executed[len(executed)-1]))
			case clsReplayMiss:
				// Data seed 1 is what the /query ops materialize; start past it.
				s.units = append(s.units, single(class, g.replay(int64(2+nReplay))))
				nReplay++
			case clsDriftAdvise:
				s.units = append(s.units, g.driftChain(fmt.Sprintf("drift%d", nChain)))
				nChain++
			}
		}
	}
	return s
}
