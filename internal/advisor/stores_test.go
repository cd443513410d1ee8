package advisor

import (
	"bytes"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/replay"
	"knives/internal/schema"
	"knives/internal/storage"
)

// datedWorkload is a small table with a date column to select on. Every call
// builds its own *Table, like every decoded request does.
func datedWorkload(t *testing.T, name string) schema.TableWorkload {
	t.Helper()
	tab, err := schema.NewTable(name, 50_000, []schema.Column{
		{Name: "ts", Kind: schema.KindDate, Size: 4},
		{Name: "a", Kind: schema.KindChar, Size: 60},
		{Name: "b", Kind: schema.KindChar, Size: 60},
		{Name: "n", Kind: schema.KindInt, Size: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "q1", Weight: 1, Attrs: attrset.Of(0, 1)},
		{ID: "q2", Weight: 2, Attrs: attrset.Of(1, 2)},
		{ID: "q3", Weight: 1, Attrs: attrset.Of(3)},
	}}
}

// guardBackend fails every read issued after Close and keeps the count of
// backends still open, so a test sees both a store closed under a reader
// and a store nobody ever closed.
type guardBackend struct {
	storage.Backend
	closed atomic.Bool
	open   *atomic.Int64
}

func (g *guardBackend) ReadPage(idx int64, buf []byte) ([]byte, error) {
	if g.closed.Load() {
		return nil, errors.New("read after Close")
	}
	return g.Backend.ReadPage(idx, buf)
}

func (g *guardBackend) Close() error {
	if !g.closed.Swap(true) {
		g.open.Add(-1)
	}
	return g.Backend.Close()
}

// guardedMaterialize is replay.Materialize on guardBackends.
func guardedMaterialize(open *atomic.Int64) func(schema.TableWorkload, partition.Partitioning, replay.Config) (*storage.Engine, error) {
	return func(tw schema.TableWorkload, layout partition.Partitioning, cfg replay.Config) (*storage.Engine, error) {
		sample := tw.Table
		if sample.Rows > cfg.MaxRows {
			sample = schema.MustTable(sample.Name, cfg.MaxRows, sample.Columns)
		}
		e, err := storage.NewEngine(partition.Must(sample, layout.Parts), cfg.Disk, func(_ string, pageSize int) (storage.Backend, error) {
			open.Add(1)
			return &guardBackend{Backend: storage.NewMemBackend(pageSize), open: open}, nil
		})
		if err != nil {
			return nil, err
		}
		return e, e.LoadParallel(storage.NewGenerator(cfg.Seed), sample.Rows, cfg.Workers)
	}
}

// TestResidentStoreIdentity: an execution on a resident store equals a
// fresh, private replay.Operators of the same request field for field
// (stats, checksums, plans, per-operator accounting, result rows, totals),
// on every device, and only the first selection materializes. The exec label
// rides along (the test floor pins the subtest names): the private run is
// made under the default label and differs in the echoed label alone.
func TestResidentStoreIdentity(t *testing.T) {
	bounds := []uint32{0, 500, 1263, storage.DateDomain}
	for _, device := range []string{"hdd", "ssd", "mm"} {
		for _, mode := range []string{"row", "vector"} {
			t.Run(device+"/"+mode, func(t *testing.T) {
				m, err := cost.ModelByName(device, cost.Disk{})
				if err != nil {
					t.Fatal(err)
				}
				svc := NewService(Config{Model: m})
				opt := ReplayOptions{MaxRows: 2_000, Seed: 7, ExecMode: mode}
				for _, bound := range bounds {
					tw := datedWorkload(t, "events")
					got, _, cached, err := svc.ExecTable(tw, opt, &ExecSelection{Column: "ts", Bound: bound})
					if err != nil {
						t.Fatal(err)
					}
					if cached {
						t.Fatalf("bound %d answered from the exec cache; the store was not exercised", bound)
					}
					want, err := replay.Operators(tw, partition.Must(tw.Table, got.Layout.Parts), got.Algorithm,
						replay.Config{Model: device, MaxRows: opt.MaxRows, Seed: opt.Seed},
						&replay.Selection{Attr: 0, Bound: bound})
					if err != nil {
						t.Fatal(err)
					}
					g, w := *got, *want
					if g.ExecMode != mode || w.ExecMode != "row" {
						t.Errorf("bound %d: exec labels %q and %q, want %q and the default's \"row\"", bound, g.ExecMode, w.ExecMode, mode)
					}
					w.ExecMode = mode
					g.ExecSeconds, w.ExecSeconds = 0, 0
					if !reflect.DeepEqual(g, w) {
						t.Errorf("bound %d: resident execution differs from a fresh one:\n got %+v\nwant %+v", bound, g, w)
					}
					if !got.Exact() || got.RowsFull != 50_000 || got.RowsReplayed != 2_000 {
						t.Errorf("bound %d: exact=%v rows %d/%d", bound, got.Exact(), got.RowsReplayed, got.RowsFull)
					}
				}
				if n, hits := svc.stores.materializations.Load(), svc.stores.hits.Load(); n != 1 || hits != int64(len(bounds)-1) {
					t.Errorf("%d selections ran %d materializations and %d store hits, want 1 and %d", len(bounds), n, hits, len(bounds)-1)
				}
				if st := svc.Stats(); st.ResidentStores != 1 || st.ResidentStoreBytes < 2_000*128 || st.ResidentStoreBytes > residentStoreBudget {
					t.Errorf("stats report %d resident stores, %d bytes", st.ResidentStores, st.ResidentStoreBytes)
				}
			})
		}
	}
}

// TestResidentStoreLeases is the -race gate of the lease invariant: readers
// of two tables contend for a registry that can hold one, so every load
// evicts a store that may still be read. No execution may read a closed
// store (the guard backend fails it), resident bytes never pass the budget,
// and once the readers are gone every evicted store has been closed.
func TestResidentStoreLeases(t *testing.T) {
	opt := ReplayOptions{MaxRows: 1_500, Seed: 1}
	probe := NewService(Config{})
	if _, _, _, err := probe.ExecTable(datedWorkload(t, "left"), opt, nil); err != nil {
		t.Fatal(err)
	}
	_, oneStore := probe.stores.resident()

	svc := NewService(Config{})
	svc.stores = newStoreRegistry(oneStore)
	var open atomic.Int64
	svc.stores.materialize = guardedMaterialize(&open)

	const readers, rounds = 8, 6
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				table := []string{"left", "right"}[(g+r)%2]
				sel := &ExecSelection{Column: "ts", Bound: uint32(1 + g*rounds + r)} // distinct: the exec cache never answers
				rep, _, cached, err := svc.ExecTable(datedWorkload(t, table), opt, sel)
				if err != nil {
					t.Errorf("reader %d round %d: %v", g, r, err)
					return
				}
				if cached || !rep.Exact() {
					t.Errorf("reader %d round %d on %s: cached=%v exact=%v", g, r, table, cached, rep.Exact())
				}
				if n, b := svc.stores.resident(); n > 1 || b > oneStore {
					t.Errorf("%d resident stores holding %d bytes, budget %d", n, b, oneStore)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := svc.stores.materializations.Load(); n < 3 {
		t.Fatalf("only %d materializations: the budget never evicted, the test is vacuous", n)
	}
	svc.stores.drop(func(storeKey) bool { return true })
	if n, b := svc.stores.resident(); n != 0 || b != 0 || len(svc.stores.stores) != 0 {
		t.Errorf("after dropping everything: %d stores, %d bytes, %d entries", n, b, len(svc.stores.stores))
	}
	if n := open.Load(); n != 0 {
		t.Errorf("%d partition backends still open: a lease was never released", n)
	}
}

// TestResidentStoreDroppedUnderLease: dropping a store a reader still holds
// takes it out of the registry at once and closes it on the last release.
func TestResidentStoreDroppedUnderLease(t *testing.T) {
	var open atomic.Int64
	tw := datedWorkload(t, "events")
	cfg, _, err := replay.Config{MaxRows: 500}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	r := newStoreRegistry(residentStoreBudget)
	key := storeKey{table: "events"}
	load := func() (*storage.Engine, error) {
		return guardedMaterialize(&open)(tw, partition.Row(tw.Table), cfg)
	}
	first, err := r.acquire(key, true, load)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.acquire(key, true, load)
	if err != nil {
		t.Fatal(err)
	}
	if first != second || r.materializations.Load() != 1 || r.hits.Load() != 1 {
		t.Fatalf("second acquire did not share the first's store (%d materializations, %d hits)",
			r.materializations.Load(), r.hits.Load())
	}
	r.drop(func(k storeKey) bool { return k.table == "events" })
	if n, b := r.resident(); n != 0 || b != 0 {
		t.Errorf("dropped store still resident: %d stores, %d bytes", n, b)
	}
	r.release(first)
	if open.Load() == 0 {
		t.Fatal("store closed under its second reader")
	}
	if rep, err := replay.OperatorsOn(tw, partition.Row(tw.Table), second.engine, "leased", cfg, nil); err != nil || !rep.Exact() {
		t.Errorf("leased store unreadable after the drop: %v", err)
	}
	r.release(second)
	if n := open.Load(); n != 0 {
		t.Errorf("%d backends open after the last release", n)
	}
}

// TestResidentStoreOverBudget: a store larger than the whole budget is
// served to its request and not retained.
func TestResidentStoreOverBudget(t *testing.T) {
	svc := NewService(Config{})
	svc.stores = newStoreRegistry(4 << 10)
	var open atomic.Int64
	svc.stores.materialize = guardedMaterialize(&open)
	for _, bound := range []uint32{100, 200} {
		rep, _, _, err := svc.ExecTable(datedWorkload(t, "events"), ReplayOptions{MaxRows: 1_000},
			&ExecSelection{Column: "ts", Bound: bound})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Exact() {
			t.Errorf("bound %d: over-budget execution not exact", bound)
		}
		if st := svc.Stats(); st.ResidentStores != 0 || st.ResidentStoreBytes != 0 || open.Load() != 0 {
			t.Errorf("bound %d: %d stores, %d bytes resident, %d backends open; want none",
				bound, st.ResidentStores, st.ResidentStoreBytes, open.Load())
		}
	}
	if n := svc.stores.materializations.Load(); n != 2 {
		t.Errorf("%d materializations, want one per request", n)
	}
}

// TestResidentStoreFailedLoadRetries: a failed materialization fails its
// request, is not cached, and the next request materializes again.
func TestResidentStoreFailedLoadRetries(t *testing.T) {
	svc := NewService(Config{})
	injected := errors.New("injected materialize failure")
	fail := true
	svc.stores.materialize = func(tw schema.TableWorkload, l partition.Partitioning, cfg replay.Config) (*storage.Engine, error) {
		if fail {
			fail = false
			return nil, injected
		}
		return replay.Materialize(tw, l, cfg)
	}
	opt := ReplayOptions{MaxRows: 1_000}
	if _, _, _, err := svc.ExecTable(datedWorkload(t, "events"), opt, nil); !errors.Is(err, injected) {
		t.Fatalf("first execution: error = %v, want the injected failure", err)
	}
	if n, _ := svc.stores.resident(); n != 0 || len(svc.stores.stores) != 0 {
		t.Fatalf("failed load left %d stores, %d entries", n, len(svc.stores.stores))
	}
	rep, _, cached, err := svc.ExecTable(datedWorkload(t, "events"), opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cached || !rep.Exact() {
		t.Errorf("retry: cached=%v exact=%v", cached, rep.Exact())
	}
	if n, _ := svc.stores.resident(); n != 1 || svc.stores.materializations.Load() != 2 {
		t.Errorf("after the retry: %d resident stores, %d materializations; want 1 and 2",
			n, svc.stores.materializations.Load())
	}
}

// TestResidentStoreSharedAcrossRoutes: a /replay after a /query with a
// selection runs on the store that /query left resident — one load, one
// lease hit — and reports exactly.
func TestResidentStoreSharedAcrossRoutes(t *testing.T) {
	svc := NewService(Config{})
	opt := ReplayOptions{MaxRows: 1_000, Seed: 5}
	if _, _, _, err := svc.ExecTable(datedWorkload(t, "events"), opt, &ExecSelection{Column: "ts", Bound: 900}); err != nil {
		t.Fatal(err)
	}
	rep, _, cached, err := svc.ReplayTable(datedWorkload(t, "events"), opt)
	if err != nil {
		t.Fatal(err)
	}
	if cached || !rep.Exact() || rep.RowsReplayed != 1_000 {
		t.Errorf("replay on the resident store: cached=%v exact=%v rows=%d", cached, rep.Exact(), rep.RowsReplayed)
	}
	if n, hits := svc.stores.materializations.Load(), svc.stores.hits.Load(); n != 1 || hits != 1 {
		t.Errorf("%d materializations and %d store hits, want 1 and 1", n, hits)
	}
	if st := svc.Stats(); st.ResidentStores != 1 || st.CachedReplays != 2 || st.Replays != 1 {
		t.Errorf("stats: %+v", st)
	}
}

// TestResidentStoreReplayKeepsNothing: /replay loads what it needs and
// retains none of it. N replays on N seeds leave the resident stores and
// their bytes where a /query put them, and close every engine they loaded
// — the machine-independent witness that one-shot traffic cannot fill the
// budget (or the heap behind it).
func TestResidentStoreReplayKeepsNothing(t *testing.T) {
	svc := NewService(Config{})
	var open atomic.Int64
	svc.stores.materialize = guardedMaterialize(&open)
	opt := ReplayOptions{MaxRows: 1_000}
	if _, _, _, err := svc.ExecTable(datedWorkload(t, "events"), opt, nil); err != nil {
		t.Fatal(err)
	}
	stores, bytes := svc.stores.resident()
	held := open.Load()
	if stores != 1 || held == 0 {
		t.Fatalf("the /query left %d stores resident on %d backends", stores, held)
	}
	const replays = 6
	for seed := int64(1); seed <= replays; seed++ {
		rep, _, cached, err := svc.ReplayTable(datedWorkload(t, "events"), ReplayOptions{MaxRows: 1_000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if cached || !rep.Exact() {
			t.Errorf("seed %d: cached=%v exact=%v", seed, cached, rep.Exact())
		}
		if n, b := svc.stores.resident(); n != stores || b != bytes || open.Load() != held {
			t.Errorf("seed %d: %d stores, %d bytes resident, %d backends open; want %d, %d, %d",
				seed, n, b, open.Load(), stores, bytes, held)
		}
	}
	if n := svc.stores.materializations.Load(); n != 1+replays {
		t.Errorf("%d materializations, want %d", n, 1+replays)
	}
	if n := len(svc.stores.stores); n != 1 {
		t.Errorf("%d registry entries, want the /query's one", n)
	}
}

// TestResidentStoreJoinedLoad: a store is kept iff some lease taken before
// its load finished asked for that — a /query joining a load a /replay
// started keeps it, a second /replay does not.
func TestResidentStoreJoinedLoad(t *testing.T) {
	tw := datedWorkload(t, "events")
	cfg, _, err := replay.Config{MaxRows: 500}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	for _, joinerKeeps := range []bool{false, true} {
		var open atomic.Int64
		r := newStoreRegistry(residentStoreBudget)
		key := storeKey{table: "events"}
		started, finish := make(chan struct{}), make(chan struct{})
		leases := make(chan *residentStore, 2)
		acquire := func(keep bool, load func() (*storage.Engine, error)) {
			st, err := r.acquire(key, keep, load)
			if err != nil {
				t.Error(err)
			}
			leases <- st
		}
		go acquire(false, func() (*storage.Engine, error) {
			close(started)
			<-finish
			return guardedMaterialize(&open)(tw, partition.Row(tw.Table), cfg)
		})
		<-started
		go acquire(joinerKeeps, func() (*storage.Engine, error) {
			return nil, errors.New("the joiner loaded a second store")
		})
		waitFor(t, "the joiner's lease", func() bool {
			r.mu.Lock()
			defer r.mu.Unlock()
			return r.stores[key].leases == 2
		})
		close(finish)
		first, second := <-leases, <-leases
		if first == nil || first != second {
			t.Fatalf("joinerKeeps=%v: the two leases do not share one store", joinerKeeps)
		}
		if n, _ := r.resident(); (n == 1) != joinerKeeps {
			t.Errorf("joinerKeeps=%v: %d stores resident", joinerKeeps, n)
		}
		r.release(first)
		if open.Load() == 0 {
			t.Errorf("joinerKeeps=%v: store closed under its second reader", joinerKeeps)
		}
		r.release(second)
		if (open.Load() != 0) != joinerKeeps {
			t.Errorf("joinerKeeps=%v: %d backends open after the last release", joinerKeeps, open.Load())
		}
		r.drop(func(storeKey) bool { return true })
		if n := open.Load(); n != 0 {
			t.Errorf("joinerKeeps=%v: %d backends open after dropping everything", joinerKeeps, n)
		}
	}
}

// TestDriftDropsResidentStore: a drift recompute evicts the report cached
// for the workload the tracker covered — whichever endpoint put it there —
// and drops the store of the layout the daemon no longer advises; the next
// execution of the observed workload loads and runs on the new one.
func TestDriftDropsResidentStore(t *testing.T) {
	for _, route := range []string{"/query", "/replay"} {
		t.Run(route[1:], func(t *testing.T) {
			svc := NewService(Config{DriftThreshold: 0.15, DriftWindow: 8})
			tab := wideTable(t)
			opt := ReplayOptions{MaxRows: 1_000}
			exec := func(tw schema.TableWorkload) (*replay.TableReplay, bool) {
				t.Helper()
				if route == "/replay" {
					rep, _, cached, err := svc.ReplayTable(tw, opt)
					if err != nil {
						t.Fatal(err)
					}
					return rep, cached
				}
				rep, _, cached, err := svc.ExecTable(tw, opt, nil)
				if err != nil {
					t.Fatal(err)
				}
				return &rep.TableReplay, cached
			}
			kept := 0 // what the route leaves resident per load
			if route == "/query" {
				kept = 1
			}
			before, _ := exec(coAccessWorkload(tab))
			if _, cached := exec(coAccessWorkload(tab)); !cached {
				t.Fatal("repeat not cached; the eviction check below would be vacuous")
			}
			if n, _ := svc.stores.resident(); n != kept {
				t.Fatalf("%d resident stores after the first execution, want %d", n, kept)
			}
			recomputed := false
			for batch := 0; batch < 8 && !recomputed; batch++ {
				rep, err := observe(svc, tab, singleColumnBatch())
				if err != nil {
					t.Fatal(err)
				}
				recomputed = rep.Recomputed
			}
			if !recomputed {
				t.Fatal("drift never triggered")
			}
			if n, b := svc.stores.resident(); n != 0 || b != 0 {
				t.Errorf("stale layout's store survived the recompute: %d stores, %d bytes", n, b)
			}
			if n := svc.Stats().CachedReplays; n != 0 {
				t.Errorf("%d reports cached after the recompute; the covered workload's was not evicted", n)
			}

			tr, err := svc.tracker(tab.Name)
			if err != nil {
				t.Fatal(err)
			}
			advice, observed := tr.State()
			after, cached := exec(observed)
			if cached {
				t.Error("post-drift execution answered from cache")
			}
			if !sameParts(after.Layout, advice.Layout) || sameParts(after.Layout, before.Layout) {
				t.Errorf("post-drift execution ran on %s; advised %s, stale %s", after.Layout, advice.Layout, before.Layout)
			}
			if !after.Exact() {
				t.Error("post-drift execution not exact")
			}
			if n, _ := svc.stores.resident(); n != kept || svc.stores.materializations.Load() != 2 {
				t.Errorf("%d resident stores, %d materializations; want %d and 2", n, svc.stores.materializations.Load(), kept)
			}
		})
	}
}

// TestSlowQueryTraceShowsMaterialize: the request trace -slow-request logs
// tells a store miss from a store hit.
func TestSlowQueryTraceShowsMaterialize(t *testing.T) {
	var slow bytes.Buffer
	srv := NewServerWith(NewService(Config{}), ServerConfig{
		SlowRequest: time.Nanosecond,
		SlowLog:     log.New(&slow, "", 0),
	})
	for i, wantSpan := range []bool{true, false} {
		req := queryRequest()
		req.Selection = &SelectionSpec{Table: "events", Column: "ts", Bound: uint32(100 + i)}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		slow.Reset()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("/query %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if got := strings.Contains(slow.String(), "materialize events"); got != wantSpan {
			t.Errorf("/query %d: materialize span present = %v, want %v in\n%s", i, got, wantSpan, slow.String())
		}
	}
}
