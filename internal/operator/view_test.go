package operator

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/faultinject"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/storage"
	"knives/internal/vfs"
)

// Tests of what zero-copy batches newly put at stake: the store's pages are
// handed to operators and callbacks (are they ever written?), a batch is a
// list of page references (does anything still buffer rows?), and a leaf's
// batch spans several fetches (does a failed one leak a partial result?).

// TestScanLeavesStoreUntouched: vector pipelines read the resident store's
// own pages; nothing may write through them. Every page of every backend the
// engine ever created is hashed, then vector pipelines — with and without σ,
// through RunFunc callbacks that read every projected byte — run
// concurrently with each other and with a Repartition, then every page is
// hashed again. Run it under -race: a write through a view is a data race
// with the other readers long before it is a hash mismatch.
func TestScanLeavesStoreUntouched(t *testing.T) {
	const rows = 2000
	dev := testDevice()
	tbl := testTable(t, rows)
	layout, err := partition.New(tbl, testLayouts["grouped"])
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var backends []storage.Backend
	e, err := storage.NewEngine(layout, dev, func(_ string, pageSize int) (storage.Backend, error) {
		b := storage.NewMemBackend(pageSize)
		mu.Lock()
		backends = append(backends, b)
		mu.Unlock()
		return b, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Load(storage.NewGenerator(11), rows); err != nil {
		t.Fatal(err)
	}
	// hashStore digests every page of the first n backends, in order.
	hashStore := func(n int) uint64 {
		h := fnv.New64a()
		for _, b := range backends[:n] {
			for i := int64(0); i < b.Pages(); i++ {
				page, err := b.ReadPage(i, nil)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(page)
			}
		}
		return h.Sum64()
	}
	loaded := len(backends)
	before := hashStore(loaded)

	queries := []attrset.Set{attrset.Of(0, 1, 5), attrset.All(6), attrset.Of(3)}
	pred := U32Less(1, storage.DateDomain/2)
	preds := []*Pred{nil, &pred}
	want := map[string]Result{}
	for qi, q := range queries {
		for pi, p := range preds {
			pipe, err := buildRow(e.Snapshot(), dev, q, p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pipe.Run()
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprint(qi, pi)] = res
		}
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		to, err := partition.New(tbl, testLayouts["column"])
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := e.Repartition(to, 2); err != nil {
			t.Error(err)
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for it := 0; it < 6; it++ {
				qi, pi := (g+it)%len(queries), it%len(preds)
				// A fresh snapshot per run: before, during or after the swap.
				pipe, err := BuildExec(e.Snapshot(), dev, queries[qi], preds[pi],
					ExecOptions{BatchSize: 7 + 50*g})
				if err != nil {
					t.Error(err)
					return
				}
				var sum uint64
				res, err := pipe.RunFunc(func(r *Row) error {
					for _, a := range queries[qi].Attrs() {
						for _, c := range r.Col(a) {
							sum += uint64(c)
						}
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if w := want[fmt.Sprint(qi, pi)]; res.Rows != w.Rows || res.Checksum != w.Checksum {
					t.Errorf("q%d p%d: rows/checksum %d/%x, want %d/%x", qi, pi, res.Rows, res.Checksum, w.Rows, w.Checksum)
				}
				_ = sum
			}
		}(g)
	}
	close(start)
	wg.Wait()

	if len(backends) == loaded {
		t.Fatal("the repartition created no backends: nothing ran beside the scans")
	}
	if after := hashStore(loaded); after != before {
		t.Errorf("store pages changed under read-only pipelines: %x -> %x", before, after)
	}
}

// TestVectorReadFaultNoPartialResult: on the file backend a leaf's batch is
// several page reads into the cursor's ring; the nth of them failing must
// surface from Run as the injected error — never as a short batch. The
// callback sees whole batches only, every one before the failing batch, and
// the Result carries no checksum, stats or operators.
func TestVectorReadFaultNoPartialResult(t *testing.T) {
	const rows, batch = 300, 16
	dev := testDevice()
	tbl := testTable(t, rows)
	layout, err := partition.New(tbl, testLayouts["grouped"])
	if err != nil {
		t.Fatal(err)
	}
	q := attrset.Of(0, 1, 3)
	run := func(t *testing.T, failRead int64) (Result, int, error) {
		fsys, err := vfs.Dir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var faults []faultinject.Fault
		if failRead > 0 {
			faults = append(faults, faultinject.Fault{Op: faultinject.OpRead, N: failRead, Kind: faultinject.KindFail})
		}
		inj := faultinject.New(fsys, faults...)
		e, err := storage.NewEngine(layout, dev, func(name string, pageSize int) (storage.Backend, error) {
			return storage.NewFileBackendFS(inj, name, pageSize)
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.Load(storage.NewGenerator(5), rows); err != nil {
			t.Fatal(err)
		}
		pipe, err := BuildExec(e.Snapshot(), dev, q, nil, ExecOptions{BatchSize: batch})
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		res, err := pipe.RunFunc(func(*Row) error { seen++; return nil })
		return res, seen, err
	}

	clean, seen, err := run(t, 0)
	if err != nil || seen != rows || clean.Rows != rows {
		t.Fatalf("fault-free file run: %d rows seen, result %+v, %v", seen, clean, err)
	}
	reads := clean.Stats.BytesRead / dev.BlockSize
	for _, n := range []int64{1, 2, 5, 17, reads / 2, reads} {
		t.Run(fmt.Sprintf("read%d", n), func(t *testing.T) {
			res, seen, err := run(t, n)
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("Run error = %v, want the injected read fault", err)
			}
			if seen%batch != 0 || seen >= rows || int64(seen) != res.Rows {
				t.Errorf("callback saw %d rows (result says %d): want whole %d-row batches short of %d", seen, res.Rows, batch, rows)
			}
			if res.Checksum != 0 || len(res.Ops) != 0 || len(res.Stats.Parts) != 0 || res.Stats.BytesRead != 0 {
				t.Errorf("failed run leaked a partial result: %+v", res)
			}
		})
	}
}

// TestVectorScanDoesNotBufferRows is the machine-independent form of "the
// vector scan copies nothing": a pipeline's allocation must not scale with
// BatchSize × rowSize. One build+run at BatchSize 1024 and one at 65536
// (here: the whole table in one batch) may differ by what legitimately grows
// with the batch — the σ leaf's selection vector (4 bytes per slot) and the
// leaves' run lists (one descriptor per page, times 4 for everything append
// allocates on the way to that length) — and by nothing else: π keeps one
// running total per column, whatever the batch size. The column buffers
// this replaced would add the table's size on top.
func TestVectorScanDoesNotBufferRows(t *testing.T) {
	const rows = 20_000
	tbl, err := schema.NewTable("wide", rows, []schema.Column{
		{Name: "k", Kind: schema.KindInt, Size: 4},
		{Name: "d", Kind: schema.KindDate, Size: 4},
		{Name: "p", Kind: schema.KindDecimal, Size: 8},
		{Name: "c1", Kind: schema.KindChar, Size: 40},
		{Name: "c2", Kind: schema.KindVarchar, Size: 60},
		{Name: "c3", Kind: schema.KindChar, Size: 25},
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := cost.DefaultDisk() // 8 KiB pages, as served
	e := loadEngine(t, tbl, []attrset.Set{attrset.Of(0, 3), attrset.Of(1, 2), attrset.Of(4, 5)}, dev, 3)
	snap := e.Snapshot()
	q := attrset.All(6)
	pred := U32Less(1, storage.DateDomain/2)

	var checksum uint64
	measure := func(batch int) int64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		pipe, err := BuildExec(snap, dev, q, &pred, ExecOptions{BatchSize: batch})
		if err != nil {
			t.Fatal(err)
		}
		res, err := pipe.Run()
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		checksum = res.Checksum
		return int64(m1.TotalAlloc - m0.TotalAlloc)
	}
	// The least of three: anything else allocating in the process (the test
	// framework, a GC worker) only ever adds.
	least := func(batch int) int64 {
		m := measure(batch)
		for i := 0; i < 2; i++ {
			m = min(m, measure(batch))
		}
		return m
	}
	small := least(DefaultBatchSize)
	smallSum := checksum
	big := least(MaxBatchSize)
	if checksum != smallSum {
		t.Fatalf("checksum depends on batch size: %x vs %x", checksum, smallSum)
	}

	var rowBytes int64
	for i := 0; i < snap.NumParts(); i++ {
		rowBytes += int64(snap.PartRowSize(i))
	}
	pages := e.Bytes() / dev.BlockSize
	allowance := int64(4*rows) + 4*int64(unsafe.Sizeof(run{}))*pages
	t.Logf("TotalAlloc: batch %d: %d B, batch %d: %d B; allowance for sel + runs %d B; buffering the rows would be %d B",
		DefaultBatchSize, small, MaxBatchSize, big, allowance, rows*rowBytes)
	if big-small > allowance {
		t.Errorf("a %d-row batch allocated %d B more than a %d-row one; only %d B (selection vector + run lists) is accounted for",
			MaxBatchSize, big-small, DefaultBatchSize, allowance)
	}
	if allowance*4 > rows*rowBytes {
		t.Fatalf("test is too small to tell: allowance %d vs table %d bytes", allowance, rows*rowBytes)
	}
}
