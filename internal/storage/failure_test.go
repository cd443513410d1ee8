package storage

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/faultinject"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/vfs"
)

// failingBackend injects failures at configurable points to verify that
// the engine surfaces I/O errors instead of corrupting results.
type failingBackend struct {
	inner      Backend
	failWrite  int // fail the n-th write (1-based); 0 = never
	failRead   int // fail the n-th read (1-based); 0 = never
	writes     int
	reads      int
	closeError error
}

var errInjected = errors.New("injected I/O failure")

func (f *failingBackend) WritePage(p []byte) error {
	f.writes++
	if f.failWrite > 0 && f.writes == f.failWrite {
		return errInjected
	}
	return f.inner.WritePage(p)
}

func (f *failingBackend) ReadPage(idx int64, buf []byte) ([]byte, error) {
	f.reads++
	if f.failRead > 0 && f.reads == f.failRead {
		return nil, errInjected
	}
	return f.inner.ReadPage(idx, buf)
}

func (f *failingBackend) Resident() bool { return f.inner.Resident() }
func (f *failingBackend) Pages() int64   { return f.inner.Pages() }
func (f *failingBackend) Close() error {
	if f.closeError != nil {
		return f.closeError
	}
	return f.inner.Close()
}

func failureFixture(t *testing.T, fb func() *failingBackend) (*Engine, *schema.Table) {
	t.Helper()
	tab := schema.MustTable("t", 3_000, []schema.Column{
		{Name: "a", Kind: schema.KindInt, Size: 4},
		{Name: "b", Kind: schema.KindVarchar, Size: 24},
	})
	e, err := NewEngine(partition.Column(tab), smallDisk(), func(string, int) (Backend, error) {
		b := fb()
		b.inner = NewMemBackend(512)
		return b, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, tab
}

func TestLoadPropagatesWriteFailure(t *testing.T) {
	e, tab := failureFixture(t, func() *failingBackend { return &failingBackend{failWrite: 3} })
	defer e.Close()
	err := e.Load(NewGenerator(1), tab.Rows)
	if !errors.Is(err, errInjected) {
		t.Errorf("Load error = %v, want injected failure", err)
	}
}

func TestScanPropagatesReadFailure(t *testing.T) {
	e, tab := failureFixture(t, func() *failingBackend { return &failingBackend{failRead: 2} })
	defer e.Close()
	if err := e.Load(NewGenerator(1), tab.Rows); err != nil {
		t.Fatal(err)
	}
	_, err := e.Scan(attrset.Of(0))
	if !errors.Is(err, errInjected) {
		t.Errorf("Scan error = %v, want injected failure", err)
	}
}

func TestClosePropagatesBackendError(t *testing.T) {
	closeErr := errors.New("close failed")
	e, _ := failureFixture(t, func() *failingBackend { return &failingBackend{closeError: closeErr} })
	if err := e.Close(); !errors.Is(err, closeErr) {
		t.Errorf("Close error = %v, want %v", err, closeErr)
	}
}

func TestNewEngineRejectsBadInputs(t *testing.T) {
	tab := schema.MustTable("t", 10, []schema.Column{{Name: "a", Size: 4}})
	// Invalid disk.
	if _, err := NewEngine(partition.Row(tab), cost.Disk{}, nil); err == nil {
		t.Error("accepted zero disk")
	}
	// Invalid layout (wrong table coverage).
	bad := partition.Partitioning{Table: tab, Parts: nil}
	if _, err := NewEngine(bad, smallDisk(), nil); err == nil {
		t.Error("accepted invalid layout")
	}
	// Backend constructor failure propagates.
	boom := errors.New("no space")
	_, err := NewEngine(partition.Row(tab), smallDisk(), func(string, int) (Backend, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("constructor error = %v", err)
	}
}

func TestMemBackendBounds(t *testing.T) {
	b := NewMemBackend(64)
	if err := b.WritePage(make([]byte, 32)); err == nil {
		t.Error("accepted short page")
	}
	if err := b.WritePage(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadPage(1, nil); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range read error = %v", err)
	}
	if _, err := b.ReadPage(-1, nil); err == nil {
		t.Error("accepted negative page index")
	}
	if page, err := b.ReadPage(0, nil); err != nil || len(page) != 64 || !b.Resident() {
		t.Errorf("resident read = %d bytes, %v", len(page), err)
	}
}

func TestFileBackendBounds(t *testing.T) {
	b, err := NewFileBackend(t.TempDir(), "x", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.WritePage(make([]byte, 10)); err == nil {
		t.Error("accepted short page")
	}
	if err := b.WritePage(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := b.ReadPage(5, buf); err == nil {
		t.Error("accepted out-of-range read")
	}
	if page, err := b.ReadPage(0, buf); err != nil || &page[0] != &buf[0] || b.Resident() {
		t.Errorf("file read did not fill the caller's buffer: %v", err)
	}
	if got := b.Pages(); got != 1 {
		t.Errorf("Pages = %d", got)
	}
}

func TestFileBackendCreateFailure(t *testing.T) {
	// A directory whose parent is a regular file cannot be created.
	plain := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(plain, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileBackend(filepath.Join(plain, "sub"), "x", 64); err == nil {
		t.Error("accepted uncreatable directory")
	}
}

// injectedEngine builds an engine whose partition files live behind a
// fault-injecting filesystem: unlike failingBackend above, the scheduled
// errors come back through the whole real I/O path.
func injectedEngine(t *testing.T, faults ...faultinject.Fault) (*Engine, *schema.Table, *faultinject.Injector) {
	t.Helper()
	tab := schema.MustTable("t", 3_000, []schema.Column{
		{Name: "a", Kind: schema.KindInt, Size: 4},
		{Name: "b", Kind: schema.KindVarchar, Size: 24},
	})
	fsys, err := vfs.Dir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(fsys, faults...)
	e, err := NewEngine(partition.Column(tab), smallDisk(), func(name string, pageSize int) (Backend, error) {
		return NewFileBackendFS(inj, name, pageSize)
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, tab, inj
}

func TestFileBackendInjectedWriteFault(t *testing.T) {
	e, tab, inj := injectedEngine(t, faultinject.FailNthWrite(3))
	defer e.Close()
	if err := e.Load(NewGenerator(1), tab.Rows); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("Load error = %v, want injected fault", err)
	}
	if inj.Injected() != 1 {
		t.Errorf("injected = %d, want 1", inj.Injected())
	}
}

func TestFileBackendInjectedShortRead(t *testing.T) {
	e, tab, _ := injectedEngine(t, faultinject.ShortNthRead(2, 7))
	defer e.Close()
	if err := e.Load(NewGenerator(1), tab.Rows); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Scan(attrset.Of(0)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("Scan error = %v, want short-read failure", err)
	}
}

func TestFileBackendInjectedCrashLatches(t *testing.T) {
	fsys, err := vfs.Dir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(fsys, faultinject.CrashAtWrite(1, 0))
	b, err := NewFileBackendFS(inj, "x", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WritePage(make([]byte, 64)); err == nil {
		t.Fatal("crash-scheduled write succeeded")
	}
	// The simulated process is dead: every later operation must fail too.
	if err := b.WritePage(make([]byte, 64)); !errors.Is(err, faultinject.ErrCrashed) {
		t.Errorf("post-crash write error = %v, want ErrCrashed", err)
	}
}

// closeCounter counts Close calls on the backends NewEngine was handed.
type closeCounter struct {
	Backend
	closed *int
}

func (c closeCounter) Close() error { *c.closed++; return c.Backend.Close() }

// TestNewEngineClosesBackendsOnError: a constructor that fails at partition
// i must close the i backends it already created — on the file backend each
// is an open file no engine exists to close.
func TestNewEngineClosesBackendsOnError(t *testing.T) {
	tab := schema.MustTable("t", 10, []schema.Column{
		{Name: "a", Kind: schema.KindInt, Size: 4},
		{Name: "b", Kind: schema.KindInt, Size: 4},
		{Name: "c", Kind: schema.KindVarchar, Size: 600},
	})
	t.Run("newBackend fails", func(t *testing.T) {
		created, closed := 0, 0
		_, err := NewEngine(partition.Column(tab), cost.DefaultDisk(), func(string, int) (Backend, error) {
			if created == 2 {
				return nil, errInjected
			}
			created++
			return closeCounter{NewMemBackend(512), &closed}, nil
		})
		if !errors.Is(err, errInjected) {
			t.Fatalf("NewEngine error = %v, want injected failure", err)
		}
		if closed != created {
			t.Errorf("%d of %d created backends closed", closed, created)
		}
	})
	t.Run("buildPart fails", func(t *testing.T) {
		// Column c (600 bytes) does not fit smallDisk's 512-byte block, so
		// the third partition fails after two backends exist.
		created, closed := 0, 0
		_, err := NewEngine(partition.Column(tab), smallDisk(), func(string, int) (Backend, error) {
			created++
			return closeCounter{NewMemBackend(512), &closed}, nil
		})
		if err == nil || !strings.Contains(err.Error(), "exceeds block size") {
			t.Fatalf("NewEngine error = %v, want a row-size failure", err)
		}
		if created != 2 || closed != created {
			t.Errorf("created %d backends, closed %d; want 2 and 2", created, closed)
		}
	})
}

// TestEngineBytes: Bytes is the page bytes the loaded partitions hold.
func TestEngineBytes(t *testing.T) {
	e, tab := failureFixture(t, func() *failingBackend { return &failingBackend{} })
	defer e.Close()
	if err := e.Load(NewGenerator(1), tab.Rows); err != nil {
		t.Fatal(err)
	}
	var pages int64
	for _, p := range e.epoch.Load().parts {
		pages += p.backend.Pages()
	}
	if got, want := e.Bytes(), pages*512; got != want || got < tab.Rows*28 {
		t.Errorf("Bytes() = %d, want %d pages x 512 = %d (>= %d data bytes)", got, pages, want, tab.Rows*28)
	}
}
