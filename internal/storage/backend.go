package storage

import (
	"fmt"

	"knives/internal/vfs"
)

// Backend stores the pages of one partition file. Pages are fixed-size
// blocks written once during load and read back during scans.
type Backend interface {
	// WritePage appends a page; pages are written in order.
	WritePage(page []byte) error
	// ReadPage returns page idx, read-only. A resident backend hands out its
	// own page, shared with every other reader, and ignores buf; any other
	// fills buf (at least a page long) and returns it.
	ReadPage(idx int64, buf []byte) ([]byte, error)
	// Resident reports whether ReadPage hands out backend-owned pages.
	Resident() bool
	// Pages returns the number of pages written.
	Pages() int64
	// Close releases resources.
	Close() error
}

// memBackend keeps pages in memory; the default for tests, experiments and
// the daemon's resident stores. A page is written once and never touched
// again, which is what lets ReadPage hand it out instead of copying it.
type memBackend struct {
	pages    [][]byte
	pageSize int
}

// NewMemBackend returns an in-memory page store.
func NewMemBackend(pageSize int) Backend {
	return &memBackend{pageSize: pageSize}
}

func (m *memBackend) WritePage(page []byte) error {
	if len(page) != m.pageSize {
		return fmt.Errorf("storage: page of %d bytes, want %d", len(page), m.pageSize)
	}
	cp := make([]byte, len(page))
	copy(cp, page)
	m.pages = append(m.pages, cp)
	return nil
}

func (m *memBackend) ReadPage(idx int64, _ []byte) ([]byte, error) {
	if idx < 0 || idx >= int64(len(m.pages)) {
		return nil, fmt.Errorf("storage: page %d out of range (%d pages)", idx, len(m.pages))
	}
	return m.pages[idx], nil
}

func (m *memBackend) Resident() bool { return true }
func (m *memBackend) Pages() int64   { return int64(len(m.pages)) }
func (m *memBackend) Close() error   { return nil }

// fileBackend stores pages in one file of a vfs.FS; used by integration
// tests to exercise the real I/O path and by fault-injection tests to
// exercise the failing one.
type fileBackend struct {
	f        vfs.File
	pageSize int
	n        int64
}

// NewFileBackend creates a page store backed by a file in dir.
func NewFileBackend(dir, name string, pageSize int) (Backend, error) {
	fsys, err := vfs.Dir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: create partition file: %w", err)
	}
	return NewFileBackendFS(fsys, name, pageSize)
}

// NewFileBackendFS creates a page store backed by a file of fsys — the
// injection point for degraded-disk tests: wrap the FS in a faultinject
// schedule and the engine's loads and scans hit real error returns.
func NewFileBackendFS(fsys vfs.FS, name string, pageSize int) (Backend, error) {
	f, err := fsys.Create(name + ".part")
	if err != nil {
		return nil, fmt.Errorf("storage: create partition file: %w", err)
	}
	return &fileBackend{f: f, pageSize: pageSize}, nil
}

func (b *fileBackend) WritePage(page []byte) error {
	if len(page) != b.pageSize {
		return fmt.Errorf("storage: page of %d bytes, want %d", len(page), b.pageSize)
	}
	if _, err := b.f.WriteAt(page, b.n*int64(b.pageSize)); err != nil {
		return fmt.Errorf("storage: write page %d: %w", b.n, err)
	}
	b.n++
	return nil
}

func (b *fileBackend) ReadPage(idx int64, buf []byte) ([]byte, error) {
	if idx < 0 || idx >= b.n {
		return nil, fmt.Errorf("storage: page %d out of range (%d pages)", idx, b.n)
	}
	if _, err := b.f.ReadAt(buf[:b.pageSize], idx*int64(b.pageSize)); err != nil {
		return nil, fmt.Errorf("storage: read page %d: %w", idx, err)
	}
	return buf[:b.pageSize], nil
}

func (b *fileBackend) Resident() bool { return false }
func (b *fileBackend) Pages() int64   { return b.n }
func (b *fileBackend) Close() error   { return b.f.Close() }
