package storage

import (
	"fmt"
	"os"
	"sync"
)

// DiskManager abstracts page-granular persistent storage. Implementations
// must be safe for concurrent use.
type DiskManager interface {
	// ReadPage fills buf (PageSize bytes) with the page's contents.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf (PageSize bytes) as the page's contents.
	WritePage(id PageID, buf []byte) error
	// AllocatePage reserves a fresh zeroed page and returns its id.
	AllocatePage() (PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Close releases resources; the manager is unusable afterwards.
	Close() error
}

// MemDisk is an in-memory DiskManager: the default for experiments,
// standing in for a warmed OS page cache. A page's bytes are allocated
// by its first WritePage: a table whose pages all stay resident in the
// buffer pool is never written back, so it is held once, not twice.
type MemDisk struct {
	mu    sync.RWMutex
	pages [][]byte // nil: allocated but never written, reads as zeros
}

// NewMemDisk returns an empty in-memory disk.
func NewMemDisk() *MemDisk { return &MemDisk{} }

// ReadPage implements DiskManager.
func (d *MemDisk) ReadPage(id PageID, buf []byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	if d.pages[id] == nil {
		clear(buf[:PageSize])
		return nil
	}
	copy(buf, d.pages[id])
	return nil
}

// WritePage implements DiskManager.
func (d *MemDisk) WritePage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	if d.pages[id] == nil {
		d.pages[id] = make([]byte, PageSize)
	}
	copy(d.pages[id], buf)
	return nil
}

// AllocatePage implements DiskManager.
func (d *MemDisk) AllocatePage() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages = append(d.pages, nil)
	return PageID(len(d.pages) - 1), nil
}

// NumPages implements DiskManager.
func (d *MemDisk) NumPages() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.pages)
}

// Close implements DiskManager.
func (d *MemDisk) Close() error { return nil }

// FileDisk is a file-backed DiskManager storing pages contiguously.
type FileDisk struct {
	mu   sync.Mutex
	f    *os.File
	next PageID
}

// OpenFileDisk opens (or creates) the page file at path. Existing pages
// are preserved; the page count is derived from the file length.
func OpenFileDisk(path string) (*FileDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open page file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat page file: %w", err)
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: page file %s has torn length %d", path, st.Size())
	}
	return &FileDisk{f: f, next: PageID(st.Size() / PageSize)}, nil
}

// ReadPage implements DiskManager.
func (d *FileDisk) ReadPage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id >= d.next {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	_, err := d.f.ReadAt(buf[:PageSize], int64(id)*PageSize)
	if err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	return nil
}

// WritePage implements DiskManager.
func (d *FileDisk) WritePage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id >= d.next {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	if _, err := d.f.WriteAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// AllocatePage implements DiskManager.
func (d *FileDisk) AllocatePage() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.next
	zero := make([]byte, PageSize)
	if _, err := d.f.WriteAt(zero, int64(id)*PageSize); err != nil {
		return 0, fmt.Errorf("storage: allocate page %d: %w", id, err)
	}
	d.next++
	return id, nil
}

// NumPages implements DiskManager.
func (d *FileDisk) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int(d.next)
}

// Sync flushes the file to stable storage.
func (d *FileDisk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f.Sync()
}

// Close implements DiskManager.
func (d *FileDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f.Close()
}
