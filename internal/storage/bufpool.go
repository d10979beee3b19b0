package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The buffer pool caches pages of one DiskManager in at most cap frames.
//
// Hit path. Pinning a resident page takes the page table's shared lock,
// does one look-up (the table is a slice indexed by page id: a disk's
// ids are dense), increments the frame's atomic pin count, sets
// its reference bit and returns the frame; unpinning is an atomic
// decrement on the frame the caller already holds. No exclusive lock,
// no allocation, no second look-up — any number of readers pin
// resident pages in parallel.
//
// Miss path. A miss, a new page and FlushAll take the lock exclusively.
// Because pin counts only rise under the shared lock, a frame the
// exclusive holder sees at zero pins stays there until the lock is
// released, which is what makes it safe to pick as a victim and to
// reuse its buffer.
//
// Replacement is second chance (clock): the hand sweeps the resident
// frames, skips pinned ones, clears a set reference bit and evicts the
// first unpinned frame whose bit was already clear — a page touched
// since the hand last passed survives one more sweep. A dirty victim is
// written back before its frame is reused; if that write fails the
// victim stays resident and the error surfaces to the caller. When
// every frame is pinned the pool reports exhaustion.

// BufPoolStats counts buffer-pool activity for the experiment reports.
type BufPoolStats struct {
	Hits      atomic.Int64
	Misses    atomic.Int64
	Evictions atomic.Int64
	Flushes   atomic.Int64
}

// frame is one resident page. id and data change only under the pool's
// exclusive lock while the frame is unpinned.
type frame struct {
	id    PageID
	data  []byte
	pins  atomic.Int32
	ref   atomic.Bool // touched since the clock hand last passed
	dirty atomic.Bool
}

// unpin releases one pin taken by BufferPool.pin. The dirty mark is
// stored before the pin is dropped, so whoever sees the frame unpinned
// also sees that it must be written back.
func (f *frame) unpin(dirty bool) {
	if dirty {
		f.dirty.Store(true)
	}
	f.pins.Add(-1)
}

// BufferPool caches pages from a DiskManager with pin counts and
// second-chance eviction. All methods are safe for concurrent use; a
// pinned page's buffer is stable until it is unpinned.
type BufferPool struct {
	disk DiskManager

	mu    sync.RWMutex
	table []*frame // by page id; nil: not resident
	clock []*frame // the resident frames, in the order the hand visits them
	hand  int
	cap   int

	Stats BufPoolStats
}

// NewBufferPool creates a pool holding up to capacity pages of disk.
func NewBufferPool(disk DiskManager, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferPool{disk: disk, cap: capacity}
}

// lookup returns page id's frame, nil when it is not resident. Caller
// holds bp.mu.
func (bp *BufferPool) lookup(id PageID) *frame {
	if int(id) < len(bp.table) {
		return bp.table[id]
	}
	return nil
}

// install enters f, which holds page id, into the page table. Caller
// holds bp.mu exclusively; the disk has vouched for id by allocating or
// reading it, so the table grows no further than the disk has pages.
func (bp *BufferPool) install(f *frame) {
	if n := int(f.id) + 1 - len(bp.table); n > 0 {
		bp.table = append(bp.table, make([]*frame, n)...)
	}
	bp.table[f.id] = f
}

// Disk exposes the underlying disk manager (for allocation).
func (bp *BufferPool) Disk() DiskManager { return bp.disk }

// NewPage allocates a fresh zeroed page on disk and returns it pinned.
func (bp *BufferPool) NewPage() (PageID, []byte, error) {
	id, err := bp.disk.AllocatePage()
	if err != nil {
		return 0, nil, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, err := bp.admitLocked(id)
	if err != nil {
		return 0, nil, err
	}
	clear(f.data)
	f.dirty.Store(true)
	bp.install(f)
	return id, f.data, nil
}

// Pin fetches the page into the pool (reading from disk on a miss) and
// returns its buffer with the pin count incremented.
func (bp *BufferPool) Pin(id PageID) ([]byte, error) {
	f, err := bp.pin(id)
	if err != nil {
		return nil, err
	}
	return f.data, nil
}

// Unpin releases one pin on page id. dirty marks the page as modified
// so eviction writes it back.
func (bp *BufferPool) Unpin(id PageID, dirty bool) error {
	bp.mu.RLock()
	defer bp.mu.RUnlock()
	f := bp.lookup(id)
	if f == nil || f.pins.Load() == 0 {
		return fmt.Errorf("storage: unpin of unpinned page %d", id)
	}
	f.unpin(dirty)
	return nil
}

// pin is Pin returning the frame itself, so the caller can unpin
// without another page-table look-up.
func (bp *BufferPool) pin(id PageID) (*frame, error) {
	bp.mu.RLock()
	f := bp.lookup(id)
	if f != nil {
		f.pins.Add(1)
	}
	bp.mu.RUnlock()
	if f != nil {
		// Load first: a hot page's bit is already set, and a plain read
		// keeps its cache line shared between cores.
		if !f.ref.Load() {
			f.ref.Store(true)
		}
		bp.Stats.Hits.Add(1)
		return f, nil
	}

	bp.mu.Lock()
	defer bp.mu.Unlock()
	// Another goroutine may have read the page in while this one waited.
	if f := bp.lookup(id); f != nil {
		f.pins.Add(1)
		f.ref.Store(true)
		bp.Stats.Hits.Add(1)
		return f, nil
	}
	bp.Stats.Misses.Add(1)
	f, err := bp.admitLocked(id)
	if err != nil {
		return nil, err
	}
	if err := bp.disk.ReadPage(id, f.data); err != nil {
		bp.dropLocked(f)
		return nil, err
	}
	bp.install(f)
	return f, nil
}

// admitLocked returns a frame for page id — pinned once, clean,
// referenced, on the clock but not yet in the page table, its buffer
// holding arbitrary bytes — evicting a resident page when the pool is
// full. Caller holds bp.mu exclusively.
func (bp *BufferPool) admitLocked(id PageID) (*frame, error) {
	var f *frame
	if len(bp.clock) < bp.cap {
		f = &frame{data: make([]byte, PageSize)}
		bp.clock = append(bp.clock, f)
	} else {
		var err error
		if f, err = bp.evictLocked(); err != nil {
			return nil, err
		}
	}
	f.id = id
	f.pins.Store(1)
	f.ref.Store(true)
	f.dirty.Store(false)
	return f, nil
}

// evictLocked picks a victim by second chance, writes it back if dirty
// and removes it from the page table; its frame stays on the clock for
// the caller to reuse. Two sweeps suffice: the first clears every
// reference bit it passes, so the second stops at the first unpinned
// frame. Caller holds bp.mu exclusively.
func (bp *BufferPool) evictLocked() (*frame, error) {
	for n := 2 * len(bp.clock); n > 0; n-- {
		f := bp.clock[bp.hand]
		bp.hand = (bp.hand + 1) % len(bp.clock)
		if f.pins.Load() > 0 {
			continue
		}
		if f.ref.Load() {
			f.ref.Store(false)
			continue
		}
		if f.dirty.Load() {
			if err := bp.disk.WritePage(f.id, f.data); err != nil {
				return nil, fmt.Errorf("storage: evicting page %d: %w", f.id, err)
			}
			bp.Stats.Flushes.Add(1)
		}
		bp.table[f.id] = nil
		bp.Stats.Evictions.Add(1)
		return f, nil
	}
	return nil, fmt.Errorf("storage: buffer pool exhausted (%d pages all pinned)", bp.cap)
}

// dropLocked takes an admitted frame whose page could not be read off
// the clock again. Caller holds bp.mu exclusively.
func (bp *BufferPool) dropLocked(f *frame) {
	last := len(bp.clock) - 1
	for i, g := range bp.clock {
		if g == f {
			bp.clock[i] = bp.clock[last]
			break
		}
	}
	bp.clock[last] = nil
	bp.clock = bp.clock[:last]
	if bp.hand >= last {
		bp.hand = 0
	}
}

// FlushAll writes every dirty resident page back to disk. Pages remain
// cached. Used at load-boundary checkpoints.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, f := range bp.clock {
		if f.dirty.Load() {
			if err := bp.disk.WritePage(f.id, f.data); err != nil {
				return err
			}
			f.dirty.Store(false)
			bp.Stats.Flushes.Add(1)
		}
	}
	return nil
}

// Resident returns the number of pages currently cached.
func (bp *BufferPool) Resident() int {
	bp.mu.RLock()
	defer bp.mu.RUnlock()
	return len(bp.clock)
}
