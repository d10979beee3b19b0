package storage

import (
	"errors"
	"fmt"
	"sync"
)

// RID is a record identifier: page number plus slot within the page.
// RIDs are stable for the life of the record (deleted slots are never
// reused), so indexes can store them durably.
type RID struct {
	Page PageID
	Slot SlotID
}

// Pack flattens a RID into a uint64 for index payloads.
func (r RID) Pack() uint64 { return uint64(r.Page)<<16 | uint64(r.Slot) }

// UnpackRID inverts Pack.
func UnpackRID(v uint64) RID {
	return RID{Page: PageID(v >> 16), Slot: SlotID(v & 0xFFFF)}
}

func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// HeapFile is a collection of tuples stored in slotted pages obtained
// from a buffer pool. Inserts append to the last page with room; scans
// walk pages in order. Two operations serve a table clustered on an
// index:
//
//   - Rewrite copies tuples, in an order the caller gives, into a fresh
//     heap, filling each new page under one pin. A table's rows then
//     sit on disk in the order its index visits them (sqldb clusters a
//     table on its first R-tree this way).
//   - A Cursor fetches tuples by RID and pins again only when the next
//     RID is on another page, so an index scan over a clustered table
//     pins each page once per run of hits on it.
//
// A HeapFile owns a contiguous range of pages conceptually, but since
// each table gets its own DiskManager in this engine, a heap file simply
// uses every page of its pool's disk.
type HeapFile struct {
	bp     *BufferPool
	schema Schema

	mu       sync.Mutex
	lastPage PageID // last page known to have had room
	count    int64  // live tuples
}

// NewHeapFile creates a heap file over bp for rows of schema.
func NewHeapFile(bp *BufferPool, schema Schema) (*HeapFile, error) {
	h := &HeapFile{bp: bp, schema: schema, lastPage: InvalidPageID}
	return h, nil
}

// Schema returns the row schema.
func (h *HeapFile) Schema() Schema { return h.schema }

// Count returns the number of live tuples.
func (h *HeapFile) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Insert encodes row and stores it, returning its RID.
func (h *HeapFile) Insert(row Row) (RID, error) {
	buf, err := EncodeRow(nil, h.schema, row)
	if err != nil {
		return RID{}, err
	}
	return h.InsertBytes(buf)
}

// InsertBytes stores a pre-encoded tuple.
func (h *HeapFile) InsertBytes(tuple []byte) (RID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.lastPage != InvalidPageID {
		f, err := h.bp.pin(h.lastPage)
		if err != nil {
			return RID{}, err
		}
		slot, err := AsSlotted(f.data).Insert(tuple)
		f.unpin(err == nil)
		if err == nil {
			h.count++
			return RID{Page: h.lastPage, Slot: slot}, nil
		}
		if err != ErrPageFull {
			return RID{}, err
		}
	}
	id, data, err := h.bp.NewPage()
	if err != nil {
		return RID{}, err
	}
	slot, err := InitSlotted(data).Insert(tuple)
	if err != nil {
		_ = h.bp.Unpin(id, true)
		return RID{}, err
	}
	h.lastPage = id
	h.count++
	return RID{Page: id, Slot: slot}, h.bp.Unpin(id, true)
}

// Get decodes the row at rid.
func (h *HeapFile) Get(rid RID) (Row, error) {
	row := make(Row, len(h.schema))
	if err := h.GetInto(rid, row); err != nil {
		return nil, err
	}
	return row, nil
}

// GetInto decodes the row at rid into dst (len == schema arity).
func (h *HeapFile) GetInto(rid RID, dst Row) error {
	c := h.Cursor()
	defer c.Close()
	tuple, err := c.Tuple(rid)
	if err != nil {
		return err
	}
	return DecodeRowInto(tuple, h.schema, dst)
}

// Cursor fetches tuples by RID for one reader. It keeps the page of
// the last tuple it returned pinned, and pins again only when a RID is
// on another page. Close releases that pin; a Cursor is not safe for
// concurrent use.
type Cursor struct {
	h    *HeapFile
	f    *frame // pinned page, nil before the first fetch and after Close
	pins int64
}

// Cursor returns a cursor over h.
func (h *HeapFile) Cursor() Cursor { return Cursor{h: h} }

// Tuple returns the stored bytes of the tuple at rid. The slice
// aliases the pinned page: it is valid until the next Tuple or Close,
// and must not be modified.
func (c *Cursor) Tuple(rid RID) ([]byte, error) {
	if c.f == nil || c.f.id != rid.Page {
		// Unpin first: a pool of one frame must serve a cursor too.
		c.Close()
		f, err := c.h.bp.pin(rid.Page)
		if err != nil {
			return nil, err
		}
		c.f = f
		c.pins++
	}
	return AsSlotted(c.f.data).Get(rid.Slot)
}

// Pins returns the number of page pins the cursor has taken.
func (c *Cursor) Pins() int64 { return c.pins }

// Close releases the cursor's pin. The cursor stays usable.
func (c *Cursor) Close() {
	if c.f != nil {
		c.f.unpin(false)
		c.f = nil
	}
}

// Rewrite copies the tuples at rids, in that order, into a new heap
// file over bp (which should start empty) and overwrites each rids[i]
// with its tuple's new RID. Tuples not named are left behind. Pages
// are filled directly, each pinned once while it fills; reads go
// through a Cursor, so a run of RIDs on one source page costs one pin.
// h is left as it was.
func (h *HeapFile) Rewrite(bp *BufferPool, rids []RID) (*HeapFile, error) {
	out := &HeapFile{bp: bp, schema: h.schema, lastPage: InvalidPageID}
	src := h.Cursor()
	defer src.Close()
	var page *SlottedPage
	flush := func() error {
		if page == nil {
			return nil
		}
		page = nil
		return bp.Unpin(out.lastPage, true)
	}
	for i, rid := range rids {
		tuple, err := src.Tuple(rid)
		if err != nil {
			return nil, errors.Join(err, flush())
		}
		slot, err := SlotID(0), ErrPageFull
		if page != nil {
			slot, err = page.Insert(tuple)
		}
		if err == ErrPageFull {
			if err := flush(); err != nil {
				return nil, err
			}
			id, data, nerr := bp.NewPage()
			if nerr != nil {
				return nil, nerr
			}
			out.lastPage, page = id, InitSlotted(data)
			slot, err = page.Insert(tuple)
		}
		if err != nil {
			return nil, errors.Join(err, flush())
		}
		rids[i] = RID{Page: out.lastPage, Slot: slot}
	}
	out.count = int64(len(rids))
	return out, flush()
}

// Delete removes the tuple at rid.
func (h *HeapFile) Delete(rid RID) error {
	f, err := h.bp.pin(rid.Page)
	if err != nil {
		return err
	}
	err = AsSlotted(f.data).Delete(rid.Slot)
	f.unpin(err == nil)
	if err == nil {
		h.mu.Lock()
		h.count--
		h.mu.Unlock()
	}
	return err
}

// Update replaces the tuple at rid with row. The row must still fit in
// the page (same-page update); this engine's fixed-width-dominated rows
// make that the common case. ErrPageFull otherwise.
func (h *HeapFile) Update(rid RID, row Row) error {
	buf, err := EncodeRow(nil, h.schema, row)
	if err != nil {
		return err
	}
	f, err := h.bp.pin(rid.Page)
	if err != nil {
		return err
	}
	err = AsSlotted(f.data).Update(rid.Slot, buf)
	f.unpin(err == nil)
	return err
}

// Scan calls fn for every live tuple in RID order. The row passed to fn
// is reused between calls; copy it to retain. Returning false stops.
func (h *HeapFile) Scan(fn func(rid RID, row Row) bool) error {
	row := make(Row, len(h.schema))
	err := h.ScanTuples(func(rid RID, tuple []byte) error {
		if err := DecodeRowInto(tuple, h.schema, row); err != nil {
			return err
		}
		if !fn(rid, row) {
			return errStopScan
		}
		return nil
	})
	if err == errStopScan {
		return nil
	}
	return err
}

var errStopScan = errors.New("storage: scan stopped")

// ScanTuples calls fn with the stored bytes of every live tuple in RID
// order, one pinned page at a time; the first error fn returns ends the
// scan and is returned. The slice aliases the page buffer, as in View.
func (h *HeapFile) ScanTuples(fn func(rid RID, tuple []byte) error) error {
	n := h.bp.Disk().NumPages()
	for p := 0; p < n; p++ {
		id := PageID(p)
		f, err := h.bp.pin(id)
		if err != nil {
			return err
		}
		AsSlotted(f.data).ForEach(func(slot SlotID, tuple []byte) bool {
			err = fn(RID{Page: id, Slot: slot}, tuple)
			return err == nil
		})
		f.unpin(false)
		if err != nil {
			return err
		}
	}
	return nil
}
