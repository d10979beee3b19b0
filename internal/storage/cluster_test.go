package storage

import (
	"math/rand"
	"testing"
)

// TestHeapRewriteClusters: Rewrite copies the named live tuples, in the
// given order, into a fresh heap through a one-frame pool, reports
// every new RID, and leaves the source heap as it was; a Cursor walking
// the new RIDs in order pins each page once.
func TestHeapRewriteClusters(t *testing.T) {
	src := memHeap(t, 2)
	const n = 3000
	var rids []RID
	for i := 0; i < n; i++ {
		rid, err := src.Insert(sampleRow(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	// Drop every seventh row, then ask for the rest in a random order.
	var order []RID
	var ids []int64
	for i, rid := range rids {
		if i%7 == 0 {
			if err := src.Delete(rid); err != nil {
				t.Fatal(err)
			}
			continue
		}
		order = append(order, rid)
		ids = append(ids, int64(i))
	}
	rand.New(rand.NewSource(1)).Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
		ids[i], ids[j] = ids[j], ids[i]
	})

	dst, err := src.Rewrite(NewBufferPool(NewMemDisk(), 1), order)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Count() != int64(len(order)) || src.Count() != int64(len(order)) {
		t.Fatalf("counts: rewritten %d, source %d, want %d", dst.Count(), src.Count(), len(order))
	}
	c := dst.Cursor()
	row := make(Row, len(testSchema))
	pages := int64(0)
	for i, rid := range order {
		if i == 0 || rid.Page != order[i-1].Page {
			pages++
		}
		tuple, err := c.Tuple(rid)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeRowInto(tuple, testSchema, row); err != nil {
			t.Fatal(err)
		}
		if row[0].AsInt() != ids[i] {
			t.Fatalf("new RID %v holds id %d, want %d", rid, row[0].AsInt(), ids[i])
		}
	}
	c.Close() // the pool has one frame
	if c.Pins() != pages || int(pages) != dst.bp.Disk().NumPages() {
		t.Fatalf("cursor pinned %d times over %d page runs of a %d-page heap", c.Pins(), pages, dst.bp.Disk().NumPages())
	}
	// A seq scan of the rewritten heap runs in the given order.
	i := 0
	if err := dst.Scan(func(_ RID, row Row) bool {
		if row[0].AsInt() != ids[i] {
			t.Fatalf("scan row %d: id %d, want %d", i, row[0].AsInt(), ids[i])
		}
		i++
		return true
	}); err != nil || i != len(ids) {
		t.Fatalf("scan: %d rows, %v", i, err)
	}
	// The source still answers, and the new heap still takes inserts.
	if got, err := src.Get(rids[1]); err != nil || got[0].AsInt() != 1 {
		t.Fatalf("source row 1: %v %v", got, err)
	}
	rid, err := dst.Insert(sampleRow(n))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := dst.Get(rid); err != nil || got[0].AsInt() != n {
		t.Fatalf("insert after rewrite: %v %v", got, err)
	}
}

// TestCursorSurfacesMissingTuple: a deleted slot is an error, and the
// cursor keeps working (and keeps its page) afterwards.
func TestCursorSurfacesMissingTuple(t *testing.T) {
	h := memHeap(t, 1)
	a, _ := h.Insert(sampleRow(1))
	b, _ := h.Insert(sampleRow(2))
	if err := h.Delete(a); err != nil {
		t.Fatal(err)
	}
	c := h.Cursor()
	if _, err := c.Tuple(a); err != ErrNoSuchTuple {
		t.Fatalf("deleted tuple: %v", err)
	}
	if _, err := c.Tuple(b); err != nil {
		t.Fatal(err)
	}
	if c.Pins() != 1 {
		t.Fatalf("two tuples on one page took %d pins", c.Pins())
	}
	c.Close()
	// The one frame is free again.
	if _, err := h.Insert(sampleRow(3)); err != nil {
		t.Fatal(err)
	}
}
