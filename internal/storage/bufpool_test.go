package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// allEvictable reports whether no frame holds a pin — what "no pin
// leaked" means once every user of the pool has finished.
func allEvictable(bp *BufferPool) bool {
	bp.mu.RLock()
	defer bp.mu.RUnlock()
	for _, f := range bp.clock {
		if f.pins.Load() != 0 {
			return false
		}
	}
	return true
}

// TestMemDiskAllocatesOnFirstWrite: a page costs MemDisk nothing until
// the pool writes it back, so a table that stays resident is held once;
// an evicted page still reads back intact, and a page never written
// reads as zeros into a dirty buffer.
func TestMemDiskAllocatesOnFirstWrite(t *testing.T) {
	held := func(disk *MemDisk) (n int) {
		disk.mu.RLock()
		defer disk.mu.RUnlock()
		for _, p := range disk.pages {
			if p != nil {
				n++
			}
		}
		return n
	}
	disk := NewMemDisk()
	const pages = 64
	bp := NewBufferPool(disk, pages) // never evicts
	h, _ := NewHeapFile(bp, testSchema)
	var rids []RID
	for i := 0; disk.NumPages() < pages; i++ {
		rid, err := h.Insert(sampleRow(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if bp.Stats.Evictions.Load() != 0 || held(disk) != 0 {
		t.Fatalf("resident table: %d evictions, MemDisk holds %d of %d pages", bp.Stats.Evictions.Load(), held(disk), pages)
	}
	for i, rid := range rids {
		if row, err := h.Get(rid); err != nil || row[0].AsInt() != int64(i) {
			t.Fatalf("row %d: %v %v", i, row, err)
		}
	}

	// The same rows through a pool a quarter the size: evicted pages are
	// written (and only then allocated) and read back whole.
	disk = NewMemDisk()
	bp = NewBufferPool(disk, pages/4)
	h, _ = NewHeapFile(bp, testSchema)
	rids = rids[:0]
	for i := 0; disk.NumPages() < pages; i++ {
		rid, err := h.Insert(sampleRow(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if got := held(disk); got == 0 || got > pages {
		t.Fatalf("after forced eviction MemDisk holds %d pages", got)
	}
	for i, rid := range rids {
		if row, err := h.Get(rid); err != nil || row[0].AsInt() != int64(i) {
			t.Fatalf("evicted row %d: %v %v", i, row, err)
		}
	}

	id, err := disk.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = 0xAA
	}
	if err := disk.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("never-written page byte %d = %#x", i, b)
		}
	}
}

// TestBufferPoolSecondChance: a page touched since the hand last passed
// outlives one that was not.
func TestBufferPoolSecondChance(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 3)
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, _, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		_ = bp.Unpin(id, true)
		ids = append(ids, id)
	}
	// Admitting a fourth page sweeps every reference bit clear and evicts
	// page 0; re-touching page 1 then protects it from the next sweep.
	id3, _, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	_ = bp.Unpin(id3, true)
	if _, err := bp.Pin(ids[1]); err != nil {
		t.Fatal(err)
	}
	_ = bp.Unpin(ids[1], false)
	id4, _, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	_ = bp.Unpin(id4, true)
	bp.mu.RLock()
	kept, untouched := bp.lookup(ids[1]) != nil, bp.lookup(ids[2]) != nil
	bp.mu.RUnlock()
	if !kept || untouched {
		t.Fatalf("second chance: touched page resident=%v, untouched page resident=%v", kept, untouched)
	}
	if bp.Resident() != 3 || bp.Stats.Evictions.Load() != 2 || bp.Stats.Flushes.Load() != 2 {
		t.Fatalf("resident %d evictions %d flushes %d", bp.Resident(), bp.Stats.Evictions.Load(), bp.Stats.Flushes.Load())
	}
}

// TestBufferPoolReadFaultLeavesPoolUsable: a miss whose disk read fails
// must not leave a frame behind — neither resident, nor pinned, nor
// counted against capacity.
func TestBufferPoolReadFaultLeavesPoolUsable(t *testing.T) {
	fd := &faultDisk{inner: NewMemDisk()}
	bp := NewBufferPool(fd, 2)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, data, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		data[0] = byte(i + 1)
		_ = bp.Unpin(id, true)
		ids = append(ids, id)
	}
	fd.arm(0, 1<<30)
	for i := 0; i < 5; i++ {
		if _, err := bp.Pin(ids[0]); err == nil || !strings.Contains(err.Error(), "injected") {
			t.Fatalf("expected injected read fault, got %v", err)
		}
	}
	fd.mu.Lock()
	fd.armed = false
	fd.mu.Unlock()
	if !allEvictable(bp) || bp.Resident() > 2 {
		t.Fatalf("after failed reads: evictable=%v resident=%d", allEvictable(bp), bp.Resident())
	}
	for i, id := range ids {
		data, err := bp.Pin(id)
		if err != nil || data[0] != byte(i+1) {
			t.Fatalf("page %d after faults: %v", id, err)
		}
		_ = bp.Unpin(id, false)
	}
	if bp.Resident() != 2 {
		t.Fatalf("resident = %d", bp.Resident())
	}
}

// TestBufferPoolStorm: readers pin, read and unpin random tuples of a
// heap four times the pool while a writer inserts and updates. Every
// tuple read is whole (its columns agree with each other), the pool
// never exceeds its capacity, and after quiesce no pin is left. Run
// with -race -count=10.
func TestBufferPoolStorm(t *testing.T) {
	const frames = 16
	bp := NewBufferPool(NewMemDisk(), frames)
	h, _ := NewHeapFile(bp, testSchema)
	// gen is the row's version: every column is derived from (id, gen),
	// so a torn read shows as columns from two versions.
	mk := func(id, gen int64) Row {
		return Row{I64(id), F64(float64(id*1e6 + gen)), F64(float64(-gen)), Str(fmt.Sprintf("r%06d.%06d", id, gen)), Bool(gen%2 == 0)}
	}
	whole := func(row Row) bool {
		id := row[0].AsInt()
		gen := int64(row[1].AsFloat()) - id*1e6
		return row[2].AsFloat() == float64(-gen) && row[3].S == fmt.Sprintf("r%06d.%06d", id, gen) && row[4].B == (gen%2 == 0)
	}
	// tableMu is the table-level lock sqldb puts around a heap: writes
	// exclude reads. rids grows under it as the writer inserts.
	var tableMu sync.RWMutex
	var rids []RID
	for i := 0; bp.Disk().NumPages() < 4*frames; i++ {
		rid, err := h.Insert(mk(int64(i), 0))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			row := make(Row, len(testSchema))
			for !stop.Load() {
				tableMu.RLock()
				i := rng.Intn(len(rids))
				err := h.GetInto(rids[i], row)
				tableMu.RUnlock()
				if err != nil {
					t.Errorf("read %d: %v", i, err)
					return
				}
				if row[0].AsInt() != int64(i) || !whole(row) {
					t.Errorf("torn or wrong tuple at %d: %v", i, row)
					return
				}
				if n := bp.Resident(); n > frames {
					t.Errorf("resident %d > capacity %d", n, frames)
					return
				}
			}
		}(int64(r))
	}
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 3000 && !t.Failed(); step++ {
		tableMu.Lock()
		if step%3 == 0 {
			rid, err := h.Insert(mk(int64(len(rids)), 0))
			if err != nil {
				t.Errorf("insert: %v", err)
			}
			rids = append(rids, rid)
		} else {
			i := rng.Intn(len(rids))
			if err := h.Update(rids[i], mk(int64(i), int64(step))); err != nil {
				t.Errorf("update %d: %v", i, err)
			}
		}
		tableMu.Unlock()
	}
	stop.Store(true)
	wg.Wait()

	if !allEvictable(bp) {
		t.Fatal("a pin leaked")
	}
	if bp.Stats.Evictions.Load() == 0 || bp.Stats.Flushes.Load() == 0 {
		t.Fatalf("the storm never evicted a dirty page: %d evictions, %d flushes", bp.Stats.Evictions.Load(), bp.Stats.Flushes.Load())
	}
	// Every update went through a dirty victim's write-back or is still
	// resident: a full read-back sees whole, current-or-newer rows.
	seen := 0
	if err := h.Scan(func(_ RID, row Row) bool {
		seen++
		return whole(row)
	}); err != nil || seen != len(rids) {
		t.Fatalf("read-back: %d of %d rows whole, err %v", seen, len(rids), err)
	}

	// All frames pinned: the exhaustion error, not a hang or a steal.
	var pinned []PageID
	for p := 0; len(pinned) < frames; p++ {
		if _, err := bp.Pin(PageID(p)); err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, PageID(p))
	}
	if _, err := bp.Pin(PageID(frames)); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("all frames pinned: %v", err)
	}
	for _, id := range pinned {
		if err := bp.Unpin(id, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bp.Pin(PageID(frames)); err != nil {
		t.Fatalf("after unpinning: %v", err)
	}
	_ = bp.Unpin(PageID(frames), false)
}

// BenchmarkBufferPoolPinHit is the hit path under parallel readers: the
// working set is resident, so every iteration is one pin and one unpin.
func BenchmarkBufferPoolPinHit(b *testing.B) {
	const pages = 1024
	bp := NewBufferPool(NewMemDisk(), 2*pages)
	for i := 0; i < pages; i++ {
		id, _, err := bp.NewPage()
		if err != nil {
			b.Fatal(err)
		}
		_ = bp.Unpin(id, false)
	}
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			f, err := bp.pin(PageID(rng.Intn(pages)))
			if err != nil {
				b.Error(err)
				return
			}
			f.unpin(false)
		}
	})
}
