package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

func testOptions(t *testing.T) Options {
	t.Helper()
	return Options{
		Path:            filepath.Join(t.TempDir(), "l2"),
		MaxBytes:        1 << 20,
		SegmentBytes:    64 << 10,
		WriteQueueDepth: 256,
		FlushInterval:   5 * time.Millisecond,
	}
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestPutGetFlush(t *testing.T) {
	s := mustOpen(t, testOptions(t))
	defer s.Close()

	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get on empty store returned a hit")
	}
	val := []byte("tile payload \x00\xff binary ok")
	if !s.Put("t/0/0/0", val) {
		t.Fatal("Put dropped on an empty queue")
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, ok := s.Get("t/0/0/0")
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, %v; want %q", got, ok, val)
	}
	// Last write wins.
	if !s.Put("t/0/0/0", []byte("v2")) {
		t.Fatal("overwrite dropped")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("t/0/0/0"); !ok || string(got) != "v2" {
		t.Fatalf("overwrite: got %q, %v", got, ok)
	}
	snap := s.Snapshot()
	if snap.Puts != 2 || snap.Hits != 2 || snap.Misses != 1 || snap.Keys != 1 {
		t.Fatalf("stats: %+v", snap)
	}
}

func TestPutBufferNotAliased(t *testing.T) {
	s := mustOpen(t, testOptions(t))
	defer s.Close()
	buf := []byte("original")
	s.Put("k", buf)
	copy(buf, "CLOBBER!")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get("k"); string(got) != "original" {
		t.Fatalf("flusher read caller-mutated buffer: %q", got)
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	opts := testOptions(t)
	s := mustOpen(t, opts)
	want := map[string][]byte{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("tile/%d", i)
		v := bytes.Repeat([]byte{byte(i)}, 100+i)
		want[k] = v
		if !s.Put(k, v) {
			t.Fatalf("Put %s dropped", k)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, opts)
	defer s2.Close()
	if s2.Len() != len(want) {
		t.Fatalf("reopen index size = %d, want %d", s2.Len(), len(want))
	}
	for k, v := range want {
		got, ok := s2.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("after reopen, Get(%s) = %v, %v", k, got, ok)
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	opts := testOptions(t)
	opts.SegmentBytes = 4 << 10 // force many rotations
	s := mustOpen(t, opts)
	defer s.Close()
	for i := 0; i < 100; i++ {
		s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte("x"), 512))
		if i%10 == 0 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Segments < 2 {
		t.Fatalf("expected rotation, got %d segments", snap.Segments)
	}
	for i := 0; i < 100; i++ {
		if _, ok := s.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d lost across rotation", i)
		}
	}
}

func TestEvictionStaysUnderBudgetAndSalvages(t *testing.T) {
	opts := testOptions(t)
	opts.MaxBytes = 64 << 10
	opts.SegmentBytes = 8 << 10
	s := mustOpen(t, opts)
	defer s.Close()

	// Ten tiny long-lived keys written once up front, then heavy churn
	// over a small cycling key set. Churn records are overwritten by
	// later copies, so evicted segments are mostly garbage and the
	// salvage budget comfortably covers the early keys: they must be
	// carried forward segment to segment, never lost.
	early := map[string][]byte{}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("early/%d", i)
		v := bytes.Repeat([]byte{byte(i + 1)}, 40)
		early[k] = v
		s.Put(k, v)
	}
	for i := 0; i < 1000; i++ {
		s.Put(fmt.Sprintf("cold/%d", i%40), bytes.Repeat([]byte("z"), 400))
		if i%5 == 0 {
			// Small batches so a batch never overshoots the budget by
			// more than a segment (which would zero the salvage budget).
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Evictions == 0 {
		t.Fatal("expected evictions")
	}
	if snap.Bytes > opts.MaxBytes+opts.SegmentBytes {
		t.Fatalf("store grew past budget: %d bytes (budget %d)", snap.Bytes, opts.MaxBytes)
	}
	if snap.Salvaged == 0 {
		t.Fatal("expected live records to be salvaged during eviction")
	}
	for k, v := range early {
		if got, ok := s.Get(k); !ok || !bytes.Equal(got, v) {
			t.Fatalf("early key %s lost to eviction: %v, %v (salvaged=%d evictedLive=%d)",
				k, got, ok, snap.Salvaged, snap.EvictedLive)
		}
	}
	// Integrity invariant regardless of retention: every key the index
	// still claims is readable with correct framing.
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("cold/%d", i)
		if got, ok := s.Get(k); ok {
			for _, b := range got {
				if b != 'z' {
					t.Fatalf("cold key %s served corrupt bytes", k)
				}
			}
		}
	}
}

func TestOversizeDropped(t *testing.T) {
	opts := testOptions(t)
	opts.SegmentBytes = 4 << 10
	s := mustOpen(t, opts)
	defer s.Close()
	if s.Put("huge", make([]byte, 8<<10)) {
		t.Fatal("oversize Put accepted")
	}
	if s.Snapshot().DroppedOversize != 1 {
		t.Fatal("DroppedOversize not counted")
	}
}

func TestQueueFullDropsNotBlocks(t *testing.T) {
	opts := testOptions(t)
	opts.WriteQueueDepth = 4
	opts.FlushInterval = time.Hour // flusher effectively idle between batches
	s := mustOpen(t, opts)
	defer s.Close()

	dropped := 0
	deadline := time.Now().Add(2 * time.Second)
	for i := 0; dropped == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("never observed a dropped fill with a full queue")
		}
		if !s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte("y"), 64)) {
			dropped++
		}
	}
	if s.Snapshot().DroppedFull == 0 {
		t.Fatal("DroppedFull not counted")
	}
}

func TestBumpInvalidates(t *testing.T) {
	opts := testOptions(t)
	s := mustOpen(t, opts)
	s.Put("a", []byte("1"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	gen, err := s.Bump()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("gen = %d, want 1", gen)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("record visible after Bump")
	}
	// New-generation writes are visible.
	s.Put("a", []byte("2"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("a"); !ok || string(got) != "2" {
		t.Fatalf("post-bump write: %q, %v", got, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Invalidation survives restart: replay must not resurrect "1".
	s2 := mustOpen(t, opts)
	defer s2.Close()
	if s2.Generation() != 1 {
		t.Fatalf("reopen generation = %d, want 1", s2.Generation())
	}
	if got, ok := s2.Get("a"); !ok || string(got) != "2" {
		t.Fatalf("after reopen: %q, %v", got, ok)
	}
}

// TestGenerationSurvivesEvictedMarker: once the segment holding Bump's
// marker is evicted, a reopen still replays at the bumped generation,
// so the puts that outlived the eviction are served. Before every new
// segment started with the current marker, the reopened store fell back
// to generation 0 and skipped every one of them.
func TestGenerationSurvivesEvictedMarker(t *testing.T) {
	opts := Options{
		Path:            filepath.Join(t.TempDir(), "l2"),
		MaxBytes:        2048,
		SegmentBytes:    512,
		WriteQueueDepth: 64,
		FlushInterval:   time.Hour,
	}
	s := mustOpen(t, opts)
	if _, err := s.Bump(); err != nil {
		t.Fatal(err)
	}
	for i := range 40 {
		key := fmt.Sprintf("k%d", i%8)
		s.Put(key, bytes.Repeat([]byte{byte('a' + i%8)}, 150))
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Snapshot()
	if before.Generation != 1 || before.Keys == 0 || before.Evictions == 0 {
		t.Fatalf("before close: generation %d, %d keys, %d evictions: want generation 1, keys and evictions",
			before.Generation, before.Keys, before.Evictions)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, opts)
	defer s.Close()
	after := s.Snapshot()
	if after.Generation != before.Generation || after.Keys != before.Keys {
		t.Fatalf("after reopen: generation %d, %d keys; before close: generation %d, %d keys",
			after.Generation, after.Keys, before.Generation, before.Keys)
	}
	for i := range 8 {
		key := fmt.Sprintf("k%d", i)
		if got, ok := s.Get(key); ok && !bytes.Equal(got, bytes.Repeat([]byte{byte('a' + i)}, 150)) {
			t.Fatalf("Get(%s) = %.20q…, not the value written to it", key, got)
		}
	}
}

func TestStaleGenerationFillDropped(t *testing.T) {
	opts := testOptions(t)
	opts.FlushInterval = time.Hour // hold fills in the queue
	s := mustOpen(t, opts)
	defer s.Close()

	s.Put("stale", []byte("old-gen payload")) // enqueued under fence 0
	if _, err := s.Bump(); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil { // flush processes the fence-0 fill under fence 1
		t.Fatal(err)
	}
	if _, ok := s.Get("stale"); ok {
		t.Fatal("stale-generation fill was written and served")
	}
	if s.Snapshot().DroppedStale != 1 {
		t.Fatalf("DroppedStale = %d, want 1", s.Snapshot().DroppedStale)
	}
}

// TestFailedAppendCountsWriteError: a fill whose disk append fails is a
// write error, not a fence race, and is not served.
func TestFailedAppendCountsWriteError(t *testing.T) {
	opts := testOptions(t)
	opts.FlushInterval = time.Hour // only Flush appends
	s := mustOpen(t, opts)
	defer s.Close()

	s.mu.Lock()
	active := s.segs[len(s.segs)-1]
	if err := active.log.Close(); err != nil { // every append to it now fails
		t.Fatal(err)
	}
	s.mu.Unlock()
	if !s.Put("k", []byte("payload")) {
		t.Fatal("fill not enqueued")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.WriteErrors != 1 || snap.DroppedStale != 0 || snap.Puts != 0 {
		t.Fatalf("WriteErrors = %d, DroppedStale = %d, Puts = %d; want 1, 0, 0", snap.WriteErrors, snap.DroppedStale, snap.Puts)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("a fill whose append failed was served")
	}
}

func TestCloseDrainsQueue(t *testing.T) {
	opts := testOptions(t)
	opts.FlushInterval = time.Hour // nothing flushes except via drain
	s := mustOpen(t, opts)
	// Enqueue and immediately Close, without Flush: the Close-drain
	// contract says this fill must still land on disk.
	if !s.Put("last-second", []byte("fill enqueued just before Close")) {
		t.Fatal("Put dropped")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, opts)
	defer s2.Close()
	got, ok := s2.Get("last-second")
	if !ok || string(got) != "fill enqueued just before Close" {
		t.Fatalf("fill lost across Close: %q, %v", got, ok)
	}
}

func TestCloseIdempotentAndPutAfterClose(t *testing.T) {
	s := mustOpen(t, testOptions(t))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Put("k", []byte("v")) {
		t.Fatal("Put accepted after Close")
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("Get hit after Close")
	}
	if err := s.Flush(); err != ErrClosed {
		t.Fatalf("Flush after Close = %v, want ErrClosed", err)
	}
}

func TestOpenRequiresPath(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without Path succeeded")
	}
}

// TestInvalidateScoped: Invalidate removes exactly the matching keys,
// durably; the rest keep serving; a later put of a removed key is
// visible again; and fills still queued when it runs are fenced off
// whichever key they are for.
func TestInvalidateScoped(t *testing.T) {
	opts := testOptions(t)
	opts.FlushInterval = time.Hour // fills move only on Flush
	s := mustOpen(t, opts)
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Put("k3", []byte("computed before the invalidation")) // matching key, still queued
	s.Put("late", []byte("so was this"))                    // non-matching key, still queued
	fence := s.Fence()
	n, err := s.Invalidate(func(k string) bool { return k == "k3" || k == "k4" || k == "absent" })
	if err != nil || n != 2 {
		t.Fatalf("Invalidate = %d, %v; want 2 keys", n, err)
	}
	if s.Fence() == fence {
		t.Fatal("Invalidate did not move the fence")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Tombstones != 2 || snap.DroppedStale != 2 || snap.Generation != 0 || snap.Keys != 8 {
		t.Fatalf("after Invalidate: %+v", snap)
	}
	for i := 0; i < 10; i++ {
		_, ok := s.Get(fmt.Sprintf("k%d", i))
		if gone := i == 3 || i == 4; ok == gone {
			t.Fatalf("k%d visible=%v", i, ok)
		}
	}
	if _, ok := s.Get("late"); ok {
		t.Fatal("a fill queued before the invalidation was written after it")
	}
	s.Put("k4", []byte("fresh"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, opts)
	defer s2.Close()
	if _, ok := s2.Get("k3"); ok {
		t.Fatal("tombstoned key resurrected by replay")
	}
	if got, ok := s2.Get("k4"); !ok || string(got) != "fresh" {
		t.Fatalf("put after the tombstone: %q, %v", got, ok)
	}
	if got := s2.Len(); got != 9 {
		t.Fatalf("reopen found %d keys, want 9", got)
	}
}

// TestTombstoneOutlivesItsPut: the segment holding a tombstoned put is
// evicted (its live neighbours salvaged forward) while the tombstone
// sits in a later segment; neither the eviction nor a restart may bring
// the key back.
func TestTombstoneOutlivesItsPut(t *testing.T) {
	opts := testOptions(t)
	opts.MaxBytes = 64 << 10
	opts.SegmentBytes = 8 << 10
	s := mustOpen(t, opts)
	s.Put("doomed", bytes.Repeat([]byte("d"), 40))
	s.Put("kept", bytes.Repeat([]byte("k"), 40))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	churn := func(rounds int) {
		for i := 0; i < rounds; i++ {
			s.Put(fmt.Sprintf("cold/%d", i%40), bytes.Repeat([]byte("z"), 400))
			if i%5 == 0 {
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	churn(40) // rotate: the tombstone lands in a later segment than the put
	if n, err := s.Invalidate(func(k string) bool { return k == "doomed" }); err != nil || n != 1 {
		t.Fatalf("Invalidate = %d, %v", n, err)
	}
	churn(1000)
	snap := s.Snapshot()
	if snap.Evictions == 0 || snap.Salvaged == 0 {
		t.Fatalf("expected the first segment evicted with salvage: %+v", snap)
	}
	check := func(s *Store, when string) {
		t.Helper()
		if _, ok := s.Get("doomed"); ok {
			t.Fatalf("%s: tombstoned key is back", when)
		}
		if got, ok := s.Get("kept"); !ok || got[0] != 'k' {
			t.Fatalf("%s: untouched neighbour lost (%q, %v)", when, got, ok)
		}
	}
	check(s, "after eviction")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, opts)
	defer s2.Close()
	check(s2, "after reopen")
}
