// Package store implements the persistent L2 tile store: an embedded
// single-writer log-structured KV tier that sits under the in-memory
// backend cache and holds encoded (post-render, pre-compression)
// tile/box payloads across restarts. At the paper's "500-millisecond
// interactions over billions of rows" bar, a deploy that cold-starts
// the whole fleet against the database is a thundering herd; a
// restarted node re-serves its working set from disk instead.
//
// # Layout
//
// The store is a directory of size-bounded segment files. Each segment
// is an append-only log reusing the internal/wal framing (uint32
// length + CRC-32 + payload), and each record's payload is one row of
// the internal/storage codec: {gen INT, kind INT, key TEXT, val TEXT}.
// An in-memory index maps key → (segment, offset) and is rebuilt on
// open by replaying every segment oldest-first (later records win).
// Reads go through wal.ReadAt, so every payload served is
// checksum-verified — a torn or corrupt record is a miss, never bad
// bytes.
//
// # Write-behind
//
// Put never blocks and never touches disk inline: fills are enqueued
// on a bounded queue and appended by a single flusher goroutine in
// batches (a full batch or the flush interval, whichever first), one
// fsync per batch. When the queue is full the fill is dropped and
// counted — the L2 is a cache; losing a write costs a future disk
// miss, never correctness. Close drains the queue under a deadline so
// a fill enqueued just before shutdown is readable after reopen.
//
// # Invalidation: generation, tombstone, fence
//
// Three mechanisms, from coarse to fine. A generation covers the whole
// tier: every record carries the generation it was written under, and
// Bump persists a marker that makes every earlier record invisible
// without touching it on disk — the O(1) answer to "anything may have
// changed" (DDL, an edit of too many rows to scope). A tombstone covers
// one key: Invalidate appends a delete record for each resident key the
// caller's predicate matches, with one fsync for the lot — how an
// /update that knows which rows it touched removes only the windows
// holding them.
// Replay honours both, in log order, so what was invalidated stays
// invisible across restarts; a tombstone is always written after every
// put it covers and segments are evicted oldest first, so it cannot be
// reclaimed while a put it covers is still on disk. The fence covers the
// write-behind queue: it advances on every Bump and Invalidate, a fill
// carries the fence value its caller read before computing the payload,
// and the flusher drops (and counts as DroppedStale) any fill whose
// fence has moved — a payload computed before an invalidation is never
// persisted after it. The fence is global on purpose: it is in-memory,
// costs one comparison, and errs only towards a future disk miss.
//
// # Eviction and compaction
//
// When the store exceeds its byte budget the oldest segment is
// evicted: records still live (indexed, current generation) are
// salvaged — re-appended to the active segment — as long as salvage
// keeps the store under budget, and the rest are dropped from the
// index; then the file is deleted. Stale generations and overwritten
// records are never salvaged, so eviction doubles as compaction.
package store

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"kyrix/internal/wal"
)

// Options configures a Store. Path is required; every other field has
// a default.
type Options struct {
	// Path is the directory holding the segment files (created if
	// absent).
	Path string
	// MaxBytes is the on-disk budget; the oldest segment is evicted
	// (live records salvaged) when total segment bytes exceed it.
	// Default 1 GiB.
	MaxBytes int64
	// SegmentBytes bounds one segment file; the active segment rotates
	// when it reaches this size. Default MaxBytes/8, clamped to
	// [1 MiB, 64 MiB]. Records larger than a segment are dropped.
	SegmentBytes int64
	// WriteQueueDepth bounds the write-behind queue; a Put finding it
	// full is dropped, not blocked. Default 1024.
	WriteQueueDepth int
	// FlushInterval is the longest an enqueued fill waits before its
	// batch is appended and fsynced. Default 50 ms.
	FlushInterval time.Duration
	// DrainTimeout bounds how long Close waits for the flusher to
	// drain the queue before force-closing the segments. Default 5 s.
	DrainTimeout time.Duration
	// ScrubInterval, when positive, starts a background scrubber that
	// re-verifies every indexed record's checksum each interval and
	// drops records that no longer read back clean (counted in
	// Stats.ScrubbedBad) — bit rot is found proactively instead of at
	// the next unlucky Get. 0 disables; Scrub can still be called
	// directly.
	ScrubInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxBytes <= 0 {
		o.MaxBytes = 1 << 30
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = o.MaxBytes / 8
		if o.SegmentBytes < 1<<20 {
			o.SegmentBytes = 1 << 20
		}
		if o.SegmentBytes > 64<<20 {
			o.SegmentBytes = 64 << 20
		}
	}
	if o.WriteQueueDepth <= 0 {
		o.WriteQueueDepth = 1024
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 50 * time.Millisecond
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	return o
}

// Stats counts store activity. All fields are atomic; read them with
// Snapshot for a consistent-enough view.
type Stats struct {
	Hits            atomic.Int64
	Misses          atomic.Int64
	Puts            atomic.Int64
	DroppedFull     atomic.Int64 // queue full
	DroppedStale    atomic.Int64 // fence moved between the caller's read and the flush
	WriteErrors     atomic.Int64 // fill not written: its append failed, or Close's drain deadline closed the segments first
	DroppedOversize atomic.Int64
	CorruptReads    atomic.Int64 // checksum rejected a record at read time
	BatchFlushes    atomic.Int64
	Evictions       atomic.Int64 // segments evicted
	Salvaged        atomic.Int64 // live records re-appended during eviction
	EvictedLive     atomic.Int64 // live records dropped because salvage was over budget
	Scrubs          atomic.Int64 // completed Scrub passes
	ScrubbedBad     atomic.Int64 // records dropped by Scrub (failed re-verification)
	Tombstones      atomic.Int64 // keys removed one by one (Invalidate)
}

// StatsSnapshot is a point-in-time copy of Stats plus the store's
// current shape — what /stats serves under cache.l2.
type StatsSnapshot struct {
	Hits            int64  `json:"hits"`
	Misses          int64  `json:"misses"`
	Puts            int64  `json:"puts"`
	DroppedFull     int64  `json:"droppedFull"`
	DroppedStale    int64  `json:"droppedStale"`
	WriteErrors     int64  `json:"writeErrors"`
	DroppedOversize int64  `json:"droppedOversize"`
	CorruptReads    int64  `json:"corruptReads"`
	BatchFlushes    int64  `json:"batchFlushes"`
	Evictions       int64  `json:"evictions"`
	Salvaged        int64  `json:"salvaged"`
	EvictedLive     int64  `json:"evictedLive"`
	Scrubs          int64  `json:"scrubs"`
	ScrubbedBad     int64  `json:"scrubbedBad"`
	Tombstones      int64  `json:"tombstones"`
	Bytes           int64  `json:"bytes"`
	Segments        int    `json:"segments"`
	Keys            int    `json:"keys"`
	Generation      uint64 `json:"generation"`
}

// loc addresses one live record.
type loc struct {
	seg uint64
	lsn wal.LSN
}

type putReq struct {
	key   string
	val   []byte
	fence uint64
	done  chan struct{} // non-nil: flush barrier, key/val unused
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Store is the persistent tile store. One flusher goroutine performs
// all disk writes (single-writer); Get is safe for any concurrency.
type Store struct {
	opts Options

	// mu guards index, segs, segByID, totalBytes and all segment
	// mutation. Gets hold the read side across the index lookup AND
	// the file read, so eviction can never delete a file mid-read.
	mu         sync.RWMutex
	segs       []*segment          // guarded by mu; oldest..newest; last is the active (append) segment
	segByID    map[uint64]*segment // guarded by mu
	index      map[string]loc      // guarded by mu
	totalBytes int64               // guarded by mu
	nextSegID  uint64              // guarded by mu
	segsClosed bool                // guarded by mu

	// gen is the current generation; reads/writes outside mu go
	// through the atomic.
	gen atomic.Uint64
	// fence advances on every Bump and Invalidate (see the package doc);
	// the flusher reads it under mu.
	fence atomic.Uint64

	// qmu guards the closed flag vs. closing the queue channel, so a
	// concurrent Put can never send on a closed channel.
	qmu         sync.RWMutex
	closed      bool // guarded by qmu
	queue       chan putReq
	flusherDone chan struct{}
	scrubStop   chan struct{} // non-nil when the background scrubber runs
	scrubDone   chan struct{}

	Stats Stats
}

// Open opens (creating if needed) the store at opts.Path, rebuilding
// the key index by replaying every segment, and starts the write-
// behind flusher.
func Open(opts Options) (*Store, error) {
	if opts.Path == "" {
		return nil, errors.New("store: Options.Path is required")
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Path, 0o755); err != nil {
		return nil, fmt.Errorf("store: mkdir: %w", err)
	}
	s := &Store{
		opts:        opts,
		segByID:     make(map[uint64]*segment),
		index:       make(map[string]loc),
		queue:       make(chan putReq, opts.WriteQueueDepth),
		flusherDone: make(chan struct{}),
	}
	ids, err := listSegmentIDs(opts.Path)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		seg, err := openSegment(opts.Path, id)
		if err != nil {
			_ = s.closeSegsLocked() // already failing; the open error wins
			return nil, err
		}
		s.segs = append(s.segs, seg)
		s.segByID[id] = seg
		if err := s.replaySegmentLocked(seg); err != nil {
			_ = s.closeSegsLocked() // already failing; the open error wins
			return nil, err
		}
		s.totalBytes += seg.log.Size()
		if id >= s.nextSegID {
			s.nextSegID = id + 1
		}
	}
	if len(s.segs) == 0 {
		if err := s.rotateLocked(); err != nil {
			return nil, err
		}
	}
	go s.flusher()
	if opts.ScrubInterval > 0 {
		s.scrubStop = make(chan struct{})
		s.scrubDone = make(chan struct{})
		go s.scrubber()
	}
	return s, nil
}

// replaySegment folds one segment's records into the index. Later
// records win (replay is oldest segment first, in-file order); a
// generation marker clears everything indexed so far, a tombstone its
// one key.
func (s *Store) replaySegmentLocked(seg *segment) error {
	return seg.log.Replay(func(lsn wal.LSN, payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			// A record that framed correctly but does not decode is a
			// foreign or damaged payload: skip it, the index just
			// won't serve it.
			s.Stats.CorruptReads.Add(1)
			return nil
		}
		switch rec.kind {
		case recordGen:
			if rec.gen > s.gen.Load() {
				s.gen.Store(rec.gen)
				s.index = make(map[string]loc)
			}
		case recordPut:
			if rec.gen == s.gen.Load() {
				s.index[rec.key] = loc{seg: seg.id, lsn: lsn}
			}
		case recordDel:
			delete(s.index, rec.key)
		}
		return nil
	})
}

// Generation returns the current generation.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// Get returns the payload stored for key in the current generation.
// The read is checksum-verified end to end: a torn, corrupt, or
// mismatched record counts as a miss (and the bad index entry is
// dropped), never as served bytes.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	l, ok := s.index[key]
	if !ok || s.segsClosed {
		s.mu.RUnlock()
		s.Stats.Misses.Add(1)
		return nil, false
	}
	seg := s.segByID[l.seg]
	payload, err := seg.log.ReadAt(l.lsn)
	var rec decodedRecord
	if err == nil {
		rec, err = decodeRecord(payload)
	}
	s.mu.RUnlock()
	if err != nil || rec.kind != recordPut || rec.key != key || rec.gen != s.gen.Load() {
		s.Stats.CorruptReads.Add(1)
		s.Stats.Misses.Add(1)
		s.dropIndexEntry(key, l)
		return nil, false
	}
	s.Stats.Hits.Add(1)
	return rec.val, true
}

// dropIndexEntry removes key's index entry if it still points at l
// (a corrupt record should not be re-read on every lookup).
func (s *Store) dropIndexEntry(key string, l loc) {
	s.mu.Lock()
	if cur, ok := s.index[key]; ok && cur == l {
		delete(s.index, key)
	}
	s.mu.Unlock()
}

// Put enqueues one fill for asynchronous append. It never blocks: a
// full queue drops the fill (counted in Stats.DroppedFull), and a
// fill that straddles an invalidation is dropped at flush time. Returns
// false when the fill was dropped or the store is closed.
func (s *Store) Put(key string, val []byte) bool {
	return s.PutAt(key, val, s.fence.Load())
}

// Fence returns the write-behind fence: read it before computing a
// payload and hand it to PutAt with the result.
func (s *Store) Fence() uint64 { return s.fence.Load() }

// PutAt is Put with the fence value the caller read before it computed
// val (a server reads it before running the query): if a Bump or an
// Invalidate has happened since, the fill is dropped at flush time
// instead of persisting pre-invalidation data.
func (s *Store) PutAt(key string, val []byte, fence uint64) bool {
	if int64(len(key)+len(val))+64 > s.opts.SegmentBytes {
		s.Stats.DroppedOversize.Add(1)
		return false
	}
	// Copy: the caller's buffer may be reused before the flusher runs.
	v := make([]byte, len(val))
	copy(v, val)
	req := putReq{key: key, val: v, fence: fence}
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.closed {
		return false
	}
	select {
	case s.queue <- req:
		return true
	default:
		s.Stats.DroppedFull.Add(1)
		return false
	}
}

// Bump advances the generation, persisting a marker record before
// returning: every record written under an earlier generation is
// invisible from now on — and stays invisible after a restart — while
// its disk space is reclaimed lazily by eviction. This is the whole-tier
// invalidation; Invalidate is the per-key one.
func (s *Store) Bump() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.segsClosed {
		return s.gen.Load(), ErrClosed
	}
	next := s.gen.Load() + 1
	if _, err := s.appendRecordLocked(next, recordGen, "", nil); err != nil {
		return s.gen.Load(), err
	}
	if err := s.segs[len(s.segs)-1].log.Sync(); err != nil {
		return s.gen.Load(), err
	}
	s.gen.Store(next)
	s.fence.Add(1)
	// Every indexed entry belongs to an earlier generation now.
	s.index = make(map[string]loc)
	return next, nil
}

// Invalidate removes every resident key match accepts, durably: one
// tombstone record per key, one fsync for all of them, before it
// returns. Fills still in the write-behind queue are fenced off, so a
// payload computed before the call cannot land after it, whichever key
// it is for. match runs on a snapshot of the keys, outside the store's
// lock. On a write error the matched keys are still dropped from the
// in-memory index — this process stops serving them — and the error
// says they may reappear after a restart.
func (s *Store) Invalidate(match func(key string) bool) (int, error) {
	// Before the snapshot: a batch the flusher is appending right now
	// finishes before the read lock is granted and is seen below; any
	// later batch sees the moved fence.
	s.fence.Add(1)
	s.mu.RLock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	hit := keys[:0]
	for _, k := range keys {
		if match(k) {
			hit = append(hit, k)
		}
	}
	if len(hit) == 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.segsClosed {
		return 0, ErrClosed
	}
	n := 0
	var werr error
	for _, k := range hit {
		if _, ok := s.index[k]; !ok {
			continue
		}
		delete(s.index, k)
		n++
		if werr == nil {
			_, werr = s.appendRecordLocked(s.gen.Load(), recordDel, k, nil)
		}
	}
	if n > 0 && werr == nil {
		werr = s.segs[len(s.segs)-1].log.Sync()
	}
	s.Stats.Tombstones.Add(int64(n))
	if werr != nil {
		return n, fmt.Errorf("store: write tombstones: %w", werr)
	}
	return n, nil
}

// Flush blocks until every fill enqueued before the call is on disk
// (or dropped by a concurrent invalidation). It is the synchronous barrier
// tests and Close use; the serving path never calls it.
func (s *Store) Flush() error {
	done := make(chan struct{})
	s.qmu.RLock()
	if s.closed {
		s.qmu.RUnlock()
		return ErrClosed
	}
	// Blocking send is correct here: the flusher is draining, and a
	// barrier must wait its turn behind the queued fills anyway.
	s.queue <- putReq{done: done}
	s.qmu.RUnlock()
	<-done
	return nil
}

// Close drains the write-behind queue (bounded by DrainTimeout),
// syncs, and closes every segment. Idempotent.
func (s *Store) Close() error {
	s.qmu.Lock()
	if s.closed {
		s.qmu.Unlock()
		// Wait for the closer that got here first.
		<-s.flusherDone
		return nil
	}
	s.closed = true
	close(s.queue)
	if s.scrubStop != nil {
		close(s.scrubStop)
	}
	s.qmu.Unlock()
	if s.scrubDone != nil {
		<-s.scrubDone
	}

	// The flusher drains the closed channel's remaining fills, then
	// exits. Give it the drain deadline; on expiry force-close the
	// segments — remaining appends fail harmlessly (dropped fills).
	select {
	case <-s.flusherDone:
	case <-time.After(s.opts.DrainTimeout):
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeSegsLocked()
}

// closeSegsLocked syncs and closes every segment, returning the first
// error.
func (s *Store) closeSegsLocked() error {
	if s.segsClosed {
		return nil
	}
	s.segsClosed = true
	var first error
	for _, seg := range s.segs {
		if err := seg.log.Close(); err != nil && first == nil {
			first = fmt.Errorf("store: close segment %d: %w", seg.id, err)
		}
	}
	return first
}

// Snapshot returns a point-in-time copy of the store's counters and
// shape.
func (s *Store) Snapshot() StatsSnapshot {
	s.mu.RLock()
	bytes, segments, keys := s.totalBytes, len(s.segs), len(s.index)
	s.mu.RUnlock()
	return StatsSnapshot{
		Hits:            s.Stats.Hits.Load(),
		Misses:          s.Stats.Misses.Load(),
		Puts:            s.Stats.Puts.Load(),
		DroppedFull:     s.Stats.DroppedFull.Load(),
		DroppedStale:    s.Stats.DroppedStale.Load(),
		WriteErrors:     s.Stats.WriteErrors.Load(),
		DroppedOversize: s.Stats.DroppedOversize.Load(),
		CorruptReads:    s.Stats.CorruptReads.Load(),
		BatchFlushes:    s.Stats.BatchFlushes.Load(),
		Evictions:       s.Stats.Evictions.Load(),
		Salvaged:        s.Stats.Salvaged.Load(),
		EvictedLive:     s.Stats.EvictedLive.Load(),
		Scrubs:          s.Stats.Scrubs.Load(),
		ScrubbedBad:     s.Stats.ScrubbedBad.Load(),
		Tombstones:      s.Stats.Tombstones.Load(),
		Bytes:           bytes,
		Segments:        segments,
		Keys:            keys,
		Generation:      s.gen.Load(),
	}
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Scrub re-reads every indexed record and verifies it end to end (WAL
// CRC framing plus record decode, key and kind checks — the same
// verification Get performs). A record that fails is dropped from the
// index and counted in Stats.ScrubbedBad, so latent bit rot surfaces
// here instead of as a corrupt-read miss on some future Get. Returns
// the number of records checked and dropped. Concurrent Puts/Bumps are
// fine: the index is snapshotted first and each drop is conditional on
// the entry still pointing at the record that failed.
func (s *Store) Scrub() (checked, bad int, err error) {
	s.mu.RLock()
	if s.segsClosed {
		s.mu.RUnlock()
		return 0, 0, ErrClosed
	}
	snap := make(map[string]loc, len(s.index))
	for k, l := range s.index {
		snap[k] = l
	}
	s.mu.RUnlock()

	for key, l := range snap {
		s.mu.RLock()
		if s.segsClosed {
			s.mu.RUnlock()
			return checked, bad, ErrClosed
		}
		if cur, ok := s.index[key]; !ok || cur != l {
			// Re-filled or invalidated since the snapshot; nothing to
			// verify.
			s.mu.RUnlock()
			continue
		}
		seg := s.segByID[l.seg]
		payload, rerr := seg.log.ReadAt(l.lsn)
		var rec decodedRecord
		if rerr == nil {
			rec, rerr = decodeRecord(payload)
		}
		s.mu.RUnlock()
		checked++
		if rerr != nil || rec.kind != recordPut || rec.key != key {
			bad++
			s.Stats.ScrubbedBad.Add(1)
			s.dropIndexEntry(key, l)
		}
	}
	s.Stats.Scrubs.Add(1)
	return checked, bad, nil
}

// scrubber runs Scrub every ScrubInterval until Close.
func (s *Store) scrubber() {
	defer close(s.scrubDone)
	ticker := time.NewTicker(s.opts.ScrubInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.scrubStop:
			return
		case <-ticker.C:
			if _, _, err := s.Scrub(); err != nil {
				return
			}
		}
	}
}

// --- the single writer ---

// flusher is the only goroutine that appends fills. It batches queued
// fills (a full batch or one FlushInterval, whichever first) and
// performs one fsync per batch. When Close closes the queue, the
// channel drains its remaining buffered fills before ok turns false,
// which is exactly the Close-drain contract.
func (s *Store) flusher() {
	defer close(s.flusherDone)
	batchMax := s.opts.WriteQueueDepth / 2
	if batchMax < 1 {
		batchMax = 1
	}
	if batchMax > 256 {
		batchMax = 256
	}
	ticker := time.NewTicker(s.opts.FlushInterval)
	defer ticker.Stop()
	batch := make([]putReq, 0, batchMax)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		s.appendBatch(batch)
		batch = batch[:0]
	}
	for {
		select {
		case req, ok := <-s.queue:
			if !ok {
				flush()
				return
			}
			if req.done != nil {
				flush()
				close(req.done)
				continue
			}
			batch = append(batch, req)
			if len(batch) >= batchMax {
				flush()
			}
		case <-ticker.C:
			flush()
		}
	}
}

// appendBatch writes one batch under the store lock: rotate if the
// active segment is full, append every still-fresh fill, fsync once,
// then evict while over budget.
func (s *Store) appendBatch(batch []putReq) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.segsClosed {
		s.Stats.WriteErrors.Add(int64(len(batch)))
		return
	}
	gen, fence := s.gen.Load(), s.fence.Load()
	wrote := false
	for _, req := range batch {
		if req.fence != fence {
			// A Bump or an Invalidate happened after this payload's
			// caller read the fence: it may predate the change and must
			// not be written after it.
			s.Stats.DroppedStale.Add(1)
			continue
		}
		if err := s.appendPutLocked(req.key, req.val, gen); err != nil {
			s.Stats.WriteErrors.Add(1)
			continue
		}
		wrote = true
		s.Stats.Puts.Add(1)
	}
	if wrote {
		active := s.segs[len(s.segs)-1]
		// Fills are re-derivable and acked to no one: one whose sync
		// failed is at worst a miss after a crash, since replay drops
		// torn records by checksum.
		_ = active.log.Sync()
		s.Stats.BatchFlushes.Add(1)
		s.evictLocked()
	}
}

// appendPutLocked appends one put record and indexes it.
func (s *Store) appendPutLocked(key string, val []byte, gen uint64) error {
	l, err := s.appendRecordLocked(gen, recordPut, key, val)
	if err != nil {
		return err
	}
	s.index[key] = l
	return nil
}

// appendRecordLocked appends one record to the active segment, rotating
// first when it is full. The caller syncs.
func (s *Store) appendRecordLocked(gen uint64, kind int, key string, val []byte) (loc, error) {
	active := s.segs[len(s.segs)-1]
	if active.log.Size() >= s.opts.SegmentBytes {
		// Sync the outgoing active segment before rotating: it is
		// immutable from here on and must be durable.
		if err := active.log.Sync(); err != nil {
			return loc{}, fmt.Errorf("store: sync segment %d before rotation: %w", active.id, err)
		}
		if err := s.rotateLocked(); err != nil {
			return loc{}, err
		}
		active = s.segs[len(s.segs)-1]
	}
	rec, err := encodeRecord(gen, kind, key, val)
	if err != nil {
		return loc{}, err
	}
	before := active.log.Size()
	lsn, err := active.log.Append(rec)
	if err != nil {
		return loc{}, err
	}
	s.totalBytes += active.log.Size() - before
	return loc{seg: active.id, lsn: lsn}, nil
}

// rotateLocked opens a fresh active segment. Past generation 0 it starts
// with the current generation's marker: the segment holding the marker
// Bump wrote is evicted in its turn, and without a copy in every newer
// segment a reopen would replay at generation 0 and skip every
// surviving put.
func (s *Store) rotateLocked() error {
	seg, err := openSegment(s.opts.Path, s.nextSegID)
	if err != nil {
		return err
	}
	if gen := s.gen.Load(); gen > 0 {
		before := seg.log.Size()
		rec, err := encodeRecord(gen, recordGen, "", nil)
		if err == nil {
			_, err = seg.log.Append(rec)
		}
		if err != nil {
			_ = seg.log.Close() // already failing; the append error wins
			_ = os.Remove(seg.path)
			return err
		}
		s.totalBytes += seg.log.Size() - before
	}
	s.nextSegID++
	s.segs = append(s.segs, seg)
	s.segByID[seg.id] = seg
	return nil
}

// evictLocked brings the store back under its byte budget by evicting
// oldest segments. Live current-generation records are salvaged into
// the active segment while salvage keeps the store under budget; the
// rest are dropped from the index (this is a cache — a dropped record
// costs a disk miss, never correctness). Overwritten and stale-
// generation records are simply left behind, so eviction is also the
// store's compaction.
func (s *Store) evictLocked() {
	for s.totalBytes > s.opts.MaxBytes && len(s.segs) > 1 {
		victim := s.segs[0]
		freed := victim.log.Size()
		// Salvage budget: what we may re-append and still land under
		// MaxBytes once the victim's bytes are gone.
		budget := s.opts.MaxBytes - (s.totalBytes - freed)
		gen := s.gen.Load()
		var salvagedBytes int64
		err := victim.log.Replay(func(lsn wal.LSN, payload []byte) error {
			rec, err := decodeRecord(payload)
			if err != nil || rec.kind != recordPut {
				return nil
			}
			cur, ok := s.index[rec.key]
			if !ok || cur.seg != victim.id || cur.lsn != lsn || rec.gen != gen {
				return nil // overwritten, tombstoned, or stale: garbage
			}
			recLen := int64(len(payload)) + 8
			if salvagedBytes+recLen > budget {
				delete(s.index, rec.key)
				s.Stats.EvictedLive.Add(1)
				return nil
			}
			if err := s.appendPutLocked(rec.key, rec.val, gen); err != nil {
				delete(s.index, rec.key)
				s.Stats.EvictedLive.Add(1)
				return nil
			}
			salvagedBytes += recLen
			s.Stats.Salvaged.Add(1)
			return nil
		})
		if err != nil {
			// The unread rest of the victim cannot be salvaged: forget
			// every key still in it, or Get would read a removed
			// segment.
			for k, l := range s.index {
				if l.seg == victim.id {
					delete(s.index, k)
					s.Stats.EvictedLive.Add(1)
				}
			}
		}
		if salvagedBytes > 0 {
			// Salvaged copies are cache fills like any other: one whose
			// sync failed is at worst a miss after a crash.
			_ = s.segs[len(s.segs)-1].log.Sync()
		}
		// Every live record left the victim above; it is removed next,
		// so its close error loses nothing.
		_ = victim.log.Close()
		_ = os.Remove(victim.path)
		s.totalBytes -= freed
		s.segs = s.segs[1:]
		delete(s.segByID, victim.id)
		s.Stats.Evictions.Add(1)
	}
}
