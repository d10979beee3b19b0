// Package cache provides the byte-budgeted cache used on both sides of
// the wire: the frontend cache and the backend cache of §3.1 ("Kyrix
// employs both a frontend cache and a backend cache").
//
// Keys are strings (canonical request keys like "tile/canvas0/1/5/7" or
// "dbox/canvas0/<rect>"); values carry an explicit size so the budget
// reflects payload bytes, not entry counts.
//
// The cache is sharded: keys are fnv-1a hashed onto a power-of-two
// number of shards, each an independently locked segmented LRU. The
// byte budget is global (maintained with one atomic counter), so any
// value up to the full budget is cacheable, exactly as in a
// single-lock LRU; when an insert pushes the total over budget, the
// inserting shard evicts its own entries first and then steals
// evictions from other shards. The steal is capped: no neighbor shard
// is drained below its fair share of the post-insert budget,
// (budget-size)/shards, so one oversized or one-shot insert can no
// longer empty a warm neighbor. Under concurrent load shards eliminate
// the single-mutex bottleneck; caches with small budgets collapse to
// one shard and behave exactly like a classic global LRU.
//
// # Admission (W-TinyLFU)
//
// With Config.Admission set to AdmissionLFU the cache becomes a
// frequency-aware admitting cache in the W-TinyLFU family: each shard
// keeps a 4-bit count-min sketch of access frequencies (aged by
// periodic halving), a small probationary window in front of a
// segmented main area (probation/protected), and an admission gate.
// New entries land in the window; once the cache is at its byte
// budget, the window's LRU entry becomes a candidate whose estimated
// frequency is compared against the would-be victim's (the main
// area's LRU entry): the candidate is admitted — evicting the victim —
// only if it is strictly more frequent, and is dropped otherwise.
// One-shot traffic (a sequential dbox scan) therefore cannot displace
// a hot working set, while genuinely hot keys are admitted on their
// second touch. Entries re-accessed while in probation are promoted
// to the protected segment (capped at 4/5 of a shard's share; overflow
// demotes back to probation MRU). Stats.Admitted/Rejected count the
// gate's decisions. AdmissionOff (the zero value) keeps the plain
// sharded LRU behavior.
//
// # Byte-budget invariant
//
// After every Put, Stats().Bytes <= budget. Eviction tries, in order:
// the inserting shard's own entries (through the admission gate in LFU
// mode), a fair-share-capped steal from the other shards, and — as the
// final fallback — the just-inserted entry itself, so the invariant
// holds even when every other shard is at its floor and the insert
// cannot be funded. Values larger than the whole budget are rejected
// up front.
package cache

import (
	"container/list"
	"runtime"
	"sync"
	"sync/atomic"
)

// minShardBudget is the smallest per-shard share of the budget worth
// splitting for: below this, sharding fragments eviction order for no
// contention win, so the constructor reduces the shard count (tiny
// caches keep exact global LRU order).
const minShardBudget = 1 << 20

// maxShards bounds the shard count (power of two).
const maxShards = 256

// Admission selects the cache admission policy.
type Admission string

const (
	// AdmissionOff is the plain sharded LRU: every Put is admitted and
	// eviction is strictly by recency. The empty string means the same.
	AdmissionOff Admission = "off"
	// AdmissionLFU enables W-TinyLFU frequency-based admission: a
	// count-min sketch estimates key frequencies and new entries must
	// beat the would-be victim's frequency to displace it.
	AdmissionLFU Admission = "lfu"
)

// Config configures a cache.
type Config struct {
	// Budget is the global byte budget. <= 0 disables the cache (every
	// Put is rejected — the A2 ablation).
	Budget int64
	// Shards is rounded up to a power of two; <= 0 picks a default
	// from GOMAXPROCS. The count is reduced until every shard's share
	// of the budget is at least 1 MB.
	Shards int
	// Admission selects the admission policy ("" = AdmissionOff). The
	// TinyLFU frequency sketch is sized from the budget.
	Admission Admission
}

// Stats reports cache activity, aggregated across shards.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Puts      int64
	// Admitted/Rejected count W-TinyLFU admission-gate decisions:
	// candidates that displaced a less-frequent victim vs candidates
	// dropped (always 0 with admission off; Rejected also counts
	// entries dropped by the last-resort budget fallback).
	Admitted int64
	Rejected int64
	Bytes    int64
	Entries  int
}

// segment identifies which LRU list an entry lives on. With admission
// off only segWindow is used (the classic single list).
type segment uint8

const (
	segWindow segment = iota
	segProbation
	segProtected
)

type cacheEntry struct {
	key   string
	value any
	size  int64
	seg   segment
	// hash is fnv64a(key), computed once at insert so the admission
	// gate's frequency comparisons never re-hash the key (victims are
	// re-examined in loops, under shard mutexes). Unused (0) with
	// admission off.
	hash uint64
}

// shard is one independently locked segmented LRU.
type shard struct {
	mu      sync.Mutex
	entries map[string]*list.Element // guarded by mu

	// window holds fresh inserts (with admission off it is the only
	// list — the classic LRU order, front = most recent). probation
	// and protected form the main area of the W-TinyLFU layout.
	// All three lists are guarded by mu.
	window    *list.List // guarded by mu
	probation *list.List // guarded by mu
	protected *list.List // guarded by mu

	windowBytes    int64 // guarded by mu
	probationBytes int64 // guarded by mu
	protectedBytes int64 // guarded by mu
	// bytes is the shard's resident total (sum of the segment counts);
	// the steal cap reads it to enforce the per-shard floor.
	bytes int64 // guarded by mu

	// windowCap bounds the window during warmup (spill moves entries
	// to probation); protectedCap bounds the protected segment
	// (overflow demotes to probation). Both 0 with admission off.
	windowCap    int64
	protectedCap int64

	// sk is the frequency sketch; nil means admission off.
	sk *sketch

	hits, misses, evictions, puts, admitted, rejected int64 // guarded by mu
}

// LRU is a thread-safe, sharded, byte-budgeted cache. The name is
// historical: with admission off it is a plain sharded LRU; with
// AdmissionLFU it is a W-TinyLFU admitting cache (see the package
// doc). Recency is tracked per shard; total resident bytes never
// exceed the budget.
type LRU struct {
	shards []*shard
	mask   uint32
	budget int64
	bytes  atomic.Int64
}

// NewLRU creates a plain LRU cache holding up to budget bytes with an
// automatic shard count (derived from GOMAXPROCS, reduced for small
// budgets). budget <= 0 means the cache rejects every Put (a disabled
// cache, used by the A2 ablation).
func NewLRU(budget int64) *LRU {
	return New(Config{Budget: budget})
}

// NewLRUSharded creates a plain LRU cache holding up to budget bytes
// spread over the given number of shards (see Config.Shards for the
// rounding rules).
func NewLRUSharded(budget int64, shards int) *LRU {
	return New(Config{Budget: budget, Shards: shards})
}

// New creates a cache from cfg. Unknown admission values fall back to
// AdmissionOff.
func New(cfg Config) *LRU {
	shards := cfg.Shards
	if shards <= 0 {
		// Serving concurrency routinely exceeds core count (requests
		// block on network I/O), so the default floors at 8 shards;
		// the budget clamp below still collapses small caches.
		shards = 4 * runtime.GOMAXPROCS(0)
		if shards < 8 {
			shards = 8
		}
	}
	n := nextPow2(shards)
	if n > maxShards {
		n = maxShards
	}
	budget := cfg.Budget
	if budget < 0 {
		budget = 0
	}
	for n > 1 && budget/int64(n) < minShardBudget {
		n /= 2
	}
	c := &LRU{shards: make([]*shard, n), mask: uint32(n - 1), budget: budget}
	lfu := cfg.Admission == AdmissionLFU && budget > 0
	var perShardCounters int
	if lfu {
		// Assume ~4 KB mean entries; clamp so tiny budgets still
		// discriminate and huge budgets stay a few MB of sketch.
		counters := int(budget / 4096)
		if counters < 1024 {
			counters = 1024
		}
		if counters > 1<<22 {
			counters = 1 << 22
		}
		perShardCounters = counters / n
	}
	share := budget / int64(n)
	for i := range c.shards {
		s := &shard{
			entries:   make(map[string]*list.Element),
			window:    list.New(),
			probation: list.New(),
			protected: list.New(),
		}
		if lfu {
			s.windowCap = share / 8
			s.protectedCap = (share - s.windowCap) * 4 / 5
			s.sk = newSketch(perShardCounters)
		}
		c.shards[i] = s
	}
	return c
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ShardCount returns the number of shards (a power of two).
func (c *LRU) ShardCount() int { return len(c.shards) }

// fnv-1a, inlined to keep the hot path allocation-free.
func fnv32a(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (c *LRU) shardIdx(key string) uint32 {
	if len(c.shards) == 1 {
		return 0
	}
	return fnv32a(key) & c.mask
}

// Get returns the cached value and whether it was present, refreshing
// recency on a hit. With admission enabled every Get — hit or miss —
// also records the key in the frequency sketch, which is how a key
// builds the history that later wins it admission.
func (c *LRU) Get(key string) (any, bool) {
	s := c.shards[c.shardIdx(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		if s.sk != nil {
			s.sk.add(fnv64a(key))
		}
		s.misses++
		return nil, false
	}
	if s.sk != nil {
		// Hits reuse the hash cached at insert: no re-hashing under
		// the shard lock on the hot path.
		s.sk.add(el.Value.(*cacheEntry).hash)
	}
	s.hits++
	s.touchLocked(el)
	return el.Value.(*cacheEntry).value, true
}

// Peek returns the cached value without refreshing recency, recording
// frequency, or touching hit/miss statistics. Callers that already
// counted a miss for this key (the server's coalescing double-check)
// use it to avoid double-counting.
func (c *LRU) Peek(key string) (any, bool) {
	s := c.shards[c.shardIdx(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).value, true
}

// EstimateFreq returns the admission sketch's decayed frequency
// estimate for key (0..15), or -1 when the cache
// keeps no sketch (admission off). It does not record an access. The
// cluster's hot-key replication reads it to decide whether a peer-
// filled payload is popular enough to double-cache locally.
func (c *LRU) EstimateFreq(key string) int {
	s := c.shards[c.shardIdx(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sk == nil {
		return -1
	}
	return s.sk.estimate(fnv64a(key))
}

// Contains reports presence without affecting recency or stats.
func (c *LRU) Contains(key string) bool {
	s := c.shards[c.shardIdx(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// seglist returns the list an entry's segment lives on.
func (s *shard) seglistLocked(seg segment) *list.List {
	switch seg {
	case segProbation:
		return s.probation
	case segProtected:
		return s.protected
	}
	return s.window
}

func (s *shard) segBytesLocked(seg segment) *int64 {
	switch seg {
	case segProbation:
		return &s.probationBytes
	case segProtected:
		return &s.protectedBytes
	}
	return &s.windowBytes
}

// removeEl unlinks el from its segment and the key map, crediting the
// shard and global byte counts. Caller holds s.mu.
func (s *shard) removeElLocked(el *list.Element, global *atomic.Int64) {
	e := el.Value.(*cacheEntry)
	s.seglistLocked(e.seg).Remove(el)
	delete(s.entries, e.key)
	*s.segBytesLocked(e.seg) -= e.size
	s.bytes -= e.size
	global.Add(-e.size)
}

// evictEl is removeEl plus the eviction counter.
func (s *shard) evictElLocked(el *list.Element, global *atomic.Int64) {
	s.removeElLocked(el, global)
	s.evictions++
}

// moveToSeg relinks el to the front of another segment (bytes stay
// resident; only segment accounting moves). Caller holds s.mu.
func (s *shard) moveToSegLocked(el *list.Element, to segment) *list.Element {
	e := el.Value.(*cacheEntry)
	if e.seg == to {
		s.seglistLocked(to).MoveToFront(el)
		return el
	}
	s.seglistLocked(e.seg).Remove(el)
	*s.segBytesLocked(e.seg) -= e.size
	e.seg = to
	*s.segBytesLocked(to) += e.size
	nel := s.seglistLocked(to).PushFront(e)
	s.entries[e.key] = nel
	return nel
}

// touch refreshes recency for a hit (or re-put): protected entries
// move to their list front; window and probation entries are promoted
// to protected — re-access is the proof of usefulness that graduates
// an entry out of its probationary segment — demoting the protected
// LRU back to probation when the segment overflows its cap. Caller
// holds s.mu. Returns the element (relinked if the segment changed).
func (s *shard) touchLocked(el *list.Element) *list.Element {
	e := el.Value.(*cacheEntry)
	if s.sk == nil || e.seg == segProtected {
		s.seglistLocked(e.seg).MoveToFront(el)
		return el
	}
	nel := s.moveToSegLocked(el, segProtected)
	for s.protectedBytes > s.protectedCap {
		back := s.protected.Back()
		if back == nil || back == nel {
			break
		}
		s.moveToSegLocked(back, segProbation)
	}
	return nel
}

// mainVictim returns the main area's would-be victim: the probation
// LRU entry, falling back to the protected LRU. Caller holds s.mu.
func (s *shard) mainVictimLocked() *list.Element {
	if back := s.probation.Back(); back != nil {
		return back
	}
	return s.protected.Back()
}

// backExcluding returns the shard's preferred victim skipping skip:
// probation LRU first, then protected, then window. Caller holds s.mu.
func (s *shard) backExcludingLocked(skip *list.Element) *list.Element {
	for _, l := range []*list.List{s.probation, s.protected, s.window} {
		back := l.Back()
		if back == skip && back != nil {
			back = back.Prev()
		}
		if back != nil {
			return back
		}
	}
	return nil
}

// freq estimates an element's key frequency. Caller holds s.mu.
func (s *shard) freq(el *list.Element) int {
	return s.sk.estimate(el.Value.(*cacheEntry).hash)
}

// rebalance enforces the byte budget (and, with admission on, the
// segment caps) against the shard's own contents. It never evicts
// inserted except through the admission gate: when the just-inserted
// candidate loses the frequency comparison it is dropped — that IS the
// admission decision. Caller holds s.mu. Returns the current element
// for the inserted entry: moveToSeg relinks elements (container/list
// cannot move an element between lists), so callers must not keep
// using their pre-rebalance pointer.
func (s *shard) rebalanceLocked(c *LRU, inserted *list.Element) *list.Element {
	if s.sk == nil {
		// Plain LRU: evict this shard's LRU entries, never the entry
		// just stored — a value larger than the shard's prior contents
		// spills over to the cross-shard steal (and, failing that, the
		// last-resort fallback in Put).
		for c.bytes.Load() > c.budget {
			back := s.window.Back()
			if back == nil || back == inserted {
				return inserted
			}
			s.evictElLocked(back, &c.bytes)
		}
		return inserted
	}
	// Admission mode. 1) Over the global budget: drain the window
	// through the gate. The candidate is the window's LRU entry; the
	// victim is the main area's LRU entry. Strictly-more-frequent
	// candidates displace the victim into probation; the rest are
	// dropped.
	for c.bytes.Load() > c.budget && s.window.Len() > 0 {
		cand := s.window.Back()
		victim := s.mainVictimLocked()
		if victim == nil {
			if cand == inserted {
				// Nothing else resident in this shard: give the
				// cross-shard steal a chance before dropping it.
				return inserted
			}
			s.evictElLocked(cand, &c.bytes)
			s.rejected++
			continue
		}
		if s.freq(cand) > s.freq(victim) {
			s.evictElLocked(victim, &c.bytes)
			nel := s.moveToSegLocked(cand, segProbation)
			if cand == inserted {
				inserted = nel
			}
			s.admitted++
		} else {
			s.evictElLocked(cand, &c.bytes)
			s.rejected++
			if cand == inserted {
				return nil
			}
		}
	}
	// 2) Still over with an empty window: evict main entries,
	// probation first, never inserted (it may sit in probation or
	// protected after a re-put touch, or have just been admitted
	// above).
	for c.bytes.Load() > c.budget {
		victim := s.backExcludingLocked(inserted)
		if victim == nil {
			return inserted
		}
		s.evictElLocked(victim, &c.bytes)
	}
	// 3) Window over its warmup cap while under budget: spill into
	// probation without evicting anyone (the cache is not full, so
	// everything is admitted while it warms).
	for s.windowBytes > s.windowCap {
		back := s.window.Back()
		if back == nil {
			break
		}
		nel := s.moveToSegLocked(back, segProbation)
		if back == inserted {
			inserted = nel
		}
	}
	return inserted
}

// Put stores value under key with the given size in bytes, evicting
// entries as needed — from the key's own shard first (through the
// admission gate in LFU mode), then via a fair-share-capped steal from
// the other shards, and finally, if the budget still cannot fund the
// insert, by dropping the inserted entry itself, so Stats().Bytes <=
// budget holds after every Put. Values larger than the whole budget
// are not cached. Re-putting a key updates its value, size and
// recency.
func (c *LRU) Put(key string, value any, size int64) {
	if size < 0 {
		size = 0
	}
	if size > c.budget || c.budget <= 0 {
		return
	}
	idx := c.shardIdx(key)
	s := c.shards[idx]
	s.mu.Lock()
	s.puts++
	candFreq := -1
	var h uint64
	if s.sk != nil {
		h = fnv64a(key)
		s.sk.add(h)
		candFreq = s.sk.estimate(h)
	}
	var inserted *list.Element
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		delta := size - e.size
		e.value, e.size = value, size
		*s.segBytesLocked(e.seg) += delta
		s.bytes += delta
		c.bytes.Add(delta)
		inserted = s.touchLocked(el)
	} else {
		e := &cacheEntry{key: key, value: value, size: size, seg: segWindow, hash: h}
		inserted = s.window.PushFront(e)
		s.entries[key] = inserted
		s.windowBytes += size
		s.bytes += size
		c.bytes.Add(size)
	}
	// rebalance may relink the inserted element (segment moves create
	// a new *list.Element) or gate-reject it (nil): track the current
	// element so the fallback below matches the right one.
	inserted = s.rebalanceLocked(c, inserted)
	over := c.bytes.Load() > c.budget
	s.mu.Unlock()

	// The owning shard ran dry (or the gate kept the inserted entry)
	// but the total is still over budget: steal evictions from the
	// other shards, one lock at a time, capped so no neighbor drops
	// below its fair share of what the budget leaves after this value.
	// Cross-shard eviction order is approximate LRU; the byte bound is
	// exact.
	if over && len(c.shards) > 1 {
		c.stealForBudget(idx, size, candFreq)
	}

	// Last resort: the capped steal could not fund the insert (every
	// neighbor at its floor, or their victims out-ranked the
	// candidate). Evict the inserted entry itself rather than leaving
	// the cache over budget — the invariant beats residency. inserted
	// == nil means the gate already rejected it in rebalance.
	if inserted != nil && c.bytes.Load() > c.budget {
		s.mu.Lock()
		if el, ok := s.entries[key]; ok && el == inserted && c.bytes.Load() > c.budget {
			s.evictElLocked(el, &c.bytes)
			s.rejected++
		}
		s.mu.Unlock()
	}
}

// stealForBudget evicts from the other shards until the cache is back
// under budget, leaving each neighbor at least its fair share of the
// post-insert budget, floor = (budget - incoming)/shards. With
// admission on, a neighbor's victim that is estimated more frequent
// than the incoming key refuses the steal (the gate applies across
// shards too), moving on to the next shard.
func (c *LRU) stealForBudget(idx uint32, incoming int64, candFreq int) {
	floor := (c.budget - incoming) / int64(len(c.shards))
	if floor < 0 {
		floor = 0
	}
	for i := 1; i < len(c.shards) && c.bytes.Load() > c.budget; i++ {
		sh := c.shards[(int(idx)+i)%len(c.shards)]
		sh.mu.Lock()
		for c.bytes.Load() > c.budget && sh.bytes > floor {
			victim := sh.backExcludingLocked(nil)
			if victim == nil {
				break
			}
			if sh.bytes-victim.Value.(*cacheEntry).size < floor {
				// Evicting this victim would drain the shard below its
				// floor — the guarantee is hard, not to-within-one-
				// entry, so a shard of few large entries surrenders
				// nothing rather than everything.
				break
			}
			if sh.sk != nil && candFreq >= 0 && sh.freq(victim) > candFreq {
				break
			}
			sh.evictElLocked(victim, &c.bytes)
		}
		sh.mu.Unlock()
	}
}

// Remove drops key if present.
func (c *LRU) Remove(key string) {
	s := c.shards[c.shardIdx(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.removeElLocked(el, &c.bytes)
	}
}

// RemoveIf drops every entry whose key match accepts and returns how
// many went — the scoped counterpart of Clear, for an update that knows
// which cached windows it touched. It is a sweep over every resident key
// (BenchmarkInvalidateSweep prices it); the frequency sketch is kept,
// since the untouched keys' popularity still describes the workload.
// match runs outside the shard locks, on a snapshot of each shard's keys:
// an entry stored while the sweep passes is not examined, so the caller
// must already be refusing stale stores (the server's generation check).
func (c *LRU) RemoveIf(match func(key string) bool) int {
	removed := 0
	var keys []string
	for _, s := range c.shards {
		keys = keys[:0]
		s.mu.Lock()
		for k := range s.entries {
			keys = append(keys, k)
		}
		s.mu.Unlock()
		hit := keys[:0]
		for _, k := range keys {
			if match(k) {
				hit = append(hit, k)
			}
		}
		if len(hit) == 0 {
			continue
		}
		s.mu.Lock()
		for _, k := range hit {
			if el, ok := s.entries[k]; ok {
				s.removeElLocked(el, &c.bytes)
				removed++
			}
		}
		s.mu.Unlock()
	}
	return removed
}

// Clear empties the cache, keeping statistics. With admission on the
// frequency sketch is reset too: Clear follows a data update, after
// which the old popularity histogram no longer describes the data.
func (c *LRU) Clear() {
	for _, s := range c.shards {
		s.mu.Lock()
		c.bytes.Add(-s.bytes)
		s.bytes = 0
		s.windowBytes, s.probationBytes, s.protectedBytes = 0, 0, 0
		s.entries = make(map[string]*list.Element)
		s.window.Init()
		s.probation.Init()
		s.protected.Init()
		if s.sk != nil {
			s.sk.reset()
		}
		s.mu.Unlock()
	}
}

// Stats returns a snapshot of cache statistics summed across shards.
// The snapshot is per-shard consistent, not globally atomic: shards
// are read one at a time, so concurrent mutation can skew totals
// slightly.
func (c *LRU) Stats() Stats {
	var st Stats
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Puts += s.puts
		st.Admitted += s.admitted
		st.Rejected += s.rejected
		st.Entries += len(s.entries)
		s.mu.Unlock()
	}
	st.Bytes = c.bytes.Load()
	return st
}

// HitRatio returns hits/(hits+misses) from a stats snapshot, 0 when no
// lookups were recorded.
func (st Stats) HitRatio() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// ResetStats zeroes the counters (budget and contents unchanged).
func (c *LRU) ResetStats() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.hits, s.misses, s.evictions, s.puts = 0, 0, 0, 0
		s.admitted, s.rejected = 0, 0
		s.mu.Unlock()
	}
}

// shardBytes reports one shard's resident bytes (tests use it to
// assert the steal floor).
func (c *LRU) shardBytes(i int) int64 {
	s := c.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}
