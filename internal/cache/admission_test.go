package cache

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"kyrix/internal/geom"
	"kyrix/internal/workload"
)

// lfuConfig is the standard admission-enabled test cache: 4 MB over 4
// shards (the smallest budget that still shards).
func lfuConfig() Config {
	return Config{Budget: 4 << 20, Shards: 4, Admission: AdmissionLFU}
}

// replay drives a key stream through the cache the way the server
// does: Get, and Put on a miss. Returns the stream's hit ratio.
func replay(c *LRU, keys []string, size int64) float64 {
	c.ResetStats()
	for _, k := range keys {
		if _, ok := c.Get(k); !ok {
			c.Put(k, k, size)
		}
	}
	return c.Stats().HitRatio()
}

// traceTileKeys flattens a viewport trace into per-step tile keys at
// the given tile size — the request stream the backend cache sees.
func traceTileKeys(prefix string, tr *workload.Trace, tile float64) []string {
	var keys []string
	for _, r := range tr.Steps {
		for ty := math.Floor(r.MinY / tile); ty*tile < r.MaxY; ty++ {
			for tx := math.Floor(r.MinX / tile); tx*tile < r.MaxX; tx++ {
				keys = append(keys, fmt.Sprintf("%s/%g/%g/%g", prefix, tile, tx, ty))
			}
		}
	}
	return keys
}

// mixedZipfScanKeys is the adversarial trace of the admission tests: a
// zipf-hot-set pan/zoom stream with periodic one-shot sequential scan
// bursts, flattened to tile keys.
func mixedZipfScanKeys(seed int64) []string {
	canvas := geom.Rect{MinX: 0, MinY: 0, MaxX: 512 * 1024, MaxY: 512 * 1024}
	zipf := workload.ZipfHotSetTrace(workload.ZipfOptions{
		Canvas: canvas, TileSize: 1024, HotSpots: 160, Skew: 1.2,
		Steps: 6000, VpW: 1024, VpH: 1024, LayoutSeed: 11, Seed: seed,
	})
	// The scan sweeps a disjoint region so its tiles never coincide
	// with the hot set.
	scanCanvas := geom.Rect{MinX: 600 * 1024, MinY: 0, MaxX: 664 * 1024, MaxY: 48 * 1024}
	scan := workload.SequentialScanTrace(scanCanvas, 1024, 1024)
	mixed := workload.InterleaveTrace("mixed", zipf, scan, 20, 20, 6000)
	return traceTileKeys("t", mixed, 1024)
}

const tileBytes = 16 << 10 // 256 tiles fit in the 4 MB test budget

func TestAdmissionBasicCaching(t *testing.T) {
	c := New(lfuConfig())
	c.Put("a", 1, 100)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get = %v %v", v, ok)
	}
	c.Put("a", 2, 200)
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatalf("re-put value = %v", v)
	}
	if st := c.Stats(); st.Bytes != 200 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	c.Remove("a")
	if _, ok := c.Get("a"); ok {
		t.Fatal("a not removed")
	}
}

// An admitting cache under budget admits everything (the warmup
// bypass): admission only gates once the budget is contended.
func TestAdmissionWarmupAdmitsAll(t *testing.T) {
	c := New(lfuConfig())
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("w-%d", i), i, tileBytes)
	}
	st := c.Stats()
	if st.Entries != 100 || st.Rejected != 0 {
		t.Fatalf("warmup stats = %+v", st)
	}
}

// Once full, a one-shot key must not displace a hot entry, and a key
// that keeps being requested must be admitted on a later touch.
func TestAdmissionSecondTouch(t *testing.T) {
	c := New(Config{Budget: 1 << 20, Shards: 1, Admission: AdmissionLFU})
	if c.ShardCount() != 1 {
		t.Fatalf("shards = %d", c.ShardCount())
	}
	const n = 64
	hot := make([]string, n)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot-%d", i)
		c.Put(hot[i], i, tileBytes) // fills the budget exactly
	}
	for round := 0; round < 2; round++ {
		for _, k := range hot {
			if _, ok := c.Get(k); !ok {
				t.Fatalf("hot key %s lost during warmup", k)
			}
		}
	}
	// One-shot insert: rejected (its frequency, 1, does not beat any
	// resident victim), and the budget invariant holds.
	c.Put("cold-once", "x", tileBytes)
	if _, ok := c.Peek("cold-once"); ok {
		t.Fatal("one-shot key displaced a hot entry")
	}
	st := c.Stats()
	if st.Rejected == 0 {
		t.Fatalf("rejection not counted: %+v", st)
	}
	if st.Bytes > 1<<20 {
		t.Fatalf("over budget: %d", st.Bytes)
	}
	// A key that keeps being requested builds sketch frequency on its
	// misses and wins admission.
	for i := 0; i < 8; i++ {
		c.Get("cold-riser")
	}
	c.Put("cold-riser", "y", tileBytes)
	if _, ok := c.Peek("cold-riser"); !ok {
		t.Fatal("repeatedly requested key was never admitted")
	}
	if st := c.Stats(); st.Admitted == 0 {
		t.Fatalf("admission not counted: %+v", st)
	}
}

// Probation entries are promoted to protected on re-access; protected
// overflow demotes back to probation.
func TestProtectedPromotion(t *testing.T) {
	c := New(Config{Budget: 1 << 20, Shards: 1, Admission: AdmissionLFU})
	s := c.shards[0]
	// Fill past the window cap so entries spill into probation.
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("p-%d", i)
		c.Put(keys[i], i, tileBytes)
	}
	seg := func(k string) segment {
		s.mu.Lock()
		defer s.mu.Unlock()
		el, ok := s.entries[k]
		if !ok {
			t.Fatalf("key %s not resident", k)
		}
		return el.Value.(*cacheEntry).seg
	}
	if got := seg(keys[0]); got != segProbation {
		t.Fatalf("spilled entry in segment %d, want probation", got)
	}
	c.Get(keys[0])
	if got := seg(keys[0]); got != segProtected {
		t.Fatalf("re-accessed entry in segment %d, want protected", got)
	}
	// Promote enough entries to overflow protectedCap (~80% of the
	// shard share): early promotions must be demoted back.
	for _, k := range keys {
		c.Get(k)
	}
	s.mu.Lock()
	pb, pc := s.protectedBytes, s.protectedCap
	s.mu.Unlock()
	if pb > pc {
		t.Fatalf("protected segment over its cap: %d > %d", pb, pc)
	}
	if got := seg(keys[0]); got != segProbation {
		t.Fatalf("oldest promotion in segment %d, want demoted to probation", got)
	}
}

// Regression (ISSUE 4 bugfix 1): the eviction loop must never leave
// the cache over budget after a Put — including grown re-puts of a
// shard's sole entry, where the loop's "never evict the entry just
// stored" rule used to have no fallback.
func TestRePutGrownBudgetInvariant(t *testing.T) {
	const budget = 1000
	c := NewLRUSharded(budget, 1)
	check := func(step string) {
		t.Helper()
		if st := c.Stats(); st.Bytes > budget {
			t.Fatalf("%s: bytes %d > budget %d", step, st.Bytes, budget)
		}
	}
	c.Put("a", 1, 100)
	check("put a=100")
	c.Put("a", 2, 900) // grown re-put of the sole entry
	check("re-put a=900")
	c.Put("b", 3, 500)
	check("put b=500")
	c.Put("a", 4, 1000) // grown re-put to the full budget
	check("re-put a=1000")
	if v, ok := c.Get("a"); !ok || v.(int) != 4 {
		t.Fatalf("a = %v %v", v, ok)
	}
	c.Put("b", 5, 600)
	check("put b=600 after full-budget a")
	// And with admission on.
	c2 := New(Config{Budget: 1 << 20, Shards: 1, Admission: AdmissionLFU})
	c2.Put("a", 1, 100)
	c2.Put("a", 2, 1<<20)
	if st := c2.Stats(); st.Bytes > 1<<20 {
		t.Fatalf("lfu re-put: bytes %d over budget", st.Bytes)
	}
}

// Regression (ISSUE 4 bugfix 1, cross-shard form): when the capped
// steal cannot fund an insert — every neighbor victim out-ranks the
// candidate — the inserted entry itself is evicted rather than leaving
// bytes > budget forever.
func TestInsertEvictedWhenStealRefused(t *testing.T) {
	c := New(lfuConfig())
	// Leave shard 0 empty; fill the other shards to the full budget
	// with hot (frequently accessed) entries.
	var hot []string
	for i := 0; len(hot) < 3*64; i++ {
		k := fmt.Sprintf("hot-%d", i)
		if c.shardIdx(k) != 0 {
			hot = append(hot, k)
		}
	}
	share := int64(4<<20) / 3 / 64
	for _, k := range hot {
		c.Put(k, k, share)
	}
	for round := 0; round < 3; round++ {
		for _, k := range hot {
			c.Get(k)
		}
	}
	// A cold one-shot value lands on the empty shard 0: its own shard
	// has no victims, every neighbor's victim is hotter, so the insert
	// must be dropped to preserve the invariant.
	cold := keysForShard(c, 0, "cold", 1)[0]
	c.Put(cold, "x", 512<<10)
	st := c.Stats()
	if st.Bytes > 4<<20 {
		t.Fatalf("bytes %d over budget after refused steal", st.Bytes)
	}
	if _, ok := c.Peek(cold); ok {
		t.Fatal("cold one-shot value admitted over hot neighbors")
	}
	if st.Rejected == 0 {
		t.Fatalf("fallback rejection not counted: %+v", st)
	}
	// The same key, requested repeatedly, builds frequency and then
	// wins the cross-shard gate.
	for i := 0; i < 20; i++ {
		c.Get(cold)
	}
	c.Put(cold, "y", 512<<10)
	if _, ok := c.Peek(cold); !ok {
		t.Fatal("hot-by-now key still refused across shards")
	}
	if st := c.Stats(); st.Bytes > 4<<20 {
		t.Fatalf("bytes %d over budget after admitted steal", st.Bytes)
	}
}

// keysForShard generates n keys that hash to the given shard.
func keysForShard(c *LRU, shard uint32, prefix string, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		if c.shardIdx(k) == shard {
			keys = append(keys, k)
		}
	}
	return keys
}

// Regression (ISSUE 4 bugfix 2): the cross-shard eviction steal is
// capped at a fair share — one oversized cold insert can no longer
// empty a warm neighbor shard (it used to drain shards to zero in
// order until the budget was met).
func TestStealFloorProtectsNeighbors(t *testing.T) {
	const budget = 16 << 20
	c := NewLRUSharded(budget, 8)
	if c.ShardCount() != 8 {
		t.Fatalf("shards = %d", c.ShardCount())
	}
	// Warm every shard to its 2 MB share.
	const entry = 128 << 10
	for sh := uint32(0); sh < 8; sh++ {
		for _, k := range keysForShard(c, sh, fmt.Sprintf("warm-%d", sh), 16) {
			c.Put(k, k, entry)
		}
	}
	if st := c.Stats(); st.Bytes != budget {
		t.Fatalf("warm fill = %d bytes, want %d", st.Bytes, budget)
	}
	// One 8 MB cold value into shard 0. Fair-share floor:
	// (budget - size) / shards = 1 MB per neighbor.
	big := keysForShard(c, 0, "big", 1)[0]
	c.Put(big, "payload", 8<<20)
	if _, ok := c.Peek(big); !ok {
		t.Fatal("oversized value not cached")
	}
	st := c.Stats()
	if st.Bytes > budget {
		t.Fatalf("bytes %d over budget", st.Bytes)
	}
	const floor = (budget - 8<<20) / 8
	for i := 1; i < 8; i++ {
		if got := c.shardBytes(i); got < floor {
			t.Fatalf("neighbor shard %d drained to %d bytes (floor %d)", i, got, floor)
		}
	}
	// Repeats keep the floor: no sequence of oversized inserts empties
	// a neighbor.
	for r := 0; r < 4; r++ {
		k := keysForShard(c, 0, fmt.Sprintf("big%d", r), 1)[0]
		c.Put(k, "payload", 8<<20)
		for i := 1; i < 8; i++ {
			if got := c.shardBytes(i); got < floor {
				t.Fatalf("round %d: neighbor shard %d drained to %d bytes", r, i, got)
			}
		}
	}
}

// Property: bytes never exceed budget under random op sequences, with
// admission off and on.
func TestQuickBudgetInvariantAdmission(t *testing.T) {
	for _, adm := range []Admission{AdmissionOff, AdmissionLFU} {
		t.Run(string(adm), func(t *testing.T) {
			f := func(ops []struct {
				Key  uint8
				Size uint32
				Get  bool
			}) bool {
				const budget = 4 << 20
				c := New(Config{Budget: budget, Shards: 4, Admission: adm})
				for _, op := range ops {
					k := fmt.Sprintf("k%d", op.Key%64)
					if op.Get {
						c.Get(k)
						continue
					}
					c.Put(k, nil, int64(op.Size%(budget+budget/2)))
					if st := c.Stats(); st.Bytes > budget {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The satellite admission-quality property: replaying the mixed
// zipf+scan trace, the admitting sharded cache must match or beat
// plain sharded LRU and unsharded LRU; on a uniform trace it must be
// no more than 5 points worse than plain LRU.
func TestAdmissionQualityMixedTrace(t *testing.T) {
	keys := mixedZipfScanKeys(1)
	lfuHit := replay(New(lfuConfig()), keys, tileBytes)
	lruHit := replay(New(Config{Budget: 4 << 20, Shards: 4}), keys, tileBytes)
	unshardedHit := replay(New(Config{Budget: 4 << 20, Shards: 1}), keys, tileBytes)
	t.Logf("mixed zipf+scan hit ratios: lfu=%.3f sharded-lru=%.3f unsharded-lru=%.3f",
		lfuHit, lruHit, unshardedHit)
	if lfuHit < lruHit {
		t.Fatalf("admitting cache (%.3f) worse than sharded LRU (%.3f) on the skewed trace",
			lfuHit, lruHit)
	}
	if lfuHit < unshardedHit {
		t.Fatalf("admitting cache (%.3f) worse than unsharded LRU (%.3f) on the skewed trace",
			lfuHit, unshardedHit)
	}
}

func TestAdmissionQualityUniformTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keys := make([]string, 12000)
	for i := range keys {
		keys[i] = fmt.Sprintf("u/%d", rng.Intn(400))
	}
	lfuHit := replay(New(lfuConfig()), keys, tileBytes)
	lruHit := replay(New(Config{Budget: 4 << 20, Shards: 4}), keys, tileBytes)
	t.Logf("uniform hit ratios: lfu=%.3f sharded-lru=%.3f", lfuHit, lruHit)
	if lfuHit < lruHit-0.05 {
		t.Fatalf("admitting cache (%.3f) more than 5 pts worse than LRU (%.3f) on uniform",
			lfuHit, lruHit)
	}
}

// -race stress over the admitting cache: concurrent Put/Get/Clear/
// Stats/Remove exercising the sketch under every shard lock.
func TestAdmissionConcurrentStress(t *testing.T) {
	const budget = 4 << 20
	c := New(Config{Budget: budget, Shards: 4, Admission: AdmissionLFU})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 3000; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(512))
				switch {
				case i%97 == 0:
					c.Clear()
				case i%31 == 0:
					c.Remove(k)
				case i%7 == 0:
					c.Stats()
				case i%2 == 0:
					c.Put(k, i, int64(rng.Intn(64<<10)))
				default:
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > budget {
		t.Fatalf("budget exceeded after stress: %d", st.Bytes)
	}
	if st.Bytes < 0 {
		t.Fatalf("negative byte count after stress: %d", st.Bytes)
	}
}

// BenchmarkHitRatioZipf reports the mixed zipf+scan hit ratio as a
// benchstat custom metric ("hit-ratio"), with admission off vs on —
// the CI bench-regression job tracks it across PRs next to the timing
// columns.
func BenchmarkHitRatioZipf(b *testing.B) {
	keys := mixedZipfScanKeys(1)
	for _, adm := range []Admission{AdmissionOff, AdmissionLFU} {
		b.Run("admission="+string(adm), func(b *testing.B) {
			var hit float64
			for i := 0; i < b.N; i++ {
				c := New(Config{Budget: 4 << 20, Shards: 4, Admission: adm})
				hit = replay(c, keys, tileBytes)
			}
			b.ReportMetric(hit, "hit-ratio")
			b.ReportMetric(float64(len(keys)), "keys/op")
		})
	}
}

// BenchmarkHitRatioScan replays a pure one-shot sequential scan over a
// warm zipf hot set: the admitting cache should keep its hot-set hit
// ratio through the scan, plain LRU gets flushed.
func BenchmarkHitRatioScan(b *testing.B) {
	canvas := geom.Rect{MinX: 0, MinY: 0, MaxX: 512 * 1024, MaxY: 512 * 1024}
	warm := traceTileKeys("t", workload.ZipfHotSetTrace(workload.ZipfOptions{
		Canvas: canvas, TileSize: 1024, HotSpots: 160, Skew: 1.2,
		Steps: 4000, VpW: 1024, VpH: 1024, LayoutSeed: 11, Seed: 1,
	}), 1024)
	scanCanvas := geom.Rect{MinX: 600 * 1024, MinY: 0, MaxX: 664 * 1024, MaxY: 48 * 1024}
	scan := traceTileKeys("t", workload.SequentialScanTrace(scanCanvas, 1024, 1024), 1024)
	probe := traceTileKeys("t", workload.ZipfHotSetTrace(workload.ZipfOptions{
		Canvas: canvas, TileSize: 1024, HotSpots: 160, Skew: 1.2,
		Steps: 2000, VpW: 1024, VpH: 1024, LayoutSeed: 11, Seed: 2,
	}), 1024)
	for _, adm := range []Admission{AdmissionOff, AdmissionLFU} {
		b.Run("admission="+string(adm), func(b *testing.B) {
			var hit float64
			for i := 0; i < b.N; i++ {
				c := New(Config{Budget: 4 << 20, Shards: 4, Admission: adm})
				replay(c, warm, tileBytes)
				replay(c, scan, tileBytes)
				hit = replay(c, probe, tileBytes)
			}
			b.ReportMetric(hit, "hit-ratio")
		})
	}
}

// Regression (post-review): moveToSeg relinks elements, so a
// candidate that WINS admission used to leave Put holding a stale
// `inserted` pointer — the step-2 eviction loop (documented to never
// evict the inserted entry) could then evict the freshly admitted
// entry and drain its shard. A hot key that wins the gate must stay
// resident.
func TestAdmittedInsertSurvivesRebalance(t *testing.T) {
	c := New(lfuConfig())
	// Shard 0 holds a little cold data; shards 1-3 hold the bulk, so
	// after the insert the shard must evict (gate) and then the global
	// budget still needs cross-shard help.
	for _, k := range keysForShard(c, 0, "cold", 8) {
		c.Put(k, k, 64<<10)
	}
	var rest []string
	for i := 0; len(rest) < 3*56; i++ {
		k := fmt.Sprintf("bulk-%d", i)
		if c.shardIdx(k) != 0 {
			rest = append(rest, k)
		}
	}
	for _, k := range rest {
		c.Put(k, k, (4<<20-8*64<<10)/int64(3*56))
	}
	// Build top frequency for the incoming key, then insert 1 MB.
	hot := keysForShard(c, 0, "hot", 1)[0]
	for i := 0; i < 20; i++ {
		c.Get(hot)
	}
	c.Put(hot, "payload", 1<<20)
	if _, ok := c.Peek(hot); !ok {
		t.Fatal("admitted hot insert was evicted by its own rebalance")
	}
	st := c.Stats()
	if st.Bytes > 4<<20 {
		t.Fatalf("bytes %d over budget", st.Bytes)
	}
	if st.Admitted == 0 {
		t.Fatalf("expected a gate admission: %+v", st)
	}
}

// Regression (post-review): the steal floor is a hard guarantee, not
// to-within-one-entry — a neighbor shard holding ONE large entry must
// not be drained to zero by the cross-shard steal (evicting its only
// entry would land it below the floor, so it surrenders nothing and
// the unfundable insert is dropped instead).
func TestStealFloorHoldsForLargeEntries(t *testing.T) {
	const budget = 16 << 20
	c := NewLRUSharded(budget, 8)
	// Every shard warm with a single 2 MB entry (its full share).
	for sh := uint32(0); sh < 8; sh++ {
		k := keysForShard(c, sh, fmt.Sprintf("whale-%d", sh), 1)[0]
		c.Put(k, k, 2<<20)
	}
	if st := c.Stats(); st.Bytes != budget {
		t.Fatalf("warm fill = %d bytes", st.Bytes)
	}
	// An 8 MB insert into shard 0: floor = 1 MB, and every neighbor
	// can only offer its single 2 MB entry, which would leave it at 0
	// — below the floor. Nothing is surrendered; the insert is dropped
	// by the last-resort fallback and the invariant holds.
	big := keysForShard(c, 0, "big", 1)[0]
	c.Put(big, "payload", 8<<20)
	if st := c.Stats(); st.Bytes > budget {
		t.Fatalf("bytes %d over budget", st.Bytes)
	}
	for i := 1; i < 8; i++ {
		if got := c.shardBytes(i); got != 2<<20 {
			t.Fatalf("neighbor shard %d drained to %d bytes", i, got)
		}
	}
	if _, ok := c.Peek(big); ok {
		t.Fatal("unfundable insert should have been dropped, not funded by draining neighbors")
	}
}

// TestAdmissionPrecisionScanWorkload: warm a hot set under a contended
// budget, run a long one-shot scan, and the admitting cache keeps the
// entire hot set resident — every scan key is seen once, never more
// often than the victim it would displace — while the plain LRU loses
// it to the scan.
func TestAdmissionPrecisionScanWorkload(t *testing.T) {
	hot := make([]string, 16)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot/%d", i)
	}
	run := func(adm Admission) float64 {
		c := New(Config{Budget: 64 << 10, Shards: 1, Admission: adm})
		const entry = 2 << 10 // 32 entries fill the 64 KB budget
		// Warm the hot set: three touches each (Get records frequency,
		// Put inserts), filling half the budget.
		for _, k := range hot {
			c.Get(k)
			c.Put(k, k, entry)
			c.Get(k)
			c.Get(k)
		}
		// Fill the rest of the budget with background entries so the
		// scan below contends the gate instead of free space.
		for i := 0; i < 16; i++ {
			k := fmt.Sprintf("bg/%d", i)
			c.Get(k)
			c.Put(k, k, entry)
			c.Get(k)
		}
		// One-shot scan: distinct keys, each fetched exactly once (Get
		// miss, then the fill's Put — the serving path's shape).
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("scan/%d", i)
			c.Get(k)
			c.Put(k, k, entry)
		}
		hits := 0
		for _, k := range hot {
			if c.Contains(k) {
				hits++
			}
		}
		return float64(hits) / float64(len(hot))
	}
	lfu, lru := run(AdmissionLFU), run(AdmissionOff)
	if lfu < 1 {
		t.Fatalf("admitting cache kept only %.0f%% of the hot set through the scan, want 100%%", 100*lfu)
	}
	if lru >= lfu {
		t.Fatalf("control broken: the plain LRU kept %.0f%% of the hot set too, so the test proves nothing", 100*lru)
	}
}
