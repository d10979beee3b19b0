package cache_test

import (
	"fmt"
	"sync"
	"testing"

	"kyrix/internal/cache"
	"kyrix/internal/fetch"
	"kyrix/internal/geom"
)

// TestRemoveIf: exactly the matching entries go, bytes and entry counts
// follow, survivors keep their values, and — unlike Clear — the admission
// sketch keeps what it learned.
func TestRemoveIf(t *testing.T) {
	for _, adm := range []cache.Admission{cache.AdmissionOff, cache.AdmissionLFU} {
		c := cache.New(cache.Config{Budget: 64 << 20, Shards: 8, Admission: adm})
		for i := 0; i < 1000; i++ {
			k := fmt.Sprintf("k%d", i)
			c.Put(k, i, 100)
			c.Get(k) // a second touch: promoted out of the window with admission on
		}
		freq := c.EstimateFreq("k7")
		removed := c.RemoveIf(func(k string) bool { return k[len(k)-1] == '3' })
		if removed != 100 {
			t.Fatalf("%s: removed %d, want 100", adm, removed)
		}
		st := c.Stats()
		if st.Entries != 900 || st.Bytes != 900*100 {
			t.Fatalf("%s: %d entries / %d bytes after the sweep", adm, st.Entries, st.Bytes)
		}
		for i := 0; i < 1000; i++ {
			v, ok := c.Peek(fmt.Sprintf("k%d", i))
			if gone := i%10 == 3; ok == gone || (ok && v.(int) != i) {
				t.Fatalf("%s: k%d present=%v value=%v", adm, i, ok, v)
			}
		}
		if got := c.EstimateFreq("k7"); got != freq {
			t.Fatalf("%s: sweep changed a survivor's frequency estimate %d -> %d", adm, freq, got)
		}
		if c.RemoveIf(func(string) bool { return false }) != 0 {
			t.Fatalf("%s: an all-false sweep removed something", adm)
		}
		// The budget accounting survived: the cache still fills and evicts.
		c.Put("again", 1, 100)
		if _, ok := c.Peek("again"); !ok {
			t.Fatalf("%s: Put after a sweep did not store", adm)
		}
	}
}

// TestRemoveIfConcurrent: sweeps race Get/Put without corrupting the
// lists or the byte count (run with -race).
func TestRemoveIfConcurrent(t *testing.T) {
	c := cache.New(cache.Config{Budget: 1 << 20, Shards: 4, Admission: cache.AdmissionLFU})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				k := fmt.Sprintf("k%d", (i*7+g)%600)
				if _, ok := c.Get(k); !ok {
					c.Put(k, i, 4096)
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		c.RemoveIf(func(k string) bool { return len(k)%2 == i%2 })
	}
	wg.Wait()
	c.RemoveIf(func(string) bool { return true })
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after a full sweep: %d entries, %d bytes", st.Entries, st.Bytes)
	}
}

// BenchmarkInvalidateSweep prices one scoped invalidation over a resident
// set: every key parsed back to its window (fetch.KeyWindow) and tested
// against one rectangle, as the server's update path does. It is the case
// against keeping an R-tree over cached windows: that index would need
// eviction callbacks out of all three W-TinyLFU segments to stay coherent,
// and this is what it would save per update.
func BenchmarkInvalidateSweep(b *testing.B) {
	for _, n := range []int{1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("entries=%dk", n>>10), func(b *testing.B) {
			c := cache.New(cache.Config{Budget: 1 << 40, Admission: cache.AdmissionLFU})
			for i := 0; i < n; i++ {
				x, y := float64(i%512)*640.5, float64(i/512)*640.5
				c.Put("binary/"+fetch.BoxKeyOf("main/0", geom.Rect{MinX: x, MinY: y, MaxX: x + 1536, MaxY: y + 1536}), i, 1)
			}
			dot := geom.RectAround(geom.Point{X: 1000, Y: 1000}, 4)
			touches := func(key string) bool {
				_, w, ok := fetch.KeyWindow(key[len("binary/"):])
				return !ok || w.Intersects(dot)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The touched entries go on the first pass; every later one
				// is the steady cost of examining n keys.
				c.RemoveIf(touches)
			}
		})
	}
}
