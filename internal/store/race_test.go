package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentAccess drives Get/Put/Bump/Snapshot from many
// goroutines at once; run with -race. Correctness bar: no data race,
// no panic, and every hit returns bytes that some Put actually wrote
// for that key.
func TestConcurrentAccess(t *testing.T) {
	opts := testOptions(t)
	opts.MaxBytes = 256 << 10
	opts.SegmentBytes = 16 << 10
	s := mustOpen(t, opts)

	const (
		writers = 4
		readers = 4
		keys    = 32
		iters   = 300
	)
	valFor := func(k, i int) []byte {
		return bytes.Repeat([]byte{byte(k + 1)}, 16+i%64)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (w*iters + i) % keys
				s.Put(fmt.Sprintf("k%d", k), valFor(k, i))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (r*iters + i) % keys
				got, ok := s.Get(fmt.Sprintf("k%d", k))
				if ok {
					// Every byte must be the key's fill byte: a mixed
					// or foreign payload means a torn read.
					for _, b := range got {
						if b != byte(k+1) {
							t.Errorf("torn read for k%d: %x", k, got)
							return
						}
					}
				}
				if i%100 == 0 {
					_ = s.Snapshot()
				}
			}
		}(r)
	}
	// One goroutine invalidating mid-flight: whole-tier bumps and
	// per-key tombstones.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			time.Sleep(2 * time.Millisecond)
			if _, err := s.Bump(); err != nil {
				t.Errorf("Bump: %v", err)
				return
			}
			if _, err := s.Invalidate(func(k string) bool { return len(k)%2 == i%2 }); err != nil {
				t.Errorf("Invalidate: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen after the storm: must come up clean.
	s2 := mustOpen(t, opts)
	defer s2.Close()
	_ = s2.Snapshot()
}

// TestConcurrentCloseVsPut races Close against in-flight Puts; -race
// must stay quiet and no Put may panic on the closed queue.
func TestConcurrentCloseVsPut(t *testing.T) {
	for round := 0; round < 10; round++ {
		s := mustOpen(t, testOptions(t))
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					s.Put(fmt.Sprintf("k%d-%d", w, i), []byte("v"))
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
		wg.Wait()
	}
}
