package store

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzStoreReopen runs a fuzzed sequence of Put, Invalidate, Bump, Flush
// and close+reopen over four keys, in a store small enough that
// segments rotate and are evicted with salvage. Each input byte is one
// operation: its low three bits pick the operation, bits 4–5 the key,
// bits 6–7 the value's length. After every operation, and so before and
// after every reopen, Get must never return a value written before the
// key's last Invalidate or the store's last Bump, and a reopen must
// come back at the generation the store closed with. Misses are
// allowed: the store is a cache, and a fill may be dropped or evicted.
func FuzzStoreReopen(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x20, 0x30, 0x05, 0x06, 0x03, 0x06})
	f.Add([]byte{0xc0, 0xd0, 0xe0, 0xf0, 0xc1, 0xd1, 0xe1, 0xf1, 0x05, 0x13, 0x04, 0x06, 0xc0, 0x06})
	f.Add([]byte{0x00, 0x04, 0x10, 0x06, 0x05, 0x06, 0x20, 0x23, 0x05, 0x06})
	f.Add([]byte(strings.Repeat("\xc0\xd1\xe2\xf0\x05", 6) + "\x03\x06\x13\x06\x04\x06"))
	f.Add([]byte(strings.Repeat("\xc0\xd1\xe2\xf0\x05", 4) + "\x13\xc0\x05\x06" + strings.Repeat("\xc0\xd0\x05", 4)))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 96 {
			ops = ops[:96]
		}
		opts := Options{
			Path:            filepath.Join(t.TempDir(), "l2"),
			MaxBytes:        2048,
			SegmentBytes:    512,
			WriteQueueDepth: 64,
			// Fills reach disk only on a full batch, Flush or Close, so
			// an input replays the same way every time.
			FlushInterval: time.Hour,
		}
		s, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if s != nil {
				_ = s.Close()
			}
		}()

		const keys = 4
		// floor[k] is the sequence number of key k's last Invalidate and
		// bump that of the last Bump: a value written at or before
		// either must never be read back.
		var floor [keys]int
		bump := 0
		check := func(seq int, what string) {
			for k := range keys {
				key := fmt.Sprintf("tile/%d", k)
				v, ok := s.Get(key)
				if !ok {
					continue
				}
				owner, rest, _ := strings.Cut(string(v), "#")
				n, err := strconv.Atoi(strings.TrimRight(rest, "."))
				if owner != key || err != nil {
					t.Fatalf("op %d (%s): Get(%s) = %q, not a value written to it", seq, what, key, v)
				}
				if n <= floor[k] || n <= bump {
					t.Fatalf("op %d (%s): Get(%s) = value of op %d, written before its last invalidation (op %d) or bump (op %d)",
						seq, what, key, n, floor[k], bump)
				}
			}
		}
		for i, op := range ops {
			seq := i + 1
			k := int(op>>4) % keys
			key := fmt.Sprintf("tile/%d", k)
			var what string
			switch op & 7 {
			case 3:
				what = "invalidate " + key
				if _, err := s.Invalidate(func(got string) bool { return got == key }); err != nil {
					t.Fatal(err)
				}
				floor[k] = seq
			case 4:
				what = "bump"
				if _, err := s.Bump(); err != nil {
					t.Fatal(err)
				}
				bump = seq
			case 5:
				what = "flush"
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			case 6:
				what = "reopen"
				gen := s.Generation()
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if s, err = Open(opts); err != nil {
					t.Fatal(err)
				}
				if got := s.Generation(); got != gen {
					t.Fatalf("op %d: reopened at generation %d, closed at %d", seq, got, gen)
				}
			default:
				what = "put " + key
				v := fmt.Sprintf("%s#%d", key, seq)
				pad := 40 + int(op>>6)*60
				s.Put(key, []byte(v+strings.Repeat(".", pad-len(v))))
			}
			check(seq, what)
		}
	})
}
