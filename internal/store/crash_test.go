package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// lastSegmentPath returns the path of the newest segment file in dir.
func lastSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	ids, err := listSegmentIDs(dir)
	if err != nil || len(ids) == 0 {
		t.Fatalf("listSegmentIDs: %v (n=%d)", err, len(ids))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return segPath(dir, ids[len(ids)-1])
}

// TestCrashTruncateLastSegment simulates a crash that tears the tail of
// the active segment at every possible byte offset: reopening must (a)
// never serve a torn or corrupt record and (b) keep every record whose
// frame survived the truncation intact.
func TestCrashTruncateLastSegment(t *testing.T) {
	opts := testOptions(t)
	s := mustOpen(t, opts)
	type entry struct {
		key string
		val []byte
	}
	var entries []entry
	for i := 0; i < 8; i++ {
		e := entry{
			key: fmt.Sprintf("tile/%d", i),
			val: bytes.Repeat([]byte{byte('a' + i)}, 20+i*7),
		}
		entries = append(entries, e)
		if !s.Put(e.key, e.val) {
			t.Fatal("Put dropped")
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segFile := lastSegmentPath(t, opts.Path)
	pristine, err := os.ReadFile(segFile)
	if err != nil {
		t.Fatal(err)
	}

	// Sweep every truncation point (the file is small by design).
	for cut := 0; cut <= len(pristine); cut += 1 {
		if err := os.WriteFile(segFile, pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(opts)
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		for _, e := range entries {
			got, ok := s2.Get(e.key)
			if ok && !bytes.Equal(got, e.val) {
				t.Fatalf("cut=%d: key %s served corrupt bytes %q", cut, e.key, got)
			}
		}
		// Records wholly before the cut must survive: replay the
		// pristine image to find which frames end before cut.
		survivors := survivingKeys(t, pristine, cut)
		for _, k := range survivors {
			if _, ok := s2.Get(k); !ok {
				t.Fatalf("cut=%d: fully-flushed key %s lost", cut, k)
			}
		}
		if err := s2.Close(); err != nil {
			t.Fatalf("cut=%d: Close: %v", cut, err)
		}
	}
}

// survivingKeys walks the pristine segment image frame by frame and
// returns the keys of put records whose full frame lies before cut.
func survivingKeys(t *testing.T, img []byte, cut int) []string {
	t.Helper()
	var keys []string
	off := 0
	for off+8 <= len(img) {
		length := int(uint32(img[off]) | uint32(img[off+1])<<8 | uint32(img[off+2])<<16 | uint32(img[off+3])<<24)
		end := off + 8 + length
		if end > len(img) {
			break
		}
		if end <= cut {
			rec, err := decodeRecord(img[off+8 : end])
			if err == nil && rec.kind == recordPut {
				keys = append(keys, rec.key)
			}
		}
		off = end
	}
	return keys
}

// TestCrashCorruptMiddleRecord flips bytes inside a flushed record:
// the checksum must reject it at read time (or replay time) and the
// store must degrade to a miss, never serve the damaged payload.
func TestCrashCorruptMiddleRecord(t *testing.T) {
	opts := testOptions(t)
	s := mustOpen(t, opts)
	want := map[string][]byte{}
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("k%d", i)
		v := bytes.Repeat([]byte{byte(i + 1)}, 64)
		want[k] = v
		s.Put(k, v)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segFile := lastSegmentPath(t, opts.Path)
	img, err := os.ReadFile(segFile)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the file (inside some record's
	// payload region).
	img[len(img)/2] ^= 0xff
	if err := os.WriteFile(segFile, img, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, opts)
	defer s2.Close()
	for k, v := range want {
		got, ok := s2.Get(k)
		if ok && !bytes.Equal(got, v) {
			t.Fatalf("key %s served corrupt bytes after bit flip", k)
		}
	}
}

// TestCrashMidEvictionFiles simulates a crash that leaves a gap in the
// segment id sequence (eviction removed seg-0 but the process died
// before anything else): open must cope with non-contiguous ids.
func TestCrashNonContiguousSegments(t *testing.T) {
	opts := testOptions(t)
	opts.SegmentBytes = 2 << 10
	s := mustOpen(t, opts)
	for i := 0; i < 50; i++ {
		s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte("p"), 256))
		if i%10 == 0 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ids, err := listSegmentIDs(opts.Path)
	if err != nil || len(ids) < 3 {
		t.Fatalf("want >=3 segments, got %d (%v)", len(ids), err)
	}
	// Delete the oldest file out from under the store.
	if err := os.Remove(segPath(opts.Path, ids[0])); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, opts)
	defer s2.Close()
	// Keys from the deleted segment are misses; everything else must
	// still be intact and the store must keep working.
	s2.Put("after-gap", []byte("ok"))
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get("after-gap"); !ok || string(got) != "ok" {
		t.Fatalf("store unusable after id gap: %q %v", got, ok)
	}
}

// TestGenerationInvalidationProperty is the ISSUE's property test: for
// random interleavings of puts and generation bumps, a reopened store
// serves exactly the keys whose LAST write happened in the final
// generation, with their last-written values — never a pre-bump value.
func TestGenerationInvalidationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		opts := Options{
			Path:            filepath.Join(t.TempDir(), "l2"),
			MaxBytes:        1 << 20,
			SegmentBytes:    32 << 10,
			WriteQueueDepth: 256,
			FlushInterval:   time.Millisecond,
		}
		s, err := Open(opts)
		if err != nil {
			t.Logf("open: %v", err)
			return false
		}
		// Model: key -> value written in the CURRENT generation.
		model := map[string]string{}
		nOps := 50 + rng.Intn(150)
		for i := 0; i < nOps; i++ {
			switch {
			case rng.Intn(10) == 0: // bump ~10% of ops
				if err := s.Flush(); err != nil {
					return false
				}
				if _, err := s.Bump(); err != nil {
					return false
				}
				model = map[string]string{}
			case rng.Intn(10) == 0: // tombstone the keys ending in one digit
				if err := s.Flush(); err != nil {
					return false
				}
				d := byte('0' + rng.Intn(10))
				want := 0
				for k := range model {
					if k[len(k)-1] == d {
						delete(model, k)
						want++
					}
				}
				if n, err := s.Invalidate(func(k string) bool { return k[len(k)-1] == d }); err != nil || n != want {
					t.Logf("seed=%d: Invalidate removed %d (err %v), model says %d", seed, n, err, want)
					return false
				}
			default:
				k := fmt.Sprintf("k%d", rng.Intn(20))
				v := fmt.Sprintf("v%d-%d", i, rng.Int63())
				if !s.Put(k, []byte(v)) {
					return false
				}
				model[k] = v
			}
		}
		if err := s.Flush(); err != nil {
			return false
		}
		if err := s.Close(); err != nil {
			return false
		}
		s2, err := Open(opts)
		if err != nil {
			return false
		}
		defer s2.Close()
		for k, v := range model {
			got, ok := s2.Get(k)
			if !ok || string(got) != v {
				t.Logf("seed=%d key=%s: got %q,%v want %q", seed, k, got, ok, v)
				return false
			}
		}
		// And nothing outside the model (a pre-bump or tombstoned
		// survivor) is served.
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("k%d", i)
			if _, inModel := model[k]; inModel {
				continue
			}
			if got, ok := s2.Get(k); ok {
				t.Logf("seed=%d: invalidated key %s resurrected as %q", seed, k, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
