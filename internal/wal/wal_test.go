package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
)

func tempLog(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return l, path
}

func TestAppendReplay(t *testing.T) {
	l, _ := tempLog(t)
	defer l.Close()
	var lsns []LSN
	for i := 0; i < 100; i++ {
		lsn, err := l.Append([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	// LSNs strictly increase.
	for i := 1; i < len(lsns); i++ {
		if lsns[i] <= lsns[i-1] {
			t.Fatalf("LSN order: %d <= %d", lsns[i], lsns[i-1])
		}
	}
	i := 0
	err := l.Replay(func(lsn LSN, payload []byte) error {
		if lsn != lsns[i] {
			t.Fatalf("replay lsn %d want %d", lsn, lsns[i])
		}
		if want := fmt.Sprintf("record-%d", i); string(payload) != want {
			t.Fatalf("replay payload %q want %q", payload, want)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != 100 {
		t.Fatalf("replayed %d records", i)
	}
}

func TestReopenPreservesRecords(t *testing.T) {
	l, path := tempLog(t)
	if _, err := l.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []string
	_ = l2.Replay(func(_ LSN, p []byte) error { got = append(got, string(p)); return nil })
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("after reopen: %v", got)
	}
	// Appends continue past the old end.
	if _, err := l2.Append([]byte("three")); err != nil {
		t.Fatal(err)
	}
	if l2.Size() <= 0 {
		t.Fatal("size")
	}
}

func TestTornTailTruncated(t *testing.T) {
	l, path := tempLog(t)
	if _, err := l.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage half-frame at the end.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xAA}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []string
	_ = l2.Replay(func(_ LSN, p []byte) error { got = append(got, string(p)); return nil })
	if len(got) != 1 || got[0] != "good" {
		t.Fatalf("after torn tail: %v", got)
	}
	// And the log accepts new appends cleanly.
	if _, err := l2.Append([]byte("recovered")); err != nil {
		t.Fatal(err)
	}
	got = nil
	_ = l2.Replay(func(_ LSN, p []byte) error { got = append(got, string(p)); return nil })
	if len(got) != 2 || got[1] != "recovered" {
		t.Fatalf("after recovery append: %v", got)
	}
}

func TestCorruptPayloadTruncated(t *testing.T) {
	l, path := tempLog(t)
	if _, err := l.Append([]byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	lsn2, err := l.Append([]byte("bbbb"))
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Flip a payload byte of record 2.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[int(lsn2)+frameHeader] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []string
	_ = l2.Replay(func(_ LSN, p []byte) error { got = append(got, string(p)); return nil })
	if len(got) != 1 || got[0] != "aaaa" {
		t.Fatalf("after corruption: %v", got)
	}
}

// TestEmptyAndBinaryPayloads: any bytes are a record except none at
// all, which Append refuses without writing a frame.
func TestEmptyAndBinaryPayloads(t *testing.T) {
	l, _ := tempLog(t)
	defer l.Close()
	bin := bytes.Repeat([]byte{0x00, 0xFF}, 500)
	for _, empty := range [][]byte{nil, {}} {
		if _, err := l.Append(empty); err == nil || l.Size() != 0 {
			t.Fatalf("Append(%q) = %v, log at %d bytes", empty, err, l.Size())
		}
	}
	if _, err := l.Append(bin); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	_ = l.Replay(func(_ LSN, p []byte) error { sizes = append(sizes, len(p)); return nil })
	if len(sizes) != 1 || sizes[0] != 1000 {
		t.Fatalf("sizes = %v", sizes)
	}
}

// TestZeroTailEndsLog: a zero-filled tail, which a file system can leave
// after a crash, is not a run of empty records. The CRC-32 of no bytes
// is 0, so eight zero bytes frame one; Open ends the log at the first
// and truncates the file to the records before it.
func TestZeroTailEndsLog(t *testing.T) {
	l, path := tempLog(t)
	if _, err := l.Append([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []string
	_ = l2.Replay(func(_ LSN, p []byte) error { got = append(got, string(p)); return nil })
	const frame = int64(frameHeader + len("hello"))
	if len(got) != 1 || got[0] != "hello" || l2.Size() != frame {
		t.Fatalf("replayed %q from a %d-byte log, want [hello] from %d", got, l2.Size(), frame)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != frame {
		t.Fatalf("file left at %v bytes (%v), want %d", fi.Size(), err, frame)
	}
}

func TestClosedErrors(t *testing.T) {
	l, _ := tempLog(t)
	l.Close()
	if _, err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("append after close = %v", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("sync after close = %v", err)
	}
	if err := l.Replay(func(LSN, []byte) error { return nil }); err != ErrClosed {
		t.Fatalf("replay after close = %v", err)
	}
	if err := l.Close(); err != ErrClosed {
		t.Fatalf("double close = %v", err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	l, _ := tempLog(t)
	defer l.Close()
	var wg sync.WaitGroup
	const goroutines, per = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	count := 0
	_ = l.Replay(func(LSN, []byte) error { count++; return nil })
	if count != goroutines*per {
		t.Fatalf("replayed %d want %d", count, goroutines*per)
	}
}

func BenchmarkAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.wal")
	l, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("x"), 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReadAt(t *testing.T) {
	l, _ := tempLog(t)
	defer l.Close()
	var lsns []LSN
	for i := 0; i < 20; i++ {
		lsn, err := l.Append([]byte(fmt.Sprintf("payload-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	// Random access in arbitrary order returns exactly the appended
	// payloads.
	for _, i := range []int{7, 0, 19, 3, 3, 12} {
		got, err := l.ReadAt(lsns[i])
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("payload-%d", i); string(got) != want {
			t.Fatalf("ReadAt(%d) = %q, want %q", lsns[i], got, want)
		}
	}
	// Out-of-range LSNs error rather than reading garbage.
	if _, err := l.ReadAt(LSN(l.Size())); err == nil {
		t.Fatal("ReadAt(end) succeeded")
	}
	if _, err := l.ReadAt(LSN(-1)); err == nil {
		t.Fatal("ReadAt(-1) succeeded")
	}
}

func TestReadAtCorrupt(t *testing.T) {
	l, path := tempLog(t)
	lsn1, err := l.Append([]byte("intact"))
	if err != nil {
		t.Fatal(err)
	}
	lsn2, err := l.Append([]byte("will-be-corrupted"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the second record in place.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{'X'}, int64(lsn2)+frameHeader); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got, err := l.ReadAt(lsn1); err != nil || string(got) != "intact" {
		t.Fatalf("ReadAt(intact) = %q, %v", got, err)
	}
	if _, err := l.ReadAt(lsn2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadAt(corrupt) err = %v, want ErrCorrupt", err)
	}
}

func TestReadAtMisalignedLSN(t *testing.T) {
	l, _ := tempLog(t)
	defer l.Close()
	lsn, err := l.Append(bytes.Repeat([]byte("ab"), 64))
	if err != nil {
		t.Fatal(err)
	}
	// An LSN landing mid-record reads a bogus header: either the
	// implied record overruns the log or the checksum rejects. Both
	// must error, never return bytes.
	for off := int64(lsn) + 1; off+frameHeader < l.Size(); off += 7 {
		if got, err := l.ReadAt(LSN(off)); err == nil {
			t.Fatalf("ReadAt(misaligned %d) returned %d bytes", off, len(got))
		}
	}
	// Eight zero bytes inside a record frame an empty record whose CRC
	// matches. A record is never empty, so that reads as corrupt too.
	zeros, err := l.Append(append(make([]byte, 16), "tail"...))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := l.ReadAt(zeros + frameHeader + 4); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadAt(zero bytes inside a record) = %q, %v; want ErrCorrupt", got, err)
	}
}

func TestTruncateAt(t *testing.T) {
	l, path := tempLog(t)
	var lsns []LSN
	for i := 0; i < 10; i++ {
		lsn, err := l.Append([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	// Cut records 6..9; the log ends after record 5.
	if err := l.TruncateAt(lsns[6]); err != nil {
		t.Fatal(err)
	}
	if l.Size() != int64(lsns[6]) {
		t.Fatalf("size after truncate = %d want %d", l.Size(), lsns[6])
	}
	if _, err := l.ReadAt(lsns[6]); err == nil {
		t.Fatal("ReadAt of truncated record succeeded")
	}
	// Appends resume at the cut point with fresh contents.
	nl, err := l.Append([]byte("replacement"))
	if err != nil {
		t.Fatal(err)
	}
	if nl != lsns[6] {
		t.Fatalf("append after truncate at %d want %d", nl, lsns[6])
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen sees records 0..5 plus the replacement, nothing else.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []string
	if err := l2.Replay(func(_ LSN, p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"record-0", "record-1", "record-2", "record-3", "record-4", "record-5", "replacement"}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q want %q", i, got[i], want[i])
		}
	}
	// Out-of-range truncation is rejected.
	if err := l2.TruncateAt(LSN(l2.Size() + 1)); err == nil {
		t.Fatal("TruncateAt beyond end succeeded")
	}
}

// allocatedBy reports the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOpenBoundsHeaderLength: a header whose length runs past the end of
// the file is a torn tail, found without allocating the length it
// claims — every L2 segment and replicated-log directory opens through
// here.
func TestOpenBoundsHeaderLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	hdr := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(hdr, 256<<20)
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	var l *Log
	var err error
	if n := allocatedBy(func() { l, err = Open(path) }); n > 1<<20 {
		t.Fatalf("Open of an %d-byte log allocated %d bytes", len(hdr), n)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Size() != 0 {
		t.Fatalf("log opened at %d bytes, want the torn header cut", l.Size())
	}
}

// FuzzWALOpen writes records, then overwrites, truncates or extends the
// file's bytes, then opens and replays it. Nothing panics, neither Open
// nor Replay allocates more than the file holds (plus a fixed slack),
// and Replay returns the written records as a prefix: every record the
// surviving bytes still hold whole, in order, unchanged. Past them only
// a record read wholly out of changed bytes can appear — a well-formed
// frame is indistinguishable from a written one — and after a plain
// truncation none does. An empty record never replays: zero bytes
// patched in or appended end the log.
func FuzzWALOpen(f *testing.F) {
	f.Add([]byte("alpha\xffbeta\xffgamma"), uint8(0), uint32(13), []byte{0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte("alpha\xffbeta\xffgamma"), uint8(1), uint32(20), []byte(nil))
	f.Add([]byte("alpha\xffbeta"), uint8(2), uint32(0), []byte{0, 0, 0, 0x10, 1, 2, 3, 4})
	f.Add([]byte("\xff\xff"), uint8(2), uint32(0), make([]byte, 8))
	f.Add([]byte(nil), uint8(0), uint32(0), []byte{0, 0, 0, 0x40, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, payloads []byte, op uint8, at uint32, patch []byte) {
		// A record is never empty: Append refuses one.
		records := slices.DeleteFunc(bytes.Split(payloads, []byte{0xff}), func(r []byte) bool { return len(r) == 0 })
		if len(records) > 32 || len(payloads) > 1<<16 || len(patch) > 1<<16 {
			return
		}
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		var ends []int // ends[i] is where record i's frame ends
		for _, r := range records {
			lsn, err := l.Append(r)
			if err != nil {
				t.Fatal(err)
			}
			ends = append(ends, int(lsn)+frameHeader+len(r))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		written, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Clone(written)
		switch op % 3 {
		case 0: // overwrite, possibly past the end
			pos := int(at % uint32(len(data)+1))
			data = slices.Concat(data[:pos], patch, data[min(pos+len(patch), len(data)):])
		case 1: // truncate
			data = data[:int(at%uint32(len(data)+1))]
		case 2: // extend
			data = slices.Concat(data, patch)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		const slack = 64 << 10
		var opened *Log
		if n := allocatedBy(func() { opened, err = Open(path) }); n > uint64(len(data))+slack {
			t.Fatalf("Open of a %d-byte log allocated %d bytes", len(data), n)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer opened.Close()
		var got [][]byte
		if n := allocatedBy(func() {
			err = opened.Replay(func(_ LSN, p []byte) error {
				got = append(got, p)
				return nil
			})
		}); n > uint64(len(data))+slack {
			t.Fatalf("Replay of a %d-byte log allocated %d bytes", len(data), n)
		}
		if err != nil {
			t.Fatal(err)
		}

		// intact is how far the file still holds the bytes written.
		intact := 0
		for intact < min(len(data), len(written)) && data[intact] == written[intact] {
			intact++
		}
		whole := 0 // written records wholly inside the intact bytes
		for whole < len(ends) && ends[whole] <= intact {
			whole++
		}
		if len(got) < whole {
			t.Fatalf("replayed %d records; the intact bytes hold %d", len(got), whole)
		}
		for i := range whole {
			if !bytes.Equal(got[i], records[i]) {
				t.Fatalf("record %d replayed as %q, written as %q", i, got[i], records[i])
			}
		}
		if intact == len(data) && len(got) != whole {
			t.Fatalf("a truncated log replayed %d records, want the %d it holds whole", len(got), whole)
		}
		for i, p := range got {
			if len(p) == 0 {
				t.Fatalf("record %d replayed empty", i)
			}
		}
	})
}
