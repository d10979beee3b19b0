package wire

import (
	"bufio"
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"math/rand"
	"testing"
)

func TestHeaderVersions(t *testing.T) {
	var hbuf bytes.Buffer
	if err := WriteHeader(&hbuf, V3, 7); err != nil {
		t.Fatal(err)
	}
	gotV, n, err := ReadHeader(bufio.NewReader(&hbuf))
	if err != nil {
		t.Fatal(err)
	}
	if gotV != V3 || n != 7 {
		t.Fatalf("header = v%d n=%d, want v3 n=7", gotV, n)
	}
	if err := WriteHeader(io.Discard, 9, 1); err == nil {
		t.Fatal("unknown version must not be writable")
	}
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.WriteByte(4)
	buf.WriteByte(1)
	if _, _, err := ReadHeader(bufio.NewReader(&buf)); err == nil {
		t.Fatal("unknown version must not be readable")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Index: 0, Kind: FrameTile, Status: FrameOK, Codec: CodecRaw, Payload: []byte("raw")},
		{Index: 1, Kind: FrameDBox, Status: FrameOK, Codec: CodecFlate, Payload: []byte("deflated bytes")},
		{Index: 2, Kind: FrameDBox, Status: FrameOK, Codec: CodecDelta, Payload: []byte("delta")},
		{Index: 3, Kind: FrameDBox, Status: FrameOK, Codec: CodecDeltaFlate, Payload: nil},
		{Index: 4, Kind: FrameTile, Status: FrameInternal, Codec: CodecRaw, Payload: []byte("boom")},
	}
	var buf bytes.Buffer
	if err := WriteHeader(&buf, V3, len(frames)); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, V3, f); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(buf.Bytes()))
	v, n, err := ReadHeader(br)
	if err != nil || v != V3 || n != len(frames) {
		t.Fatalf("header: v=%d n=%d err=%v", v, n, err)
	}
	for i, want := range frames {
		got, err := ReadFrame(br, V3)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Index != want.Index || got.Kind != want.Kind ||
			got.Status != want.Status || got.Codec != want.Codec ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(br, V3); err != io.EOF {
		t.Fatalf("read past end = %v, want io.EOF", err)
	}
}

// TestRetiredVersion2Rejected: the codec-less version 2 stream is gone
// from both directions — no header or frame is written at version 2,
// and a version 2 header (as an old server would send) does not read.
func TestRetiredVersion2Rejected(t *testing.T) {
	if err := WriteHeader(io.Discard, 2, 1); err == nil {
		t.Fatal("version 2 header must not be writable")
	}
	if err := WriteFrame(io.Discard, 2, Frame{Payload: []byte("x")}); err == nil {
		t.Fatal("version 2 frame must not be writable")
	}
	var hbuf bytes.Buffer
	hbuf.WriteString(Magic)
	hbuf.WriteByte(2)
	hbuf.WriteByte(1)
	if _, _, err := ReadHeader(bufio.NewReader(&hbuf)); err == nil {
		t.Fatal("version 2 header must not be readable")
	}
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader([]byte{0, 0, 0, 1, 'x'})), 2); err == nil {
		t.Fatal("version 2 frame must not be readable")
	}
	// And an unknown codec byte is rejected.
	var buf bytes.Buffer
	buf.Write([]byte{0, byte(FrameTile), byte(FrameOK), 9, 0})
	if _, err := ReadFrame(bufio.NewReader(&buf), V3); err == nil {
		t.Fatal("unknown frame codec must fail to decode")
	}
}

func TestCompressRoundTrip(t *testing.T) {
	src := bytes.Repeat([]byte("kyrix rows kyrix rows "), 512)
	comp, err := Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(src) {
		t.Fatalf("redundant payload did not shrink: %d -> %d", len(src), len(comp))
	}
	back, err := Decompress(comp, MaxFramePayload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, src) {
		t.Fatal("round trip mismatch")
	}
}

// TestDecompressionBombBounded is the regression test for the bounded
// inflate: a small compressed payload claiming to expand far past the
// limit must error out instead of allocating the expansion.
func TestDecompressionBombBounded(t *testing.T) {
	// ~1 MB of zeros deflates to ~1 KB: a 1000x bomb relative to a
	// 64 KB limit.
	bomb, err := Compress(make([]byte, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if len(bomb) > 16<<10 {
		t.Fatalf("bomb unexpectedly large: %d bytes", len(bomb))
	}
	if _, err := Decompress(bomb, 64<<10); err == nil {
		t.Fatal("bomb exceeding the limit must be rejected")
	}
	// Exactly at the limit is fine.
	if out, err := Decompress(bomb, 1<<20); err != nil || len(out) != 1<<20 {
		t.Fatalf("at-limit payload rejected: %d bytes, %v", len(out), err)
	}
}

func TestDecompressCorruptAndTruncated(t *testing.T) {
	if _, err := Decompress([]byte{0xde, 0xad, 0xbe, 0xef}, 1<<16); err == nil {
		t.Fatal("garbage must not inflate")
	}
	good, err := Compress(bytes.Repeat([]byte("abc"), 1000))
	if err != nil {
		t.Fatal(err)
	}
	// Truncation stays distinguishable from corruption.
	for _, cut := range []int{0, 1, len(good) / 2, len(good) - 1} {
		if _, err := Decompress(good[:cut], 1<<16); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("stream cut at %d/%d: %v, want io.ErrUnexpectedEOF", cut, len(good), err)
		}
	}
}

// TestShouldCompressHeuristic: the entropy classifier is the one
// worth-it decision (the minimum-size check is the caller's; see the
// server's TestDeflateShipsIncompressibleRaw). Noise is classified high
// entropy chunk by chunk and comes back as stored blocks only — a few
// bytes longer than its input, so a caller comparing lengths ships it
// raw. Redundant text is classified low and deflated; its repeats make
// the LZ coding the shorter one, so it comes out byte for byte as
// compress/flate's BestSpeed writer alone would write it. A mix keeps
// the noise stored and still shrinks the rest.
func TestShouldCompressHeuristic(t *testing.T) {
	noise := make([]byte, 3*maxStoredBlock/2)
	rand.New(rand.NewSource(42)).Read(noise)
	for off := 0; off+segmentChunk <= len(noise); off += segmentChunk {
		if !highEntropy(noise[off : off+segmentChunk]) {
			t.Fatalf("noise chunk at %d classified low entropy", off)
		}
	}
	// Sanity: flate agrees the noise does not shrink.
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flate.BestSpeed)
	fw.Write(noise)
	fw.Close()
	if buf.Len() < len(noise)*99/100 {
		t.Fatalf("flate shrank noise to %d/%d — classifier assumption broken", buf.Len(), len(noise))
	}
	c, err := Compress(noise)
	if err != nil {
		t.Fatal(err)
	}
	// Two stored blocks: header, LEN and NLEN each.
	if want := len(noise) + 2*5; len(c) != want {
		t.Fatalf("noise compressed to %d bytes, want %d (stored blocks only)", len(c), want)
	}
	if c[0] != 0 || c[5+maxStoredBlock] != 1 {
		t.Fatalf("stored block headers %#x, %#x: want a non-final then a final stored block", c[0], c[5+maxStoredBlock])
	}
	if !bytes.Equal(c[5:5+maxStoredBlock], noise[:maxStoredBlock]) {
		t.Fatal("stored block does not carry its input verbatim")
	}

	redundant := bytes.Repeat([]byte(`{"x":1.5,"y":2.5},`), 200)
	for off := 0; off < len(redundant); off += segmentChunk {
		if highEntropy(redundant[off:min(off+segmentChunk, len(redundant))]) {
			t.Fatalf("redundant JSON chunk at %d classified high entropy", off)
		}
	}
	buf.Reset()
	fw.Reset(&buf)
	fw.Write(redundant)
	fw.Close()
	if c, err := Compress(redundant); err != nil || !bytes.Equal(c, buf.Bytes()) || len(c) >= len(redundant) {
		t.Fatalf("redundant input must come out as its BestSpeed coding and shrink (%v)", err)
	}

	mixed := append(append(bytes.Clone(redundant), noise[:8192]...), redundant...)
	c, err = Compress(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) >= 8192+len(redundant)/4 {
		t.Fatalf("mixed input compressed to %d bytes: noise %d, text %d", len(c), 8192, 2*len(redundant))
	}
	// Chunks straddling the edges of the noise may go either way; the
	// chunks inside it are stored.
	if !bytes.Contains(c, noise[segmentChunk:8192-segmentChunk]) {
		t.Fatal("the noise run was not stored verbatim")
	}
	if back, err := Decompress(c, 0); err != nil || !bytes.Equal(back, mixed) {
		t.Fatalf("mixed round trip: %v", err)
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	d := Delta{
		FullLen:    123456,
		NewID:      0xDEADBEEFCAFEF00D,
		Tombstones: []int64{0, 1, -7, 1 << 40, 42},
		Entering:   []byte("entering payload bytes"),
	}
	b := EncodeDelta(d)
	got, err := DecodeDelta(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.FullLen != d.FullLen || got.NewID != d.NewID {
		t.Fatalf("got %+v", got)
	}
	if len(got.Tombstones) != len(d.Tombstones) {
		t.Fatalf("tombstones = %v", got.Tombstones)
	}
	for i := range d.Tombstones {
		if got.Tombstones[i] != d.Tombstones[i] {
			t.Fatalf("tombstone %d = %d, want %d", i, got.Tombstones[i], d.Tombstones[i])
		}
	}
	if !bytes.Equal(got.Entering, d.Entering) {
		t.Fatal("entering payload mismatch")
	}

	// Empty delta (pure overlap, nothing entering or leaving).
	b = EncodeDelta(Delta{FullLen: 10, NewID: 1})
	if got, err := DecodeDelta(b); err != nil || len(got.Tombstones) != 0 || len(got.Entering) != 0 {
		t.Fatalf("empty delta: %+v, %v", got, err)
	}
}

func TestDeltaCorrupt(t *testing.T) {
	d := Delta{FullLen: 64, NewID: 7, Tombstones: []int64{1, 2, 3}, Entering: []byte("x")}
	b := EncodeDelta(d)
	// Every strict prefix must fail or decode without panicking.
	for cut := 0; cut < len(b)-1; cut++ {
		_, _ = DecodeDelta(b[:cut])
	}
	// A tombstone count that exceeds the remaining bytes is corruption,
	// not an allocation.
	bad := []byte{10, 0, 0, 0, 0, 0, 0, 0, 0, // fullLen + id
		0xFF, 0xFF, 0xFF, 0xFF, 0x7F} // absurd tombstone count
	if _, err := DecodeDelta(bad); err == nil {
		t.Fatal("absurd tombstone count must fail")
	}
	if _, err := DecodeDelta(nil); err == nil {
		t.Fatal("empty delta payload must fail")
	}
}

func TestPayloadIDStable(t *testing.T) {
	a := PayloadID([]byte("payload"))
	if a != PayloadID([]byte("payload")) {
		t.Fatal("id not deterministic")
	}
	if a == PayloadID([]byte("payloae")) {
		t.Fatal("distinct payloads collided (xxh64 on 7 bytes)")
	}
}

// TestPayloadIDKnownAnswers pins PayloadID to XXH64 with seed 0 at the
// lengths where its code paths meet: empty, a lone tail byte, one byte
// short of a stripe, exactly one stripe, one past it, and a box-sized
// input. The text vectors are XXH64's published ones; the patterned ones
// pin this implementation at the remaining lengths.
func TestPayloadIDKnownAnswers(t *testing.T) {
	pattern := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*131 + 7)
		}
		return b
	}
	for _, c := range []struct {
		name string
		in   []byte
		want uint64
	}{
		{"empty", nil, 0xEF46DB3751D8E999},
		{"a", []byte("a"), 0xD24EC4F1A98C6E5B},
		{"abc", []byte("abc"), 0x44BC2CF5AD770999},
		{"32 text", []byte("abcdefghijklmnopqrstuvwxyz012345"), 0xBF2CD639B4143B80},
		{"39 text", []byte("Nobody inspects the spammish repetition"), 0xFBCEA83C8A378BF1},
		{"31", pattern(31), 0x6711D55E306B5D8F},
		{"32", pattern(32), 0x07F7B8E3BC5D6E25},
		{"33", pattern(33), 0x09F85EEB4E1CBE9F},
		{"33 KiB", pattern(33 << 10), 0xA033B92DFF1BF372},
	} {
		if got := PayloadID(c.in); got != c.want {
			t.Errorf("%s: PayloadID = %#016x, want %#016x", c.name, got, c.want)
		}
	}
}

// TestPayloadIDBitFlips: flipping any single bit of an input of 0 to 100
// bytes changes its id, whichever lane, tail word or tail byte the bit
// lands in.
func TestPayloadIDBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for n := 0; n <= 100; n++ {
		b := make([]byte, n)
		rng.Read(b)
		id := PayloadID(b)
		for i := range 8 * n {
			b[i/8] ^= 1 << (i % 8)
			if PayloadID(b) == id {
				t.Fatalf("length %d: flipping bit %d left the id at %#x", n, i, id)
			}
			b[i/8] ^= 1 << (i % 8)
		}
	}
}

// BenchmarkPayloadID hashes one 33 KiB box per op — what the client pays
// per full dbox frame and the server per fill — and reports ns/KiB.
func BenchmarkPayloadID(b *testing.B) {
	box := make([]byte, 33<<10)
	rand.New(rand.NewSource(1)).Read(box)
	b.SetBytes(int64(len(box)))
	for b.Loop() {
		PayloadID(box)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/33, "ns/KiB")
}
