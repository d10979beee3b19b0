package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Per-frame compression. Compress deflates through pooled
// compress/flate writers: a writer allocates ~hundreds of KB of window
// state, far too much to rebuild per frame on the serving hot path.
// Decompress inflates with the package's own one-pass inflater
// (inflate.go), pooled with its tables and output buffer. Both keep
// their scratch buffer in the pool and hand back a copy of the result.
//
// Compress segments its input by entropy. It estimates each chunk's
// entropy from its byte histogram; a run of chunks too close to random
// for Huffman coding to pay (a binary payload's low mantissa and id byte
// planes) ships as stored blocks, which inflate as a plain copy, and
// every other run goes through the writer. The writer is reset at each
// such run, so no back-reference reaches into bytes it never saw, and
// flushed at its end, which byte-aligns the stream for the stored block
// that follows. The result is one ordinary DEFLATE stream. Input with no
// high-entropy chunk — every JSON payload — takes the single-writer
// path and comes out exactly as compress/flate alone would write it.

// flateLevel trades ratio for speed; frames are latency-sensitive
// (the 500 ms budget), so BestSpeed wins over a few extra percent.
const flateLevel = flate.BestSpeed

// CompressMinSize is the payload size below which compression cannot
// pay for its own frame-codec overhead and CPU; callers ship smaller
// payloads raw without calling Compress.
const CompressMinSize = 128

// segmentChunk is the granularity of the entropy classification: small
// enough to follow a binary payload's byte planes (a 1000-row box has
// 1000-byte planes), large enough for a byte histogram to tell random
// bytes from structured ones.
const segmentChunk = 512

// storedBitsPerByte is the entropy estimate above which a chunk is
// stored. Uniformly random bytes measure ≈ 7.6 bits/byte over a
// 512-byte histogram (the estimate is biased low by the sample size);
// the structured planes of the same payloads measure below 6. Text
// never passes it: 7-bit bytes carry at most 7 bits.
const storedBitsPerByte = 7.0

// maxStoredBlock is the most bytes one stored block can carry (RFC 1951
// §3.2.4: a 16-bit LEN).
const maxStoredBlock = 65535

// xlog2x[c] is c·log2(c), the per-symbol term of a chunk's entropy.
var xlog2x = func() (t [segmentChunk + 1]float64) {
	for c := 1; c <= segmentChunk; c++ {
		t[c] = float64(c) * math.Log2(float64(c))
	}
	return t
}()

// highEntropy reports whether chunk (at most segmentChunk bytes) is too
// close to random for DEFLATE to shrink: its entropy estimate exceeds
// storedBitsPerByte per byte.
func highEntropy(chunk []byte) bool {
	// A chunk with no byte ≥ 0x80 — any ASCII text, so every JSON
	// payload — cannot exceed 7 bits per byte; skip the histogram.
	var high uint64
	i := 0
	for ; i+8 <= len(chunk); i += 8 {
		high |= binary.LittleEndian.Uint64(chunk[i:])
	}
	for ; i < len(chunk); i++ {
		high |= uint64(chunk[i])
	}
	return high&0x8080808080808080 != 0 && entropyBits(chunk) > storedBitsPerByte*float64(len(chunk))
}

// entropyBits is chunk's order-0 entropy estimate in bits: n·log2(n) −
// Σ c·log2(c) over its byte histogram. Kept apart from highEntropy so
// the text fast path does not pay for zeroing the histograms.
func entropyBits(chunk []byte) float64 {
	// Four interleaved histograms, so a run of one byte value (a zero
	// plane) is not a chain of increments to a single counter.
	var hist [4][256]uint16
	i := 0
	for ; i+4 <= len(chunk); i += 4 {
		hist[0][chunk[i]]++
		hist[1][chunk[i+1]]++
		hist[2][chunk[i+2]]++
		hist[3][chunk[i+3]]++
	}
	for ; i < len(chunk); i++ {
		hist[0][chunk[i]]++
	}
	bits := xlog2x[len(chunk)]
	for b := range 256 {
		bits -= xlog2x[hist[0][b]+hist[1][b]+hist[2][b]+hist[3][b]]
	}
	return bits
}

type deflater struct {
	fw  *flate.Writer
	buf bytes.Buffer
}

// maxPooledScratch bounds the scratch buffer an idle pooled deflater or
// inflater may keep; one rare huge frame must not pin its size forever.
const maxPooledScratch = 1 << 20

var deflaters = sync.Pool{
	New: func() any {
		d := &deflater{}
		d.fw, _ = flate.NewWriter(&d.buf, flateLevel)
		return d
	},
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// Compress deflates src through a pooled writer, high-entropy runs as
// stored blocks, and returns the compressed bytes: a fresh slice with no
// spare capacity, so a caller that retains it (the server caches
// deflated payloads) pins exactly len bytes. src is not retained. An
// incompressible src comes back as stored blocks only, a few bytes
// longer than src: callers compare lengths and ship such a payload raw.
func Compress(src []byte) ([]byte, error) {
	d := deflaters.Get().(*deflater)
	defer func() {
		if d.buf.Cap() > maxPooledScratch {
			d.buf = bytes.Buffer{}
		}
		deflaters.Put(d)
	}()
	d.buf.Reset()
	// low is where the pending run of low-entropy chunks starts.
	low := 0
	for off := 0; off < len(src); {
		end := min(off+segmentChunk, len(src))
		if !highEntropy(src[off:end]) {
			off = end
			continue
		}
		// A high-entropy run starts at off; find where it ends.
		for end < len(src) {
			next := min(end+segmentChunk, len(src))
			if !highEntropy(src[end:next]) {
				break
			}
			end = next
		}
		if low < off {
			if err := d.deflateRun(src[low:off], false); err != nil {
				return nil, err
			}
		}
		appendStored(&d.buf, src[off:end], end == len(src))
		low, off = end, end
	}
	if low < len(src) || len(src) == 0 {
		if err := d.deflateRun(src[low:], true); err != nil {
			return nil, err
		}
	}
	return bytes.Clone(d.buf.Bytes()), nil
}

// deflateRun appends run to d.buf through a freshly reset writer: closed
// (a final block) when the run ends the stream, else flushed so the
// stream is byte-aligned for the stored block after it.
func (d *deflater) deflateRun(run []byte, final bool) error {
	d.fw.Reset(&d.buf)
	_, err := d.fw.Write(run)
	if err == nil && final {
		err = d.fw.Close()
	} else if err == nil {
		err = d.fw.Flush()
	}
	if err != nil {
		return fmt.Errorf("wire: compress: %w", err)
	}
	return nil
}

// appendStored appends run as stored blocks of at most maxStoredBlock
// bytes each, the last one final when final is set. The stream must be
// byte-aligned: at its start, or after a flushed writer.
func appendStored(buf *bytes.Buffer, run []byte, final bool) {
	for len(run) > 0 {
		n := min(len(run), maxStoredBlock)
		var hdr [5]byte
		if final && n == len(run) {
			hdr[0] = 1 // BFINAL; BTYPE 00 is stored
		}
		binary.LittleEndian.PutUint16(hdr[1:], uint16(n))
		binary.LittleEndian.PutUint16(hdr[3:], ^uint16(n))
		buf.Write(hdr[:])
		buf.Write(run[:n])
		run = run[n:]
	}
}

// Decompress inflates the DEFLATE stream src, refusing to produce more
// than limit bytes (MaxFramePayload when limit is not in 1..MaxFramePayload):
// a corrupt or hostile compressed payload must not become a decompression
// bomb, so the output stops growing at the limit. It inflates in one pass
// into a pooled scratch buffer and returns a fresh copy with no spare
// capacity, so a caller that retains it (L1 caches peer fills) pins
// exactly len bytes and shares nothing with a later call. src is not
// retained.
func Decompress(src []byte, limit int) ([]byte, error) {
	if limit <= 0 || limit > MaxFramePayload {
		limit = MaxFramePayload
	}
	f := inflaters.Get().(*inflater)
	defer func() {
		f.src = nil
		if cap(f.out) > maxPooledScratch {
			f.out = nil
		}
		inflaters.Put(f)
	}()
	n, err := f.inflate(src, limit)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, f.out[:n])
	return out, nil
}
