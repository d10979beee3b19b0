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
// Inflate inflates with the package's own one-pass inflater
// (inflate.go), pooled with its tables and output buffer, and lends the
// result to a callback; Decompress is Inflate plus a copy. Compress keeps
// its scratch buffer in the pool and hands back a copy of the result.
//
// Compress segments its input by entropy. It estimates each chunk's
// entropy from its byte histogram; a run of chunks too close to random
// for Huffman coding to pay ships as stored blocks, which inflate as a
// plain copy, and every other run is deflated afresh, so no
// back-reference reaches into bytes the writer never saw, and flushed at
// its end, which byte-aligns the stream for the stored block that
// follows. The result is one ordinary DEFLATE stream. A binary payload
// puts its random byte planes — the low mantissa and id bytes — after
// everything else, so its frame is one deflated run and one trailing
// stored run: one set of code tables to build on inflate, whatever the
// column count. A deflated run longer than the writer's block size, or
// a last chunk too short for its estimate to reach 7 bits, adds one.
//
// Each deflated run is coded twice, by a BestSpeed writer and by a
// Huffman-only one, and the shorter coding is kept (BestSpeed on a
// tie), so a run is never longer than BestSpeed alone would make it.
// Digit-heavy text — a JSON payload's numbers — finds only short
// matches that cost more bits than the literals they replace, so its
// runs usually come out Huffman-only: blocks with no length code, which
// the inflater decodes two literals per lookup. Repeated strings (a
// TEXT column of a few tags) keep their LZ coding. Both passes are paid
// once per payload: the server memoizes the DEFLATE body.

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

// xlog2 is c·log2(c), from xlog2x when c is a chunk's count.
func xlog2(c uint16) float64 {
	if int(c) < len(xlog2x) {
		return xlog2x[c]
	}
	return float64(c) * math.Log2(float64(c))
}

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

// entropyBits is b's order-0 entropy in bits: n·log2(n) − Σ c·log2(c)
// over its byte histogram; b is at most maxStoredBlock bytes, so every
// count fits a uint16. Kept apart from highEntropy so the text fast path
// does not pay for zeroing the histograms.
func entropyBits(b []byte) float64 {
	// Four interleaved histograms, so a run of one byte value (a zero
	// plane) is not a chain of increments to a single counter.
	var hist [4][256]uint16
	i := 0
	for ; i+4 <= len(b); i += 4 {
		hist[0][b[i]]++
		hist[1][b[i+1]]++
		hist[2][b[i+2]]++
		hist[3][b[i+3]]++
	}
	for ; i < len(b); i++ {
		hist[0][b[i]]++
	}
	bits := xlog2(uint16(len(b)))
	for c := range 256 {
		bits -= xlog2(hist[0][c] + hist[1][c] + hist[2][c] + hist[3][c])
	}
	return bits
}

// huffmanFloor is a lower bound on the bytes of run's Huffman-only
// coding: each block the writer codes (maxStoredBlock bytes, its window)
// takes at least one bit per byte, and at least the block's entropy. A
// run whose BestSpeed coding is no longer than this keeps it without a
// Huffman-only pass — a binary payload's near-constant planes, which LZ
// shrinks far below a bit per byte. The bound leaves out the block
// headers, so float rounding cannot lift it past the true length.
func huffmanFloor(run []byte) int {
	bits := 0.0
	for len(run) > 0 {
		block := run[:min(len(run), maxStoredBlock)]
		run = run[len(block):]
		bits += max(entropyBits(block), float64(len(block)))
	}
	return int(bits / 8)
}

type deflater struct {
	fast, huff *flate.Writer
	buf, alt   bytes.Buffer
}

// maxPooledScratch bounds the scratch buffer an idle pooled deflater or
// inflater may keep; one rare huge frame must not pin its size forever.
const maxPooledScratch = 1 << 20

var deflaters = sync.Pool{
	New: func() any {
		d := &deflater{}
		d.fast, _ = flate.NewWriter(&d.buf, flate.BestSpeed)
		d.huff, _ = flate.NewWriter(&d.alt, flate.HuffmanOnly)
		return d
	},
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// Compress deflates src through pooled writers, high-entropy runs as
// stored blocks, and returns the compressed bytes: a fresh slice with no
// spare capacity, so a caller that retains it (the server caches
// deflated payloads) pins exactly len bytes. src is not retained. An
// incompressible src comes back as stored blocks only, a few bytes
// longer than src: callers compare lengths and ship such a payload raw.
func Compress(src []byte) (_ []byte, err error) {
	d := deflaters.Get().(*deflater)
	defer func() {
		if err != nil {
			return // a writer that failed stays failed; let it go
		}
		if d.buf.Cap() > maxPooledScratch {
			d.buf = bytes.Buffer{}
		}
		if d.alt.Cap() > maxPooledScratch {
			d.alt = bytes.Buffer{}
		}
		deflaters.Put(d)
	}()
	d.buf.Reset()
	err = segment(src, func(run []byte, stored, final bool) error {
		if stored {
			appendStored(&d.buf, run, final)
			return nil
		}
		return d.deflateRun(run, final)
	})
	if err != nil {
		return nil, err
	}
	return bytes.Clone(d.buf.Bytes()), nil
}

// segment cuts src into maximal runs of high-entropy chunks, to be
// stored, and of other chunks, to be deflated, and hands them to emit
// in order; final marks the last. An empty src is one empty run to
// deflate, so the stream still has its final block.
func segment(src []byte, emit func(run []byte, stored, final bool) error) error {
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
			if err := emit(src[low:off], false, false); err != nil {
				return err
			}
		}
		if err := emit(src[off:end], true, end == len(src)); err != nil {
			return err
		}
		low, off = end, end
	}
	if low < len(src) || len(src) == 0 {
		return emit(src[low:], false, true)
	}
	return nil
}

// finalEmptyBlock is an empty final block with fixed codes: BFINAL,
// BTYPE 01 and the 7-bit end-of-block code.
var finalEmptyBlock = []byte{0x03, 0x00}

// deflateRun appends run to d.buf as the shorter of its BestSpeed and
// Huffman-only codings, BestSpeed on a tie; the Huffman-only pass is
// skipped when huffmanFloor shows it cannot be shorter. Each coding ends
// byte-aligned (flushed, so the stored block after it can follow) or,
// when the run ends the stream, with a final block.
//
// The BestSpeed writer is reset for each run, so no match reaches into
// an earlier run, and closed on the last. The Huffman-only writer keeps
// no history, so after a Flush it is as good as reset; it is never
// Reset, which would clear the 640 KiB of match tables it never uses,
// and so never closed either: its last run is flushed and ends with
// finalEmptyBlock, two bytes more than Close's empty stored block.
func (d *deflater) deflateRun(run []byte, final bool) error {
	start := d.buf.Len()
	d.fast.Reset(&d.buf)
	_, err := d.fast.Write(run)
	if err == nil && final {
		err = d.fast.Close()
	} else if err == nil {
		err = d.fast.Flush()
	}
	if err != nil {
		return fmt.Errorf("wire: compress: %w", err)
	}
	if huffmanFloor(run) >= d.buf.Len()-start {
		return nil
	}
	d.alt.Reset()
	if _, err = d.huff.Write(run); err == nil {
		err = d.huff.Flush()
	}
	if err != nil {
		return fmt.Errorf("wire: compress: %w", err)
	}
	if final {
		d.alt.Write(finalEmptyBlock)
	}
	if d.alt.Len() < d.buf.Len()-start {
		d.buf.Truncate(start)
		d.buf.Write(d.alt.Bytes())
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

// Inflate inflates the DEFLATE stream src, refusing to produce more
// than limit bytes (MaxFramePayload when limit is not in
// 1..MaxFramePayload): a corrupt or hostile compressed payload must not
// become a decompression bomb, so the output stops growing at the limit.
// It inflates in one pass into a pooled scratch buffer and runs fn on
// it, then takes the buffer back: fn must not retain out past its return
// (copy what it keeps), and its error is Inflate's. src is not retained.
func Inflate(src []byte, limit int, fn func(out []byte) error) error {
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
		return err
	}
	return fn(f.out[:n:n])
}

// Decompress is Inflate returning a copy of the result with no spare
// capacity, so a caller that retains it (L1 caches peer fills) pins
// exactly len bytes and shares nothing with a later call.
func Decompress(src []byte, limit int) (out []byte, err error) {
	err = Inflate(src, limit, func(b []byte) error {
		out = make([]byte, len(b))
		copy(out, b)
		return nil
	})
	return out, err
}
