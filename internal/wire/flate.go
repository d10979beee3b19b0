package wire

import (
	"bytes"
	"compress/flate"
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

// flateLevel trades ratio for speed; frames are latency-sensitive
// (the 500 ms budget), so BestSpeed wins over a few extra percent.
const flateLevel = flate.BestSpeed

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

// Compress deflates src through a pooled writer and returns the
// compressed bytes: a fresh slice with no spare capacity, so a caller
// that retains it (the server caches deflated payloads) pins exactly
// len bytes. src is not retained.
func Compress(src []byte) ([]byte, error) {
	d := deflaters.Get().(*deflater)
	defer func() {
		if d.buf.Cap() > maxPooledScratch {
			d.buf = bytes.Buffer{}
		}
		deflaters.Put(d)
	}()
	d.buf.Reset()
	d.fw.Reset(&d.buf)
	if _, err := d.fw.Write(src); err != nil {
		return nil, fmt.Errorf("wire: compress: %w", err)
	}
	if err := d.fw.Close(); err != nil {
		return nil, fmt.Errorf("wire: compress: %w", err)
	}
	return bytes.Clone(d.buf.Bytes()), nil
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

// compressMinSize is the payload size below which compression cannot
// pay for its own frame-codec overhead and CPU.
const compressMinSize = 128

// entropySample bounds how many bytes the heuristic inspects.
const entropySample = 1024

// ShouldCompress is the cheap worth-it heuristic: skip tiny payloads
// and payloads whose sampled byte entropy says they are already close
// to incompressible (e.g. pre-compressed or encrypted blobs), so the
// hot path never burns CPU deflating bytes that will not shrink.
func ShouldCompress(b []byte) bool {
	if len(b) < compressMinSize {
		return false
	}
	// Sample up to entropySample bytes evenly across the payload.
	stride := 1
	if len(b) > entropySample {
		stride = len(b) / entropySample
	}
	var hist [256]int
	n := 0
	for i := 0; i < len(b); i += stride {
		hist[b[i]]++
		n++
	}
	// Shannon entropy in bits/byte over the sample.
	var h float64
	for _, c := range hist {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(n)
		h -= p * math.Log2(p)
	}
	// Above ~7.5 bits/byte DEFLATE reliably fails to earn its keep.
	return h < 7.5
}
