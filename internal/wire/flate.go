package wire

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math"
	"sync"
)

// Per-frame compression. Writers and readers are pooled: a flate
// writer allocates ~hundreds of KB of window state, far too much to
// rebuild per frame on the serving hot path. Each pooled writer keeps
// its own scratch buffer, so Compress hands back an exactly-sized copy
// instead of a grown buffer's slack.

// flateLevel trades ratio for speed; frames are latency-sensitive
// (the 500 ms budget), so BestSpeed wins over a few extra percent.
const flateLevel = flate.BestSpeed

type deflater struct {
	fw  *flate.Writer
	buf bytes.Buffer
}

// maxPooledScratch bounds the scratch buffer an idle pooled deflater
// may keep; one rare huge frame must not pin its size forever.
const maxPooledScratch = 1 << 20

var deflaters = sync.Pool{
	New: func() any {
		d := &deflater{}
		d.fw, _ = flate.NewWriter(&d.buf, flateLevel)
		return d
	},
}

var flateReaders = sync.Pool{
	New: func() any {
		return flate.NewReader(bytes.NewReader(nil))
	},
}

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

// Decompress inflates src through a pooled reader, refusing to produce
// more than limit bytes: a corrupt or hostile compressed payload must
// not become a decompression bomb. The reader is bounded with an
// io.LimitReader so the overrun is detected without ever allocating
// past the limit.
func Decompress(src []byte, limit int) ([]byte, error) {
	if limit <= 0 || limit > MaxFramePayload {
		limit = MaxFramePayload
	}
	fr := flateReaders.Get().(io.ReadCloser)
	// Detach the reader from src before pooling it — an idle entry
	// must not pin a frame-sized compressed payload until its next use.
	defer func() {
		_ = fr.(flate.Resetter).Reset(bytes.NewReader(nil), nil)
		flateReaders.Put(fr)
	}()
	if err := fr.(flate.Resetter).Reset(bytes.NewReader(src), nil); err != nil {
		return nil, fmt.Errorf("wire: decompress reset: %w", err)
	}
	// Read one byte past the limit: hitting it proves the stream
	// inflates beyond what any legitimate frame may carry.
	var buf bytes.Buffer
	n, err := io.Copy(&buf, io.LimitReader(fr, int64(limit)+1))
	if err != nil {
		return nil, fmt.Errorf("wire: decompress: %w", err)
	}
	if n > int64(limit) {
		return nil, fmt.Errorf("wire: decompressed payload exceeds %d byte limit", limit)
	}
	return buf.Bytes(), nil
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
