package wire

import (
	"bytes"
	"compress/flate"
	"fmt"
)

// lzOnlyCompress is the reference Compress is held to: the same
// entropy segmentation with every deflated run coded by BestSpeed alone,
// which is how Compress wrote frames before it kept the shorter of two
// codings. Compress is never longer.
func lzOnlyCompress(src []byte) ([]byte, error) {
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	err = segment(src, func(run []byte, stored, final bool) error {
		if stored {
			appendStored(&buf, run, final)
			return nil
		}
		fw.Reset(&buf)
		if _, err := fw.Write(run); err != nil {
			return err
		}
		if final {
			return fw.Close()
		}
		return fw.Flush()
	})
	return buf.Bytes(), err
}

// LZOnlyCompress is lzOnlyCompress for the external tests.
var LZOnlyCompress = lzOnlyCompress

// Block is one block of a DEFLATE stream as BlockKinds saw it: its
// Kind — "stored", "fixed", "literal-only" (dynamic, no length code) or
// "mixed" (dynamic) — and how many bytes it inflated to.
type Block struct {
	Kind string
	Out  int
}

// BlockKinds inflates stream and lists its blocks.
func BlockKinds(stream []byte) ([]Block, error) {
	f := &inflater{src: stream, end: len(stream), limit: MaxFramePayload}
	var blocks []Block
	for final := false; !final; {
		if !f.need(3) {
			return nil, errTruncated
		}
		final = f.bits&1 == 1
		typ := f.bits >> 1 & 3
		f.consume(3)
		op := f.op
		var kind string
		var err error
		switch typ {
		case 0:
			kind, err = "stored", f.stored()
		case 1:
			kind, err = "fixed", f.block(&fixedLit, &fixedDist)
		case 2:
			var litOnly bool
			if litOnly, err = f.readTables(); err == nil && litOnly {
				kind, err = "literal-only", f.literals()
			} else if err == nil {
				kind, err = "mixed", f.block(&f.lit, &f.dist)
			}
		default:
			err = errBlockType
		}
		if err != nil || f.truncated() {
			return nil, fmt.Errorf("block %d: %v (truncated %v)", len(blocks), err, f.truncated())
		}
		blocks = append(blocks, Block{kind, f.op - op})
	}
	return blocks, nil
}
