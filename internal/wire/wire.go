// Package wire implements the framed /batch stream shared by the
// backend server, the frontend client and cluster peer fills: the
// varint frame codec (protocol version 3), per-frame DEFLATE — an
// entropy-segmented stream written through pooled compress/flate
// writers, and the package's own bounded one-pass inflater — and the
// delta-frame format for dynamic boxes.
//
// A compressed frame is one ordinary DEFLATE stream (RFC 1951) in
// segments. The compressor estimates the byte entropy of each 512-byte
// chunk of the payload: runs of chunks too close to random for Huffman
// coding to pay are written as stored blocks, which inflate as a copy;
// each run between is coded by compress/flate's BestSpeed and
// Huffman-only writers, no back-reference reaching across a stored run,
// and the shorter coding is kept. A JSON payload of numbers usually
// ships as literal-only blocks, which the inflater decodes two literals
// per table lookup; repeated text keeps its LZ matches.
//
// Stream layout (all integers are unsigned varints unless noted):
//
//	header:  magic "KYXB" (4 bytes) | version (1 byte, 0x03) | item count
//	frame:   index | kind (1B) | status (1B) | frame codec (1B) |
//	         payload length | payload
//
// The codec byte is raw (0), flate (1), delta (2) or delta+flate (3).
// For flate codecs the payload is a DEFLATE stream whose decompressed
// size is bounded by MaxFramePayload; for delta codecs the
// (decompressed) payload is the delta format documented on Delta.
// Error-status frames are always raw.
//
// Versioning rules: the magic identifies the framed-batch family; the
// version byte is bumped on any layout change AND on any new frame
// kind, status or codec, and decoders reject versions, kinds, statuses
// and codecs they do not know — better a loud error than silently
// dropping a sub-result the server believed it delivered. Versions 1
// and 2 (a JSON envelope and a codec-less frame stream) are retired;
// V3 is the only version written or read.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Magic opens every framed batch stream.
const Magic = "KYXB"

// V3 is the framed stream's protocol version: the one with the
// per-frame codec byte (compression + delta frames).
const V3 = 3

// MaxFramePayload bounds a frame payload both as read off the wire and
// after decompression — a corrupt length prefix or a hostile DEFLATE
// stream must not translate into an unbounded allocation.
const MaxFramePayload = 1 << 28

// FrameKind tags what a frame carries.
type FrameKind byte

// Frame kinds.
const (
	FrameTile FrameKind = 0
	FrameDBox FrameKind = 1
)

// FrameStatus is the per-frame outcome, the framed analogue of the
// HTTP status a single /tile or /dbox request would have returned.
type FrameStatus byte

// Frame statuses.
const (
	FrameOK         FrameStatus = 0
	FrameBadRequest FrameStatus = 1
	FrameInternal   FrameStatus = 2
)

// FrameCodec is the per-frame payload encoding.
type FrameCodec byte

// Frame codecs.
const (
	// CodecRaw: the payload is the item's data in the request codec —
	// the same bytes a single GET /tile or /dbox would return.
	CodecRaw FrameCodec = 0
	// CodecFlate: a DEFLATE stream of the raw payload.
	CodecFlate FrameCodec = 1
	// CodecDelta: the delta format (see Delta) against the base box the
	// client declared for this item.
	CodecDelta FrameCodec = 2
	// CodecDeltaFlate: a DEFLATE stream of the delta format.
	CodecDeltaFlate FrameCodec = 3
)

// Compressed reports whether the codec's wire payload is a DEFLATE
// stream.
func (c FrameCodec) Compressed() bool {
	return c == CodecFlate || c == CodecDeltaFlate
}

// IsDelta reports whether the (decompressed) payload is the delta
// format rather than a full data payload.
func (c FrameCodec) IsDelta() bool {
	return c == CodecDelta || c == CodecDeltaFlate
}

// Frame is one decoded stream frame.
type Frame struct {
	Index   int
	Kind    FrameKind
	Status  FrameStatus
	Codec   FrameCodec
	Payload []byte
}

// ValidVersion reports whether v is a framed-stream version this
// package speaks: V3 only.
func ValidVersion(v byte) bool { return v == V3 }

// WriteHeader writes the stream header for n frames at the given
// protocol version, which must be V3.
func WriteHeader(w io.Writer, version byte, n int) error {
	if !ValidVersion(version) {
		return fmt.Errorf("wire: cannot write unknown version %d", version)
	}
	var buf [4 + 1 + binary.MaxVarintLen64]byte
	copy(buf[:4], Magic)
	buf[4] = version
	ln := 5 + binary.PutUvarint(buf[5:], uint64(n))
	_, err := w.Write(buf[:ln])
	return err
}

// ReadHeader reads and validates a stream header, returning the
// protocol version and frame count.
func ReadHeader(br *bufio.Reader) (version byte, n int, err error) {
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return 0, 0, fmt.Errorf("wire: batch header: %w", err)
	}
	if string(magic[:4]) != Magic {
		return 0, 0, fmt.Errorf("wire: bad magic %q", magic[:4])
	}
	version = magic[4]
	if !ValidVersion(version) {
		return 0, 0, fmt.Errorf("wire: unknown version %d", version)
	}
	cnt, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, fmt.Errorf("wire: frame count: %w", err)
	}
	if cnt > MaxFramePayload {
		return 0, 0, fmt.Errorf("wire: absurd frame count %d", cnt)
	}
	return version, int(cnt), nil
}

// WriteFrame writes one frame of a stream at the given protocol
// version, which must be V3.
func WriteFrame(w io.Writer, version byte, f Frame) error {
	if !ValidVersion(version) {
		return fmt.Errorf("wire: cannot write a version %d frame", version)
	}
	var buf [2*binary.MaxVarintLen64 + 3]byte
	ln := binary.PutUvarint(buf[:], uint64(f.Index))
	buf[ln] = byte(f.Kind)
	buf[ln+1] = byte(f.Status)
	buf[ln+2] = byte(f.Codec)
	ln += 3
	ln += binary.PutUvarint(buf[ln:], uint64(len(f.Payload)))
	if _, err := w.Write(buf[:ln]); err != nil {
		return err
	}
	_, err := w.Write(f.Payload)
	return err
}

// ReadFrame reads one frame of a stream at the given protocol version,
// which must be V3. io.EOF at the first byte is returned verbatim (a
// clean between-frames boundary); any other failure is a truncated or
// corrupt stream.
func ReadFrame(br *bufio.Reader, version byte) (Frame, error) {
	var f Frame
	if !ValidVersion(version) {
		return f, fmt.Errorf("wire: cannot read a version %d frame", version)
	}
	idx, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return f, io.EOF
		}
		return f, fmt.Errorf("wire: frame index: %w", err)
	}
	f.Index = int(idx)
	kb, err := br.ReadByte()
	if err != nil {
		return f, fmt.Errorf("wire: frame kind: %w", eofIsUnexpected(err))
	}
	f.Kind = FrameKind(kb)
	if f.Kind != FrameTile && f.Kind != FrameDBox {
		return f, fmt.Errorf("wire: unknown frame kind %d", kb)
	}
	sb, err := br.ReadByte()
	if err != nil {
		return f, fmt.Errorf("wire: frame status: %w", eofIsUnexpected(err))
	}
	f.Status = FrameStatus(sb)
	if f.Status > FrameInternal {
		return f, fmt.Errorf("wire: unknown frame status %d", sb)
	}
	cb, err := br.ReadByte()
	if err != nil {
		return f, fmt.Errorf("wire: frame codec: %w", eofIsUnexpected(err))
	}
	f.Codec = FrameCodec(cb)
	if f.Codec > CodecDeltaFlate {
		return f, fmt.Errorf("wire: unknown frame codec %d", cb)
	}
	plen, err := binary.ReadUvarint(br)
	if err != nil {
		return f, fmt.Errorf("wire: payload length: %w", eofIsUnexpected(err))
	}
	if plen > MaxFramePayload {
		return f, fmt.Errorf("wire: payload of %d bytes exceeds limit", plen)
	}
	f.Payload = make([]byte, plen)
	if _, err := io.ReadFull(br, f.Payload); err != nil {
		return f, fmt.Errorf("wire: payload: %w", err)
	}
	return f, nil
}

// eofIsUnexpected maps a mid-frame EOF to ErrUnexpectedEOF so callers
// can always distinguish truncation from a clean end of stream.
func eofIsUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
