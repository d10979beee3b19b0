package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
)

// One-pass DEFLATE (RFC 1951) decoding for Decompress. A frame is whole
// in memory and inflates to at most MaxFramePayload bytes, so there is
// no stream to read and no window ring to keep: the inflater loads the
// compressed bytes 8 at a time from the slice into a 64-bit bit buffer
// and writes into one output slice that is also the back-reference
// window. A 10-bit table decodes every code up to 10 bits in one
// lookup; longer codes, which the encoder gives only to rare symbols,
// take a canonical bit-by-bit walk.
//
// A dynamic block whose literal/length code gives no length symbol a
// code — what Compress's Huffman-only coding writes for digit-heavy
// text — is literal-only, and decodes through a pair table built from
// the literal table in one pass: where a literal's code leaves room in
// the 10 index bits for the whole code of the literal after it, one
// entry yields both bytes (the double-symbol tables of Zstandard's
// HUF_decompress4X2). Mixed blocks, whose literals are interleaved with
// matches, keep the one-symbol loop and pay for no second table.
//
// It accepts exactly the streams compress/flate's reader accepts (that
// reader is the tests' reference): complete Huffman codes plus the
// degenerate single one-bit code, HLIT ≤ 286 and HDIST ≤ 30, no
// repeat-previous before the first code length, no distance reaching
// before the start of the output, no length symbol 286–287 or distance
// symbol 30–31, stored blocks whose LEN and NLEN agree, and no stream
// that ends before its final block does. Bytes after the final block
// are ignored, as there.

const (
	tableBits   = 10
	tableMask   = 1<<tableBits - 1
	maxCodeBits = 15
	maxMatch    = 258
	// outMargin is the room past op a Huffman block's inner loop needs:
	// a longest match, copied 8 bytes at a time.
	outMargin   = maxMatch + 8
	maxLitCodes = 286
	maxDistCode = 30
)

// A table entry describes the symbol whose code the bit buffer starts
// with:
//
//	bits 0–3    code length; 0 sends the lookup to the slow path
//	bits 4–7    count of extra bits that follow the code; for a literal,
//	            the count of literals the entry yields (1, or 2 in a pair table)
//	bits 8–9    kind: literal, match (length or distance), end of block, invalid
//	bits 16–31  value: literal byte (two in a pair entry, the first in
//	            bits 16–23), length or distance base, code-length symbol
const (
	kindLiteral = 0 << 8
	kindMatch   = 1 << 8
	kindEnd     = 2 << 8
	kindInvalid = 3 << 8
	kindMask    = 3 << 8
)

// Per-symbol entries, code length left 0, of the three alphabets.
var (
	litInfo  [288]uint32
	distInfo [32]uint32
	clenInfo [19]uint32
)

// The fixed codes of RFC 1951 §3.2.6. They assign codes to length
// symbols 286–287 and distance symbols 30–31 too, whose kind is invalid.
var fixedLit, fixedDist huffman

func init() {
	for s := 0; s < 256; s++ {
		litInfo[s] = uint32(s)<<16 | 1<<4 | kindLiteral
	}
	litInfo[256] = kindEnd
	base, extra := 3, 0
	for s := 257; s < 285; s++ {
		if s >= 265 {
			extra = (s - 261) / 4
		}
		litInfo[s] = uint32(base)<<16 | uint32(extra)<<4 | kindMatch
		base += 1 << extra
	}
	litInfo[285] = maxMatch<<16 | kindMatch
	litInfo[286], litInfo[287] = kindInvalid, kindInvalid
	for d := 0; d < maxDistCode; d++ {
		base, extra := d+1, 0
		if d >= 4 {
			extra = d/2 - 1
			base = 1<<(extra+1) + 1 + (d&1)<<extra
		}
		distInfo[d] = uint32(base)<<16 | uint32(extra)<<4 | kindMatch
	}
	distInfo[30], distInfo[31] = kindInvalid, kindInvalid
	for s := range clenInfo {
		clenInfo[s] = uint32(s) << 16
	}

	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	fixedLit.init(lens[:], litInfo[:])
	for s := range distInfo {
		lens[s] = 5
	}
	fixedDist.init(lens[:len(distInfo)], distInfo[:])
}

// huffman decodes one canonical Huffman code.
type huffman struct {
	table [1 << tableBits]uint32 // by the next tableBits bits of input
	count [maxCodeBits + 1]uint16
	syms  [288]uint16 // symbols by code length, then value
	info  []uint32
}

// init builds the decoder for the code lengths lens, indexed by symbol,
// whose entries come from info. It reports false for a code
// compress/flate refuses: over- or under-subscribed, unless it is one
// code of length 1. An empty code is accepted; every lookup in it fails.
func (h *huffman) init(lens []uint8, info []uint32) bool {
	h.info = info
	h.count = [maxCodeBits + 1]uint16{}
	for _, l := range lens {
		h.count[l]++
	}
	h.count[0] = 0
	var next [maxCodeBits + 1]int // first code of each length
	code, max := 0, 0
	for l := 1; l <= maxCodeBits; l++ {
		code = (code + int(h.count[l-1])) << 1
		next[l] = code
		if h.count[l] != 0 {
			max = l
		}
	}
	if max == 0 {
		clear(h.table[:])
		return true
	}
	used := next[max] + int(h.count[max])
	if used != 1<<max && !(max == 1 && used == 1) {
		return false
	}
	// With every code at most tableBits long, entry i depends only on
	// i's low max bits: fill the first 1<<max entries, then double them
	// up to the full table. A complete code writes every entry it fills;
	// otherwise the entries it leaves must read as "no code".
	fill := h.table[:1<<min(max, tableBits)]
	if used != 1<<max || max > tableBits {
		clear(fill)
	}
	var offs [maxCodeBits + 1]uint16
	for l := 1; l < maxCodeBits; l++ {
		offs[l+1] = offs[l] + h.count[l]
	}
	for s, l := range lens {
		if l == 0 {
			continue
		}
		h.syms[offs[l]] = uint16(s)
		offs[l]++
		if l > tableBits {
			continue
		}
		// Codes are sent most significant bit first, so the table is
		// indexed by the code's bits reversed, for every continuation.
		e := info[s] | uint32(l)
		for i := int(bits.Reverse16(uint16(next[l])) >> (16 - l)); i < len(fill); i += 1 << l {
			fill[i] = e
		}
		next[l]++
	}
	for n := len(fill); n < len(h.table); n *= 2 {
		copy(h.table[n:], h.table[:n])
	}
	return true
}

// slow decodes the code at the start of b that the table has no entry
// for — one longer than tableBits, or none at all — by walking the
// canonical code a bit at a time. It returns the symbol's entry, or 0
// when b starts no code.
func (h *huffman) slow(b uint64) uint32 {
	code, first, index := 0, 0, 0
	for l := 1; l <= maxCodeBits; l++ {
		code |= int(b & 1)
		b >>= 1
		count := int(h.count[l])
		if code-first < count {
			return h.info[h.syms[index+code-first]] | uint32(l)
		}
		index += count
		first = (first + count) << 1
		code <<= 1
	}
	return 0
}

// inflateError is a corrupt stream, named by what was wrong.
type inflateError string

func (e inflateError) Error() string { return "wire: decompress: " + string(e) }

const (
	errBlockType = inflateError("reserved block type")
	errStoredLen = inflateError("stored block length does not match its complement")
	errCounts    = inflateError("more than 286 literal/length or 30 distance codes")
	errLengths   = inflateError("code lengths form no valid Huffman code")
	errRepeat    = inflateError("code-length repeat out of range")
	errCode      = inflateError("bits match no Huffman code")
	errSymbol    = inflateError("reserved length or distance symbol")
	errDistance  = inflateError("distance reaches before the start of the output")
)

var errTruncated = fmt.Errorf("wire: decompress: %w", io.ErrUnexpectedEOF)

// codeOrder is the order code-length code lengths are sent in.
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// inflater is the state of one Decompress call, pooled with its output
// buffer and tables.
type inflater struct {
	// src is the compressed stream — or tail, once fewer than 8 of its
	// bytes are left to load — and src[:end] its real bytes; tail pads
	// them with zeros so the bit buffer refills the same way to the end.
	// Consuming a padding bit is truncation, checked where a block ends.
	src    []byte
	end    int
	in     int // next byte of src to load
	tail   [32]byte
	inTail bool
	// bits holds nbits unconsumed input bits, next bit lowest; above
	// them may sit copies of the bits at src[in], which the next load
	// ORs in again unchanged.
	bits  uint64
	nbits uint
	// out[:op] is the output so far. len(out) never exceeds
	// limit+outMargin, and a Huffman block decodes without bounds
	// trouble while op ≤ len(out)-outMargin; past the limit is an error.
	out   []byte
	op    int
	limit int

	lit, dist, clen huffman
	lens            [maxLitCodes + maxDistCode]uint8
	// pairs is a literal-only block's pair table; see buildPairs.
	pairs [1 << tableBits]uint32
}

// inflate decodes the DEFLATE stream src into f.out[:n], failing if it
// is corrupt, truncated or inflates past limit bytes.
func (f *inflater) inflate(src []byte, limit int) (n int, err error) {
	f.src, f.end, f.in, f.inTail = src, len(src), 0, false
	f.bits, f.nbits = 0, 0
	f.op, f.limit = 0, limit
	f.out = f.out[:min(cap(f.out), limit+outMargin)]
	for final := false; !final; {
		if !f.need(3) {
			return 0, errTruncated
		}
		final = f.bits&1 == 1
		typ := f.bits >> 1 & 3
		f.consume(3)
		switch typ {
		case 0:
			err = f.stored()
		case 1:
			err = f.block(&fixedLit, &fixedDist)
		case 2:
			var litOnly bool
			if litOnly, err = f.readTables(); err == nil && litOnly {
				err = f.literals()
			} else if err == nil {
				err = f.block(&f.lit, &f.dist)
			}
		default:
			err = errBlockType
		}
		// Bits decoded from the tail's padding say nothing: the stream
		// ended early, whatever they decoded to.
		if f.truncated() {
			return 0, errTruncated
		}
		if err != nil {
			return 0, err
		}
		if f.op > f.limit {
			return 0, f.overLimit()
		}
	}
	return f.op, nil
}

func (f *inflater) overLimit() error {
	return fmt.Errorf("wire: decompressed payload exceeds %d byte limit", f.limit)
}

// need makes at least n ≤ 56 bits available, reporting false if the
// input ran out — which by then means padding was already consumed.
func (f *inflater) need(n uint) bool {
	if f.nbits >= n {
		return true
	}
	if f.in+8 > len(f.src) && !f.toTail() {
		return false
	}
	f.bits |= binary.LittleEndian.Uint64(f.src[f.in:]) << f.nbits
	f.in += int(63-f.nbits) >> 3
	f.nbits |= 56
	return true
}

func (f *inflater) consume(n uint) {
	f.bits >>= n
	f.nbits -= n
}

// toTail moves the unconsumed input, from the byte holding the next
// bit, into the zero-padded tail. It reports false when the input is
// already there: the tail is long enough that running out of it means
// more bits were consumed than the real input holds.
func (f *inflater) toTail() bool {
	if f.inTail {
		return false
	}
	start := (f.in*8 - int(f.nbits)) >> 3
	f.tail = [len(f.tail)]byte{}
	n := copy(f.tail[:], f.src[start:f.end])
	f.src, f.end, f.in, f.inTail = f.tail[:], n, f.in-start, true
	return true
}

// truncated reports whether decoding consumed bits past the real input.
// It is checked after every block, which must end inside the input.
func (f *inflater) truncated() bool {
	return f.in*8-int(f.nbits) > f.end*8
}

// grow makes out hold at least need bytes, need ≤ limit+outMargin.
func (f *inflater) grow(need int) {
	n := min(max(2*len(f.out), need, 8*len(f.src), 64<<10), f.limit+outMargin)
	if n <= cap(f.out) {
		f.out = f.out[:n]
		return
	}
	out := make([]byte, n)
	copy(out, f.out[:f.op])
	f.out = out
}

// stored copies a stored block: from the byte boundary after its
// header, LEN and NLEN, then LEN bytes. The bit buffer hands back the
// whole bytes it loaded ahead and drops the rest.
func (f *inflater) stored() error {
	in := (f.in*8 - int(f.nbits) + 7) >> 3
	f.in, f.bits, f.nbits = in, 0, 0
	if in+4 > f.end {
		return errTruncated
	}
	n := int(binary.LittleEndian.Uint16(f.src[in:]))
	if binary.LittleEndian.Uint16(f.src[in+2:]) != ^uint16(n) {
		return errStoredLen
	}
	in += 4
	if in+n > f.end {
		return errTruncated
	}
	if f.op+n > f.limit {
		return f.overLimit()
	}
	if f.op+n > len(f.out) {
		f.grow(f.op + n)
	}
	f.op += copy(f.out[f.op:], f.src[in:in+n])
	f.in = in + n
	return nil
}

// readTables reads a dynamic block's code definitions into f.lit and
// f.dist, and reports whether the block is literal-only: no length
// symbol has a code.
func (f *inflater) readTables() (litOnly bool, err error) {
	if !f.need(14) {
		return false, errTruncated
	}
	nlit := int(f.bits&0x1F) + 257
	ndist := int(f.bits>>5&0x1F) + 1
	nclen := int(f.bits>>10&0xF) + 4
	f.consume(14)
	if nlit > maxLitCodes || ndist > maxDistCode {
		return false, errCounts
	}
	var clens [len(codeOrder)]uint8
	for _, s := range codeOrder[:nclen] {
		if !f.need(3) {
			return false, errTruncated
		}
		clens[s] = uint8(f.bits & 7)
		f.consume(3)
	}
	if !f.clen.init(clens[:], clenInfo[:]) {
		return false, errLengths
	}
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		// A code-length code is at most 7 bits, its repeat count 7 more.
		if !f.need(14) {
			return false, errTruncated
		}
		e := f.clen.table[f.bits&tableMask]
		if e&15 == 0 {
			if e = f.clen.slow(f.bits); e == 0 {
				return false, errCode
			}
		}
		f.consume(uint(e & 15))
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		var rep int
		var prev uint8
		switch sym {
		case 16:
			if i == 0 {
				return false, errRepeat
			}
			rep, prev = 3+int(f.bits&3), lens[i-1]
			f.consume(2)
		case 17:
			rep = 3 + int(f.bits&7)
			f.consume(3)
		default:
			rep = 11 + int(f.bits&0x7F)
			f.consume(7)
		}
		if i+rep > len(lens) {
			return false, errRepeat
		}
		for end := i + rep; i < end; i++ {
			lens[i] = prev
		}
	}
	if !f.lit.init(lens[:nlit], litInfo[:]) || !f.dist.init(lens[nlit:], distInfo[:]) {
		return false, errLengths
	}
	for _, l := range lens[257:nlit] {
		if l != 0 {
			return false, nil
		}
	}
	return true, nil
}

// block decodes one Huffman-coded block. Its inner loop keeps the
// decoder's state in locals and runs while 8 input bytes remain to load
// and the output has outMargin bytes of room. Every symbol that is not a
// literal is decoded right after a load, which covers its longest code,
// extra bits, distance code and distance extra bits (48 bits). Between
// runs it moves the input into the tail or grows the output.
func (f *inflater) block(lit, dist *huffman) (err error) {
	for end := false; ; {
		src, in, b, nb := f.src, f.in, f.bits, f.nbits
		out, op := f.out, f.op
		for in+8 <= len(src) && op <= len(out)-outMargin {
			b |= binary.LittleEndian.Uint64(src[in:]) << nb
			in += int(63-nb) >> 3
			nb |= 56

			e := lit.table[b&tableMask]
			if e&15 == 0 {
				if e = lit.slow(b); e == 0 {
					err = errCode
					break
				}
			}
			n := uint(e & 15)
			b >>= n
			nb -= n
			if e&kindMask == kindLiteral {
				// Literals whose codes the table holds follow without a
				// reload while the buffer covers a lookup; that is at
				// most 63 bytes, inside the margin.
				for {
					out[op] = byte(e >> 16)
					op++
					if nb < tableBits {
						break
					}
					if e = lit.table[b&tableMask]; e&kindMask != kindLiteral || e&15 == 0 {
						break
					}
					n = uint(e & 15)
					b >>= n
					nb -= n
				}
				continue
			}
			if e&kindMask != kindMatch {
				if end = e&kindMask == kindEnd; !end {
					err = errSymbol
				}
				break
			}
			x := uint(e>>4) & 15
			length := int(e>>16) + int(b&(1<<x-1))
			b >>= x
			nb -= x

			e = dist.table[b&tableMask]
			if e&15 == 0 {
				if e = dist.slow(b); e == 0 {
					err = errCode
					break
				}
			}
			n = uint(e & 15)
			b >>= n
			nb -= n
			if e&kindMask != kindMatch {
				err = errSymbol
				break
			}
			x = uint(e>>4) & 15
			d := int(e>>16) + int(b&(1<<x-1))
			b >>= x
			nb -= x
			if d > op {
				err = errDistance
				break
			}
			if d >= 8 {
				// Every 8-byte chunk's source is already written; the
				// last chunk may run up to 7 bytes into the margin.
				for i := 0; i < length; i += 8 {
					binary.LittleEndian.PutUint64(out[op+i:], binary.LittleEndian.Uint64(out[op-d+i:]))
				}
				op += length
				continue
			}
			// A short distance: the output repeats with period d, so each
			// copy can take everything from the match's source up to op.
			from, stop := op-d, op+length
			for op < stop {
				op += copy(out[op:stop], out[from:op])
			}
		}
		f.in, f.bits, f.nbits, f.op = in, b, nb, op
		if err != nil || end {
			return err
		}
		if err = f.reload(); err != nil {
			return err
		}
	}
}

// reload readies a Huffman block's next inner-loop run, after one
// stopped short of the end of its block: it grows the output when
// fewer than outMargin bytes are left, or moves the input into the
// tail when fewer than 8 bytes are left to load.
func (f *inflater) reload() error {
	if f.op > len(f.out)-outMargin {
		if f.op > f.limit {
			return f.overLimit()
		}
		f.grow(f.op + outMargin)
	}
	if f.in+8 > len(f.src) && !f.toTail() {
		return errTruncated
	}
	return nil
}

// pairsAfter is how many bytes a literal-only block decodes one literal
// per lookup before it builds its pair table. The build visits the
// table's 1<<tableBits entries, which costs about what decoding that
// many literals does; a block that has run to four times as many is
// likely long enough to repay it, and a short one — a binary payload's
// last run can code as one — ends first.
const pairsAfter = 4 << tableBits

// buildPairs fills f.pairs from f.lit's table, which holds no length
// symbol. Entry i pairs its literal of code length l1 with the literal
// whose code starts at bit l1, read from the entry at i>>l1, when that
// code is fully inside i: l1+l2 ≤ tableBits. Every other entry is copied
// as it is: a literal alone, the end of block, or one sending a lookup
// to slow.
func (f *inflater) buildPairs() {
	lit := &f.lit.table
	for i, e := range lit {
		f.pairs[i] = e
		l1 := e & 15
		if e&kindMask != kindLiteral || l1 == 0 {
			continue
		}
		if e2 := lit[i>>l1]; e2&kindMask == kindLiteral && e2&15 != 0 && l1+e2&15 <= tableBits {
			f.pairs[i] = e2>>16<<24 | e&0xFF0000 | 2<<4 | kindLiteral | (l1 + e2&15)
		}
	}
}

// literals decodes a literal-only block: through f.lit's table, then,
// once the block has decoded pairsAfter bytes, through f.pairs, two
// literals per lookup where the pair table has them. Its inner loop
// runs like block's: while 8 input bytes remain to load and the output
// has outMargin bytes of room. A refill leaves at most 63 bits in the
// buffer and every lookup consumes at least one bit per literal it
// writes, so one refill writes at most 63 literals, plus the unused
// second byte a one-literal entry stores past them — inside the margin.
// The end of block and codes longer than tableBits are decoded right
// after a load, through slow (which covers 15 bits).
func (f *inflater) literals() (err error) {
	lit := &f.lit
	table, pairsAt := &lit.table, f.op+pairsAfter
	for end := false; ; {
		src, in, b, nb := f.src, f.in, f.bits, f.nbits
		out, op := f.out, f.op
		for in+8 <= len(src) && op <= len(out)-outMargin {
			b |= binary.LittleEndian.Uint64(src[in:]) << nb
			in += int(63-nb) >> 3
			nb |= 56
			if op >= pairsAt && table == &lit.table {
				f.buildPairs()
				table = &f.pairs
			}

			e := table[b&tableMask]
			if e&kindMask != kindLiteral || e&15 == 0 {
				if e&15 == 0 {
					if e = lit.slow(b); e == 0 {
						err = errCode
						break
					}
				}
				n := uint(e & 15)
				b >>= n
				nb -= n
				// With no length symbol, a non-literal is the end.
				if end = e&kindMask != kindLiteral; end {
					break
				}
				out[op] = byte(e >> 16)
				op++
				continue
			}
			for {
				out[op] = byte(e >> 16)
				out[op+1] = byte(e >> 24)
				op += int(e>>4) & 15
				n := uint(e & 15)
				b >>= n
				nb -= n
				if nb < tableBits {
					break
				}
				// Anything but a table literal waits for the next load.
				if e = table[b&tableMask]; e&kindMask != kindLiteral || e&15 == 0 {
					break
				}
			}
		}
		f.in, f.bits, f.nbits, f.op = in, b, nb, op
		if err != nil || end {
			return err
		}
		if err = f.reload(); err != nil {
			return err
		}
	}
}
