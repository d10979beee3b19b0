package wire

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// stdlibInflate is the reference Decompress is held to: compress/flate's
// streaming reader bounded by an io.LimitReader, which is how Decompress
// inflated before it had its own inflater.
func stdlibInflate(src []byte, limit int) ([]byte, error) {
	if limit <= 0 || limit > MaxFramePayload {
		limit = MaxFramePayload
	}
	var buf bytes.Buffer
	n, err := io.Copy(&buf, io.LimitReader(flate.NewReader(bytes.NewReader(src)), int64(limit)+1))
	if err != nil {
		return nil, err
	}
	if n > int64(limit) {
		return nil, errors.New("exceeds limit")
	}
	return buf.Bytes(), nil
}

// InflateMatchesStdlib is the differential check, shared with the
// external tests: Decompress and the reference must both accept src
// under limit or both reject it, and produce the same bytes when they
// accept. It reports whether they accepted.
func InflateMatchesStdlib(t testing.TB, src []byte, limit int) bool {
	t.Helper()
	want, werr := stdlibInflate(src, limit)
	got, gerr := Decompress(src, limit)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("stream %x (limit %d): compress/flate says %v, Decompress says %v", head(src), limit, werr, gerr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("stream %x (limit %d): inflated %d bytes, compress/flate %d, or the bytes differ", head(src), limit, len(got), len(want))
	}
	return werr == nil
}

func head(b []byte) []byte { return b[:min(len(b), 48)] }

// cuts returns the lengths of the strict prefixes of an n-byte stream
// worth truncating it at: every one near either end, a sample between.
func cuts(n int) []int {
	var c []int
	for i := 0; i < n; i++ {
		if i < 64 || i >= n-64 || i%97 == 0 {
			c = append(c, i)
		}
	}
	return c
}

// bitWriter builds DEFLATE streams by hand: bits go in least
// significant first, Huffman codes most significant bit first.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint64, n uint) *bitWriter {
	w.acc |= v << w.n
	w.n += n
	for w.n >= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		w.n -= 8
	}
	return w
}

func (w *bitWriter) code(c uint16, n uint) *bitWriter {
	return w.bits(uint64(bits.Reverse16(c)>>(16-n)), n)
}

// header starts a block: BFINAL, then BTYPE.
func (w *bitWriter) header(final bool, typ uint64) *bitWriter {
	f := uint64(0)
	if final {
		f = 1
	}
	return w.bits(f, 1).bits(typ, 2)
}

// stored writes a stored block, aligning to the byte boundary first.
func (w *bitWriter) stored(final bool, data []byte) *bitWriter {
	w.header(final, 0)
	w.align()
	w.bits(uint64(len(data)), 16).bits(uint64(^uint16(len(data))), 16)
	w.buf = append(w.buf, data...)
	return w
}

// pos is the number of bits written so far.
func (w *bitWriter) pos() int { return len(w.buf)*8 + int(w.n) }

func (w *bitWriter) align() *bitWriter {
	if w.n > 0 {
		w.bits(0, 8-w.n)
	}
	return w
}

func (w *bitWriter) bytes() []byte {
	w.align()
	return w.buf
}

// fixedLit writes literal/length symbol s in the fixed code.
func (w *bitWriter) fixedLit(s int) *bitWriter {
	switch {
	case s < 144:
		return w.code(uint16(0x30+s), 8)
	case s < 256:
		return w.code(uint16(0x190+s-144), 9)
	case s < 280:
		return w.code(uint16(s-256), 7)
	default:
		return w.code(uint16(0xC0+s-280), 8)
	}
}

func (w *bitWriter) fixedLits(s string) *bitWriter {
	for i := 0; i < len(s); i++ {
		w.fixedLit(int(s[i]))
	}
	return w
}

// canonical returns the canonical codes of the code lengths lens.
func canonical(lens []uint8) []uint16 {
	var count, next [16]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l, code := 1, 0; l < 16; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	codes := make([]uint16, len(lens))
	for s, l := range lens {
		if l != 0 {
			codes[s] = uint16(next[l])
			next[l]++
		}
	}
	return codes
}

// clenLens is a complete code-length code: 13 codes of 4 bits, 6 of 5.
var clenLens = func() []uint8 {
	l := make([]uint8, 19)
	for s := range l {
		l[s] = 4
		if s >= 13 {
			l[s] = 5
		}
	}
	return l
}()

// dynamicRaw writes a dynamic block header announcing nlit and ndist
// codes, whose code lengths are the code-length symbols syms, each
// {symbol, repeat extra}.
func (w *bitWriter) dynamicRaw(final bool, nlit, ndist int, syms [][2]int) *bitWriter {
	w.header(final, 2).bits(uint64(nlit-257), 5).bits(uint64(ndist-1), 5).bits(19-4, 4)
	for _, s := range []int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15} {
		w.bits(uint64(clenLens[s]), 3)
	}
	codes := canonical(clenLens)
	for _, s := range syms {
		w.code(codes[s[0]], uint(clenLens[s[0]]))
		switch s[0] {
		case 16:
			w.bits(uint64(s[1]), 2)
		case 17:
			w.bits(uint64(s[1]), 3)
		case 18:
			w.bits(uint64(s[1]), 7)
		}
	}
	return w
}

// dynamic writes a dynamic block header sending lit and dist literally
// and returns their canonical codes.
func (w *bitWriter) dynamic(final bool, lit, dist []uint8) (litCodes, distCodes []uint16) {
	var syms [][2]int
	for _, l := range append(append([]uint8{}, lit...), dist...) {
		syms = append(syms, [2]int{int(l)})
	}
	w.dynamicRaw(final, len(lit), len(dist), syms)
	return canonical(lit), canonical(dist)
}

// oneBitDistBlock is a dynamic block's codes with a degenerate distance
// tree: literal 'a' (1 bit), end of block and length 3 (2 bits each),
// and one distance code, distance 1, of 1 bit — or, with empty, none.
func oneBitDistBlock(w *bitWriter, empty bool) (lit, dist []uint16) {
	litLens := make([]uint8, 258)
	litLens['a'], litLens[256], litLens[257] = 1, 2, 2
	distLens := []uint8{1}
	if empty {
		distLens[0] = 0
	}
	return w.dynamic(true, litLens, distLens)
}

// litCode writes symbols in a hand-built dynamic block's
// literal/length code.
type litCode struct {
	w     *bitWriter
	lens  []uint8
	codes []uint16
}

func (c litCode) lits(s string) litCode {
	for i := 0; i < len(s); i++ {
		c.w.code(c.codes[s[i]], uint(c.lens[s[i]]))
	}
	return c
}

func (c litCode) end() *bitWriter { return c.w.code(c.codes[256], uint(c.lens[256])) }

// literalOnly starts a literal-only dynamic block: lens gives each
// literal's code length and eob the end of block's, no length symbol has
// a code, and the distance code is one 1-bit code, as compress/flate's
// Huffman-only writer sends.
func (w *bitWriter) literalOnly(final bool, lens map[byte]uint8, eob uint8) litCode {
	lit := make([]uint8, 257)
	for b, l := range lens {
		lit[b] = l
	}
	lit[256] = eob
	codes, _ := w.dynamic(final, lit, []uint8{1})
	return litCode{w, lit, codes}
}

// pairsLead opens the literal-only edge streams: more literals than
// pairsAfter, so what follows decodes through the pair table.
var pairsLead = strings.Repeat("ab", pairsAfter/2+100)

// huffmanOnlyDigits returns 2·pairsAfter random digits and their
// compress/flate Huffman-only stream: one literal-only block, long
// enough to switch to its pair table.
func huffmanOnlyDigits(rnd *rand.Rand) (digits, stream []byte) {
	digits = make([]byte, 2*pairsAfter)
	for i := range digits {
		digits[i] = '0' + byte(rnd.Intn(10))
	}
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flate.HuffmanOnly)
	fw.Write(digits)
	fw.Close()
	return digits, buf.Bytes()
}

// TestInflateEdgeStreams: hand-built streams at the corners of RFC 1951,
// each accepted or rejected as stated and exactly as compress/flate
// does.
func TestInflateEdgeStreams(t *testing.T) {
	rnd := rand.New(rand.NewSource(2019))
	window := make([]byte, 32768)
	rnd.Read(window)

	type edge struct {
		name   string
		stream []byte
		limit  int
		want   []byte // nil: rejected
	}
	cases := []edge{
		{name: "empty stored final block", stream: []byte{0x01, 0x00, 0x00, 0xFF, 0xFF}, want: []byte{}},
		{name: "empty input", stream: nil},
		{name: "reserved block type", stream: new(bitWriter).header(true, 3).bytes()},
		{name: "stored LEN/NLEN mismatch", stream: []byte{0x01, 0x03, 0x00, 0xFF, 0xFF, 'a', 'b', 'c'}},
		{name: "stored block shorter than LEN", stream: []byte{0x01, 0x03, 0x00, 0xFC, 0xFF, 'a', 'b'}},
		{
			name:   "bytes after the final block are ignored",
			stream: append(new(bitWriter).header(true, 1).fixedLits("kyrix").fixedLit(256).bytes(), 0xDE, 0xAD),
			want:   []byte("kyrix"),
		},
		{
			name: "distance-1 overlapping copies",
			// 'a', then (10, 1), then (258, 1), 'b', then (3, 2).
			stream: new(bitWriter).header(true, 1).fixedLits("a").
				fixedLit(264).code(0, 5).fixedLit(285).code(0, 5).
				fixedLits("b").fixedLit(257).code(1, 5).fixedLit(256).bytes(),
			want: []byte(string(bytes.Repeat([]byte("a"), 1+10+258)) + "baba"),
		},
		{
			name: "258-byte match at distance 3",
			stream: new(bitWriter).header(true, 1).fixedLits("abc").
				fixedLit(285).code(2, 5).fixedLit(256).bytes(),
			want: bytes.Repeat([]byte("abc"), 87)[:3+258],
		},
		{
			name: "distance exactly 32768",
			// Distance code 29 is 24577 plus 13 extra bits.
			stream: new(bitWriter).stored(false, window).header(true, 1).
				fixedLit(285).code(29, 5).bits(8191, 13).fixedLit(256).bytes(),
			want: append(append([]byte{}, window...), window[:258]...),
		},
		{
			name: "distance 32768 with 32767 bytes behind it",
			stream: new(bitWriter).stored(false, window[1:]).header(true, 1).
				fixedLit(257).code(29, 5).bits(8191, 13).fixedLit(256).bytes(),
		},
		{
			name:   "distance before any output",
			stream: new(bitWriter).header(true, 1).fixedLit(257).code(0, 5).fixedLit(256).bytes(),
		},
		{name: "fixed length symbol 286", stream: new(bitWriter).header(true, 1).fixedLits("ab").fixedLit(286).code(0, 5).fixedLit(256).bytes()},
		{name: "fixed length symbol 287", stream: new(bitWriter).header(true, 1).fixedLits("ab").fixedLit(287).code(0, 5).fixedLit(256).bytes()},
		{name: "fixed distance symbol 30", stream: new(bitWriter).header(true, 1).fixedLits("ab").fixedLit(257).code(30, 5).fixedLit(256).bytes()},
		{name: "fixed distance symbol 31", stream: new(bitWriter).header(true, 1).fixedLits("ab").fixedLit(257).code(31, 5).fixedLit(256).bytes()},
		{name: "HLIT 287", stream: new(bitWriter).dynamicRaw(true, 287, 1, nil).bytes()},
		{name: "HLIT 288", stream: new(bitWriter).dynamicRaw(true, 288, 1, nil).bytes()},
		{name: "HDIST 31", stream: new(bitWriter).dynamicRaw(true, 257, 31, nil).bytes()},
		{name: "repeat-16 with no previous length", stream: new(bitWriter).dynamicRaw(true, 257, 1, [][2]int{{16, 0}}).bytes()},
		{name: "repeat-18 past the last code length", stream: new(bitWriter).dynamicRaw(true, 257, 1, [][2]int{{18, 127}, {18, 127}, {18, 127}}).bytes()},
		{
			name: "incomplete literal/length code",
			stream: func() []byte {
				w := new(bitWriter)
				lit := make([]uint8, 257)
				lit['a'], lit[256] = 2, 2
				w.dynamic(true, lit, []uint8{1})
				return w.bytes()
			}(),
		},
		{
			name: "over-subscribed literal/length code",
			stream: func() []byte {
				w := new(bitWriter)
				lit := make([]uint8, 257)
				lit['a'], lit['b'], lit[256] = 1, 1, 1
				w.dynamic(true, lit, []uint8{1})
				return w.bytes()
			}(),
		},
		{
			name: "degenerate single-code distance tree",
			stream: func() []byte {
				w := new(bitWriter)
				lit, dist := oneBitDistBlock(w, false)
				for i := 0; i < 3; i++ {
					w.code(lit['a'], 1)
				}
				w.code(lit[257], 2).code(dist[0], 1).code(lit[256], 2)
				return w.bytes()
			}(),
			want: []byte("aaaaaa"),
		},
		{
			name: "degenerate distance tree, the unassigned bit",
			stream: func() []byte {
				w := new(bitWriter)
				lit, _ := oneBitDistBlock(w, false)
				w.code(lit['a'], 1).code(lit[257], 2).bits(1, 1).code(lit[256], 2)
				return w.bytes()
			}(),
		},
		{
			name: "empty distance tree, literals only",
			stream: func() []byte {
				w := new(bitWriter)
				lit, _ := oneBitDistBlock(w, true)
				w.code(lit['a'], 1).code(lit['a'], 1).code(lit[256], 2)
				return w.bytes()
			}(),
			want: []byte("aa"),
		},
		{
			name: "empty distance tree, then a length symbol",
			stream: func() []byte {
				w := new(bitWriter)
				lit, _ := oneBitDistBlock(w, true)
				w.code(lit['a'], 1).code(lit[257], 2).bits(0, 1).code(lit[256], 2)
				return w.bytes()
			}(),
		},
		{
			name: "literal-only, codes longer than tableBits",
			// a..l take 1..12 bits and the end of block 12: pairs, single
			// entries and the slow walk, the end of block through it too.
			stream: new(bitWriter).literalOnly(true, map[byte]uint8{
				'a': 1, 'b': 2, 'c': 3, 'd': 4, 'e': 5, 'f': 6, 'g': 7, 'h': 8, 'i': 9, 'j': 10, 'k': 11, 'l': 12,
			}, 12).lits(pairsLead + "abcdefghijkllkjihgfedcbaaaalakaaaab").end().bytes(),
			want: []byte(pairsLead + "abcdefghijkllkjihgfedcbaaaalakaaaab"),
		},
		{
			name: "literal-only, end of block in a pair's second slot",
			// 'a' and the end of block fit one lookup: 'a' alone, then the end.
			stream: new(bitWriter).literalOnly(true, map[byte]uint8{'a': 1, 'b': 2}, 2).
				lits(pairsLead + "a").end().bytes(),
			want: []byte(pairsLead + "a"),
		},
		{
			name: "literal-only, truncated mid-pair",
			stream: func() []byte {
				w := new(bitWriter)
				c := w.literalOnly(true, map[byte]uint8{'a': 1, 'b': 3, 'c': 3, 'd': 3}, 3).lits(pairsLead)
				for w.pos()%8 != 6 {
					c.lits("a")
				}
				// The pair "ab": the stream is cut after the first of
				// 'b''s 3 bits, at a byte boundary.
				c.lits("a")
				cut := w.pos()/8 + 1
				c.lits("b").end()
				return w.bytes()[:cut]
			}(),
		},
		{
			name: "literal-only block, then a mixed block",
			stream: func() []byte {
				w := new(bitWriter)
				w.literalOnly(false, map[byte]uint8{'a': 1, 'b': 2, 'c': 3}, 3).lits(pairsLead + "abcab").end()
				lit, dist := oneBitDistBlock(w, false)
				w.code(lit['a'], 1).code(lit[257], 2).code(dist[0], 1).code(lit[256], 2)
				return w.bytes()
			}(),
			want: []byte(pairsLead + "abcabaaaa"),
		},
	}
	// A stored block after a Huffman block, at every bit offset: the bit
	// buffer has loaded bytes of the stored block ahead and must hand
	// them back whole.
	for k := 0; k < 12; k++ {
		lits := string(bytes.Repeat([]byte("q"), k))
		cases = append(cases, edge{
			name: "stored block after " + strconv.Itoa(k) + " fixed literals",
			stream: new(bitWriter).header(false, 1).fixedLits(lits).fixedLit(256).
				stored(false, []byte("stored bytes, then more")).
				header(true, 1).fixedLits("!").fixedLit(256).bytes(),
			want: []byte(lits + "stored bytes, then more!"),
		})
	}
	// Output landing exactly on the limit, and one byte past it, on each
	// way a block can end.
	text := bytes.Repeat([]byte("abc"), 1000)
	deflated, err := Compress(text)
	if err != nil {
		t.Fatal(err)
	}
	fixed := new(bitWriter).header(true, 1).fixedLits("abcd").fixedLit(285).code(3, 5).fixedLit(256).bytes()
	storedOnly := new(bitWriter).stored(true, window[:100]).bytes()
	digits, huffOnly := huffmanOnlyDigits(rnd)
	for _, c := range []struct {
		name   string
		stream []byte
		out    []byte
	}{
		{"dynamic", deflated, text},
		{"literal-only", huffOnly, digits},
		{"fixed", fixed, bytes.Repeat([]byte("abcd"), 66)[:4+258]},
		{"stored", storedOnly, window[:100]},
	} {
		cases = append(cases,
			edge{name: c.name + " output exactly at the limit", stream: c.stream, limit: len(c.out), want: c.out},
			edge{name: c.name + " output one byte past the limit", stream: c.stream, limit: len(c.out) - 1})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := Decompress(c.stream, c.limit)
			if c.want == nil && err == nil {
				t.Fatalf("accepted, inflating to %q", head(got))
			}
			if c.want != nil && (err != nil || !bytes.Equal(got, c.want)) {
				t.Fatalf("got %q, %v; want %q", head(got), err, head(c.want))
			}
			if accepted := InflateMatchesStdlib(t, c.stream, c.limit); accepted != (c.want != nil) {
				t.Fatalf("compress/flate disagrees with the expectation (accepted %v)", accepted)
			}
			for _, cut := range cuts(len(c.stream)) {
				InflateMatchesStdlib(t, c.stream[:cut], c.limit)
			}
		})
	}
}

// TestDecompressExactSize: the result has no spare capacity, so a
// caller that caches it (L1 keeps peer fills) holds exactly what it is
// charged for.
func TestDecompressExactSize(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, 100, 5000, 20000, 34000, 100000, 300000} {
		src := make([]byte, size)
		for i := range src {
			src[i] = "kyrix dots "[rnd.Intn(11)]
		}
		c, err := Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Decompress(c, 0)
		if err != nil || !bytes.Equal(out, src) {
			t.Fatalf("size %d: round trip failed: %v", size, err)
		}
		if cap(out) != len(out) {
			t.Fatalf("size %d: cap %d != len %d", size, cap(out), len(out))
		}
	}
}

// TestDecompressResultsDoNotAlias: results are never views of the
// pooled scratch — eight goroutines inflating mixed payloads through the
// shared pool leave every earlier result unchanged. Run under -race.
func TestDecompressResultsDoNotAlias(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	type pair struct{ raw, deflated []byte }
	var pairs []pair
	for _, size := range []int{300, 4000, 30000, 90000} {
		for k := 0; k < 3; k++ {
			raw := make([]byte, size)
			for i := range raw {
				raw[i] = byte('a' + rnd.Intn(4+k*8))
			}
			c, err := Compress(raw)
			if err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, pair{raw, c})
		}
	}
	const workers, rounds = 8, 40
	results := make([][][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				out, err := Decompress(pairs[(w+r)%len(pairs)].deflated, 0)
				if err != nil {
					t.Error(err)
					return
				}
				results[w] = append(results[w], out)
			}
		}(w)
	}
	wg.Wait()
	for w := range results {
		for r, out := range results[w] {
			if !bytes.Equal(out, pairs[(w+r)%len(pairs)].raw) {
				t.Fatalf("worker %d result %d changed after later calls", w, r)
			}
		}
	}
}

// FuzzInflateMatchesStdlib: on any input and limit, Decompress accepts
// exactly what compress/flate accepts and inflates it to the same bytes.
// CI's fuzz-smoke job runs the mutator; every go test runs the seeds.
func FuzzInflateMatchesStdlib(f *testing.F) {
	rnd := rand.New(rand.NewSource(2019))
	noise := make([]byte, 3000)
	rnd.Read(noise)
	runs := bytes.Repeat([]byte("id,x,y,val 0.125 1e3 "), 150)
	for _, raw := range [][]byte{nil, []byte("a"), noise, runs} {
		for _, level := range []int{flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression, flate.HuffmanOnly} {
			var buf bytes.Buffer
			fw, _ := flate.NewWriter(&buf, level)
			fw.Write(raw)
			fw.Close()
			f.Add(buf.Bytes(), uint32(0))
			f.Add(buf.Bytes(), uint32(len(raw)))
		}
	}
	w := new(bitWriter)
	lit, dist := oneBitDistBlock(w, false)
	w.code(lit['a'], 1).code(lit[257], 2).code(dist[0], 1).code(lit[256], 2)
	f.Add(w.bytes(), uint32(0))
	f.Add(new(bitWriter).header(false, 1).fixedLits("abc").fixedLit(256).stored(true, []byte("xyz")).bytes(), uint32(0))
	_, huffOnly := huffmanOnlyDigits(rnd)
	f.Add(huffOnly, uint32(0))
	f.Fuzz(func(t *testing.T, stream []byte, limit uint32) {
		// Bounded so a mutated stream cannot ask for a frame-sized output.
		InflateMatchesStdlib(t, stream, int(limit%(1<<20))+1)
	})
}
