package server

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
	"strconv"
	"time"

	"kyrix/internal/storage"
	"kyrix/internal/wire"
)

// A cached payload exists in three forms, each computed once:
//
//   - raw + id: the rows in the request codec and their content hash
//     (wire.PayloadID). Built in the fill flight — database query, L2
//     promote or peer fill — and stored in L1 as one immutable *payload.
//     L1 and L2 account for the raw bytes only. A binary payload is
//     column-major (wire.go): byte planes, BOOL bytes, TEXT lengths and
//     bytes.
//   - the DEFLATE body — high-entropy byte planes stored, the rest
//     deflated (wire.Compress) — or the verdict that it is not smaller.
//   - the row index: each row's id, and where its bytes sit inside raw —
//     a byte range per JSON row, a position in every column of a binary
//     one.
//
// A pair of payloads — a client's declared delta base and the payload
// it pans to — has one more: the delta frame that ships between them
// (frames.go), or the verdict that no delta pays.
//
// The derived forms are built on first need and live in the
// content-addressed wire memo (Server.wireMemo), keyed by id — by both
// ids for a pair. Content addressing makes them immutable too: an
// /update produces new bytes under a new id, so the memo needs no
// invalidation, only its LRU bound.

// payload is the L1 value: one tile's or box's encoded rows plus the
// identity of those exact bytes. Never mutated after construction.
type payload struct {
	raw []byte
	id  uint64
}

func newPayload(raw []byte) *payload {
	return &payload{raw: raw, id: wire.PayloadID(raw)}
}

// memoEntryOverhead is charged per memo entry on top of its slices, so
// "not worth compressing" verdicts and empty indexes are not free.
const memoEntryOverhead = 64

// Memo key kinds: one derived form per (kind, payload id). The row
// index depends on how the bytes are parsed, so each codec has its own.
// A delta frame is keyed by (kind, base id, new id); its bytes depend on
// the codec and on whether the response may deflate it.
const (
	memoFlate       = 'z'
	memoIndexJSON   = 'j'
	memoIndexBinary = 'b'

	memoDeltaJSON        = 'd'
	memoDeltaJSONFlate   = 'D'
	memoDeltaBinary      = 'e'
	memoDeltaBinaryFlate = 'E'
)

// memoKey is a kind byte and one payload id, or two for a pair.
type memoKey [17]byte

func newMemoKey(kind byte, id uint64) memoKey {
	var k memoKey
	k[0] = kind
	binary.BigEndian.PutUint64(k[1:], id)
	return k
}

func newPairKey(kind byte, base, next uint64) memoKey {
	k := newMemoKey(kind, base)
	binary.BigEndian.PutUint64(k[9:], next)
	return k
}

// memoGet looks one derived form up in the wire memo.
func (s *Server) memoGet(k memoKey) (any, bool) {
	return s.wireMemo.Get(string(k[:]))
}

// memoBuild builds the derived form a memoGet just missed and stores it
// charged at size, at most once per residency: concurrent first
// requests for a hot payload share one build.
func (s *Server) memoBuild(k memoKey, build func() (v any, size int64)) any {
	key := string(k[:])
	v, _, _ := s.memoFlight.Do(key, func() (any, error) {
		// A flight that finished while this caller queued has already
		// stored the form.
		if v, ok := s.wireMemo.Peek(key); ok {
			return v, nil
		}
		v, size := build()
		s.wireMemo.Put(key, v, memoEntryOverhead+size)
		return v, nil
	})
	return v
}

// deflate is the server's one real DEFLATE call site: the pass itself,
// sampled into the compress stage histogram — so that histogram's count
// is the number of deflate passes run. nil means "ship it uncompressed":
// the body is too small to pay for a pass, or the pass did not shrink it
// (wire.Compress stores what its entropy estimate calls incompressible,
// so an incompressible body costs a histogram, not a deflate).
func (s *Server) deflate(body []byte) []byte {
	if len(body) < wire.CompressMinSize {
		return nil
	}
	start := time.Now()
	cb, err := wire.Compress(body)
	s.obs.stageComp.Observe(time.Since(start))
	if err != nil || len(cb) >= len(body) {
		return nil
	}
	return cb
}

// flateOf returns p's DEFLATE body (nil: not worth compressing),
// deflating on the first request only.
func (s *Server) flateOf(p *payload) (body []byte, cached bool) {
	k := newMemoKey(memoFlate, p.id)
	if v, ok := s.memoGet(k); ok {
		return v.([]byte), true
	}
	return s.memoBuild(k, func() (any, int64) {
		cb := s.deflate(p.raw)
		return cb, int64(len(cb))
	}).([]byte), false
}

// rowIndex locates every row of a payload inside its raw bytes, so the
// delta planner can diff two payloads by id and assemble the entering
// rows by copying bytes — no row is ever decoded or re-encoded. A JSON
// row is one byte range; a binary row is one position in every column.
type rowIndex struct {
	// hdr is where the codec's per-payload row section starts: the row
	// count varint (binary) or the first byte after `"rows":[` (JSON).
	// raw[:hdr] is the schema header, identical for any subset of rows.
	hdr uint32
	n   int
	// off (JSON only) holds where each row starts; row i ends at
	// off[i+1]-1, before the comma that separates rows. len(off) == n+1.
	off []uint32
	// cols (binary only) is every column's section, in schema order;
	// non-nil for every binary payload, even one with no columns.
	cols []indexColumn
	// ids[i] is row i's integer first column; perm lists row positions
	// in ascending id order. Both nil unless diffable.
	ids  []int64
	perm []uint32
	// diffable: the rows carry a unique integer identity in column 0
	// (or there are no rows), which is what the id-based delta needs.
	diffable bool
}

// indexColumn is one column of a binary payload as subset gathers it.
type indexColumn struct {
	typ storage.ColType
	// at is where the section starts: the first byte plane (INT,
	// DOUBLE), the bytes (BOOL) or the length varints (TEXT).
	at uint32
	// lens and strs (TEXT only) bound row i's length varint at
	// raw[lens[i]:lens[i+1]] and its bytes at raw[strs[i]:strs[i+1]].
	lens, strs []uint32
}

func (ix *rowIndex) rows() int { return ix.n }

// pinned is the bytes the index's slices hold, which is what the wire
// memo charges for it.
func (ix *rowIndex) pinned() int64 {
	n := 8*cap(ix.ids) + 4*cap(ix.off) + 4*cap(ix.perm)
	for _, c := range ix.cols {
		n += 4*cap(c.lens) + 4*cap(c.strs)
	}
	return int64(n)
}

// rowIndexOf returns p's row index under codec (nil: the bytes do not
// scan as a payload of that codec), scanning on the first request only.
func (s *Server) rowIndexOf(p *payload, codec Codec) *rowIndex {
	kind := byte(memoIndexJSON)
	if codec == CodecBinary {
		kind = memoIndexBinary
	}
	k := newMemoKey(kind, p.id)
	if v, ok := s.memoGet(k); ok {
		return v.(*rowIndex)
	}
	return s.memoBuild(k, func() (any, int64) {
		ix := buildRowIndex(p.raw, codec)
		if ix == nil {
			return ix, 0
		}
		return ix, ix.pinned()
	}).(*rowIndex)
}

// buildRowIndex scans raw once. The bytes may come from the L2 store or
// a peer, so every count and length is checked against what remains.
func buildRowIndex(raw []byte, codec Codec) *rowIndex {
	if len(raw) > int(^uint32(0)>>1) {
		return nil
	}
	var ix *rowIndex
	var intID bool
	switch codec {
	case CodecBinary:
		ix, intID = scanBinaryRows(raw)
	default:
		ix, intID = scanJSONRows(raw)
	}
	if ix == nil {
		return nil
	}
	n := ix.rows()
	if n == 0 {
		ix.diffable = intID
		return ix
	}
	if !intID {
		return ix
	}
	ix.ids = make([]int64, n)
	for i := range ix.ids {
		id, ok := ix.rowID(raw, i)
		if !ok {
			ix.ids = nil
			return ix
		}
		ix.ids[i] = id
	}
	ix.perm = make([]uint32, n)
	for i := range ix.perm {
		ix.perm[i] = uint32(i)
	}
	slices.SortFunc(ix.perm, func(a, b uint32) int { return cmp.Compare(ix.ids[a], ix.ids[b]) })
	// The diff is a set diff: duplicate ids within a box would collapse
	// and reconstruct a wrong row multiset client-side. A layer emitting
	// non-unique ids gets full frames instead.
	ix.diffable = true
	for i := 1; i < n; i++ {
		if ix.ids[ix.perm[i]] == ix.ids[ix.perm[i-1]] {
			ix.diffable = false
			break
		}
	}
	return ix
}

// rowID reads the integer first column of row i: out of the id column's
// byte planes (binary) or the row's first cell (JSON).
func (ix *rowIndex) rowID(raw []byte, i int) (int64, bool) {
	if ix.cols != nil {
		return int64(planeValue(raw[ix.cols[0].at:], ix.n, i)), true
	}
	// `[123,...]` or `[123]`.
	row := raw[ix.off[i] : ix.off[i+1]-1]
	end := bytes.IndexAny(row, ",]")
	if len(row) < 2 || end < 1 {
		return 0, false
	}
	id, err := strconv.ParseInt(string(row[1:end]), 10, 64)
	return id, err == nil
}

// scanBinaryRows indexes a binary payload. intID reports whether the
// rows can carry an integer identity: a non-empty schema whose first
// column is an integer — or, with no rows to say otherwise, any
// non-empty schema (an empty result carries fallback column types).
func scanBinaryRows(raw []byte) (ix *rowIndex, intID bool) {
	l, err := parseBinary(raw)
	if err != nil {
		return nil, false
	}
	ix = &rowIndex{hdr: uint32(l.countOff), n: l.nrows, cols: make([]indexColumn, len(l.types))}
	for c, t := range l.types {
		col := &ix.cols[c]
		col.typ, col.at = t, uint32(l.colOff[c])
		if t != storage.TString {
			continue
		}
		col.lens, col.strs = make([]uint32, l.nrows+1), make([]uint32, l.nrows+1)
		lens := l.colOff[c]
		for i := range l.nrows {
			col.lens[i] = uint32(lens)
			_, sz := binary.Uvarint(raw[lens:])
			lens += sz
		}
		col.lens[l.nrows] = uint32(lens)
		str := lens
		for i := range l.nrows {
			col.strs[i] = uint32(str)
			ln, _ := binary.Uvarint(raw[col.lens[i]:])
			str += int(ln)
		}
		col.strs[l.nrows] = uint32(str)
	}
	return ix, len(l.types) > 0 && (l.nrows == 0 || l.types[0] == storage.TInt64)
}

// scanJSONRows indexes a JSON payload: the jsonScanner's rows walk with
// a sink that keeps each row's offset and converts no cell. Bytes that
// are not the payload grammar are "no index", which only costs the
// delta — the full frame never needs one.
func scanJSONRows(raw []byte) (ix *rowIndex, intID bool) {
	s := jsonScanner{b: raw}
	cols, types, err := s.header()
	if err != nil {
		return nil, false
	}
	ix = &rowIndex{hdr: uint32(s.pos)}
	end, err := s.rows(len(cols), func(start int) { ix.off = append(ix.off, uint32(start)) }, nil)
	if err != nil {
		return nil, false
	}
	ix.n = len(ix.off)
	if ix.n == 0 {
		ix.off = append(ix.off, ix.hdr)
	} else {
		// One past the position a separator after the last row would
		// occupy, so every row ends at off[i+1]-1.
		ix.off = append(ix.off, uint32(end)+1)
	}
	return ix, len(cols) > 0 && (ix.rows() == 0 || types[0] == storage.TInt64)
}

// diff computes the delta from base to next by id: the ids leaving (in
// base order) and the positions of the rows entering (in next order) —
// the same orders the rows-based planner produced, so frames stay
// byte-identical. One merge over the two id-sorted permutations.
func (base *rowIndex) diff(next *rowIndex) (tombstones []int64, entering []uint32) {
	inNext := make([]bool, len(base.ids))
	inBase := make([]bool, len(next.ids))
	for i, j := 0, 0; i < len(base.perm) && j < len(next.perm); {
		bp, np := base.perm[i], next.perm[j]
		switch b, n := base.ids[bp], next.ids[np]; {
		case b < n:
			i++
		case b > n:
			j++
		default:
			inNext[bp], inBase[np] = true, true
			i++
			j++
		}
	}
	for i, id := range base.ids {
		if !inNext[i] {
			tombstones = append(tombstones, id)
		}
	}
	for j := range next.ids {
		if !inBase[j] {
			entering = append(entering, uint32(j))
		}
	}
	return tombstones, entering
}

// subset assembles the payload holding only the given rows of raw (in
// the given order): the schema header, the row section re-opened for the
// new count, and each row's bytes copied verbatim — exactly what Encode
// would produce for those rows. A binary payload is gathered column by
// column: each byte plane, then the BOOL bytes, TEXT lengths and TEXT
// bytes, picked out at the rows' positions.
func (ix *rowIndex) subset(raw []byte, rows []uint32) []byte {
	if ix.cols == nil {
		n := int(ix.hdr) + 2
		for _, r := range rows {
			n += int(ix.off[r+1] - ix.off[r])
		}
		out := append(make([]byte, 0, n), raw[:ix.hdr]...)
		for i, r := range rows {
			if i > 0 {
				out = append(out, ',')
			}
			out = append(out, raw[ix.off[r]:ix.off[r+1]-1]...)
		}
		return append(out, "]}"...)
	}
	// A subset of the rows is never larger than all of them.
	out := append(make([]byte, 0, len(raw)), raw[:ix.hdr]...)
	out = binary.AppendUvarint(out, uint64(len(rows)))
	for _, c := range ix.cols {
		switch c.typ {
		case storage.TInt64, storage.TFloat64:
			for p := range 8 {
				plane := raw[int(c.at)+p*ix.n:]
				for _, r := range rows {
					out = append(out, plane[r])
				}
			}
		case storage.TBool:
			for _, r := range rows {
				out = append(out, raw[int(c.at)+int(r)])
			}
		case storage.TString:
			for _, r := range rows {
				out = append(out, raw[c.lens[r]:c.lens[r+1]]...)
			}
			for _, r := range rows {
				out = append(out, raw[c.strs[r]:c.strs[r+1]]...)
			}
		}
	}
	return out
}
