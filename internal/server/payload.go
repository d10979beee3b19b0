package server

import (
	"cmp"
	"context"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"kyrix/internal/storage"
	"kyrix/internal/wire"
)

// A cached payload exists in one form — raw + id: the binary payload's
// bytes (column-major, byte planes ordered by class, wire.go) and their
// content hash (wire.PayloadID).
// It is built in the fill flight — database query, L2 promote or peer
// fill — and stored in L1 as one immutable *payload, so a box costs one
// query and one L1 entry whichever codecs its clients speak. Everything
// else is derived from it, once, on first need:
//
//   - the JSON form: the document a JSON client receives, written from
//     the byte planes, with its own id — the id a JSON client declares
//     as its delta base. Kept for GET /tile and /dbox responses.
//   - per codec, the full frame a /batch response ships: the DEFLATE
//     body (wire.Compress) or, when that is not smaller, the payload
//     itself. A JSON frame deflates a document written for it alone, so
//     a sweep of misses holds one memo entry per payload.
//   - the row index: each row's id and its position in every column.
//
// A pair of payloads — a client's declared delta base and the payload
// it pans to — has one more per codec: the delta frame that ships
// between them (frames.go), or the verdict that no delta pays.
//
// The derived forms live in the content-addressed wire memo
// (Server.wireMemo), keyed by id — by both ids for a pair — and charged
// against its budget. Content addressing makes them immutable too: an
// /update produces new bytes under a new id, so the memo needs no
// invalidation, only its LRU bound.

// payload is the L1 value: one tile's or box's encoded rows plus the
// identity of those exact bytes, never changed. json, noted when the
// JSON form is first written, is what the delta planner checks a JSON
// base against and names in a JSON delta, kept as long as the entry.
type payload struct {
	raw  []byte
	id   uint64
	json atomic.Pointer[formSum]
}

// formSum is the id and length of a payload in a response codec.
type formSum struct {
	id   uint64
	size int
}

func newPayload(raw []byte) *payload {
	return &payload{raw: raw, id: wire.PayloadID(raw)}
}

// memoEntryOverhead is charged per memo entry on top of its slices, so
// "not worth compressing" verdicts and empty indexes are not free.
const memoEntryOverhead = 64

// Memo key kinds: one derived form per (kind, payload id). A delta
// frame is keyed by (kind, base id, new id) of the binary payloads; its
// bytes depend on the response codec.
const (
	memoFlate     = 'z'
	memoJSONFrame = 'Z'
	memoIndex     = 'b'
	memoJSON      = 'j'

	memoDeltaJSONFlate   = 'D'
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

// memo returns the derived form under k (cached: found in the wire
// memo), or builds it and stores it charged at size — at most once per
// residency: concurrent first requests share one build.
func (s *Server) memo(k memoKey, build func() (v any, size int64)) (v any, cached bool) {
	key := string(k[:])
	if v, ok := s.wireMemo.Get(key); ok {
		return v, true
	}
	v, _, _ = s.memoFlight.Do(key, func() (any, error) {
		// A flight that finished while this caller queued has already
		// stored the form.
		if v, ok := s.wireMemo.Peek(key); ok {
			return v, nil
		}
		v, size := build()
		s.wireMemo.Put(key, v, memoEntryOverhead+size)
		return v, nil
	})
	return v, false
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

// frameOf returns p's full frame for a client of codec, DEFLATE-
// compressed when that is smaller, built on the first request only. For
// a payload JSON cannot carry (NaN, ±Inf) the error is memoized instead;
// binary requests still ship p.
func (s *Server) frameOf(ctx context.Context, p *payload, codec Codec) (f *frame, cached bool, err error) {
	kind := byte(memoJSONFrame)
	if codec == CodecBinary {
		kind = memoFlate
	}
	v, cached := s.memo(newMemoKey(kind, p.id), func() (any, int64) {
		raw := p.raw
		if codec != CodecBinary {
			var err error
			if raw, err = s.writeJSON(ctx, p); err != nil {
				return err, 0
			}
		}
		f := &frame{body: raw, codec: FrameRaw, size: len(raw)}
		if cb := s.deflate(raw); cb != nil {
			f.body, f.codec = cb, FrameFlate
		} else if codec == CodecBinary {
			f.body = nil
		}
		return f, int64(len(f.body))
	})
	if err, failed := v.(error); failed {
		return nil, false, err
	}
	return v.(*frame), cached, nil
}

// document returns p as a GET response body in codec: the binary payload
// itself, or its JSON document, written on the first request only (or
// the error that JSON cannot carry p, memoized the same way).
func (s *Server) document(ctx context.Context, p *payload, codec Codec) ([]byte, error) {
	if codec == CodecBinary {
		return p.raw, nil
	}
	v, _ := s.memo(newMemoKey(memoJSON, p.id), func() (any, int64) {
		raw, err := s.writeJSON(ctx, p)
		if err != nil {
			return err, 0
		}
		return raw, int64(len(raw))
	})
	if err, failed := v.(error); failed {
		return nil, err
	}
	return v.([]byte), nil
}

// writeJSON writes p's JSON document under a json.write span and notes
// its id and length on p.
func (s *Server) writeJSON(ctx context.Context, p *payload) ([]byte, error) {
	_, sp := s.tracer().Start(ctx, "json.write")
	defer sp.End()
	raw, err := jsonPayload(p.raw)
	if err != nil {
		sp.Attr("err", err.Error())
		return nil, err
	}
	sp.Attr("bytes", len(raw))
	p.json.Store(&formSum{id: wire.PayloadID(raw), size: len(raw)})
	return raw, nil
}

// shipped returns the id and length of p as a client of codec receives
// it, writing the JSON form (without keeping it) only if none has been.
func (s *Server) shipped(ctx context.Context, p *payload, codec Codec) (formSum, error) {
	if codec == CodecBinary {
		return formSum{id: p.id, size: len(p.raw)}, nil
	}
	if p.json.Load() == nil {
		if _, err := s.writeJSON(ctx, p); err != nil {
			return formSum{}, err
		}
	}
	return *p.json.Load(), nil
}

// rowIndex locates every row of a payload inside its raw bytes, so the
// delta planner can diff two payloads by id and gather the entering
// rows by copying bytes — no row is ever decoded or re-encoded. A row is
// one position in every column.
type rowIndex struct {
	n int
	// cols is every column's section, in schema order.
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
	section
	// lens and strs (TEXT only) bound row i's length varint at
	// raw[lens[i]:lens[i+1]] and its bytes at raw[strs[i]:strs[i+1]].
	lens, strs []uint32
}

// pinned is the bytes the index's slices hold, which is what the wire
// memo charges for it.
func (ix *rowIndex) pinned() int64 {
	n := 8*cap(ix.ids) + 4*cap(ix.perm)
	for _, c := range ix.cols {
		n += 4*cap(c.lens) + 4*cap(c.strs)
	}
	return int64(n)
}

// rowIndexOf returns p's row index (nil: the bytes do not parse as a
// payload), scanning on the first request only.
func (s *Server) rowIndexOf(p *payload) *rowIndex {
	v, _ := s.memo(newMemoKey(memoIndex, p.id), func() (any, int64) {
		ix := buildRowIndex(p.raw)
		if ix == nil {
			return ix, 0
		}
		return ix, ix.pinned()
	})
	return v.(*rowIndex)
}

// buildRowIndex scans raw once. The bytes may come from the L2 store or
// a peer, so every count and length is checked against what remains.
// The rows can carry an integer identity when the schema is not empty
// and its first column is an integer — or, with no rows to say
// otherwise, any non-empty schema (an empty result carries fallback
// column types).
func buildRowIndex(raw []byte) *rowIndex {
	if len(raw) > int(^uint32(0)>>1) {
		return nil
	}
	l, err := parseBinary(raw)
	if err != nil {
		return nil
	}
	n := l.nrows
	ix := &rowIndex{n: n, cols: make([]indexColumn, len(l.types))}
	for c, t := range l.types {
		col := &ix.cols[c]
		col.typ, col.section = t, l.secs[c]
		if t != storage.TString {
			continue
		}
		col.lens, col.strs = make([]uint32, n+1), make([]uint32, n+1)
		lens := col.at
		for i := range n {
			col.lens[i] = uint32(lens)
			_, sz := binary.Uvarint(raw[lens:])
			lens += sz
		}
		col.lens[n] = uint32(lens)
		str := col.str
		for i := range n {
			col.strs[i] = uint32(str)
			ln, _ := binary.Uvarint(raw[col.lens[i]:])
			str += int(ln)
		}
		col.strs[n] = uint32(str)
	}
	if len(l.types) == 0 || (n > 0 && l.types[0] != storage.TInt64) {
		return ix
	}
	if n == 0 {
		ix.diffable = true
		return ix
	}
	ix.ids = make([]int64, n)
	id := planesOf(raw, &ix.cols[0].section, n)
	for i := range ix.ids {
		ix.ids[i] = int64(id.value(i))
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
// the given order) — exactly what Encode would produce for those rows:
// the schema header with each INT or DOUBLE column's planes classified
// afresh over the rows kept, the new row count, then each column
// gathered at the rows' positions: the leading planes, BOOL bytes and
// TEXT lengths and bytes column by column, then the trailing planes.
func (ix *rowIndex) subset(raw []byte, rows []uint32) []byte {
	n := len(rows)
	ps := make([]planes, len(ix.cols))
	lead := make([]uint8, len(ix.cols))
	var at [planeSample]int
	var sample [planeSample]uint64
	m := sampleRows(at[:], n)
	for c, col := range ix.cols {
		if col.typ == storage.TInt64 || col.typ == storage.TFloat64 {
			ps[c] = planesOf(raw, &col.section, ix.n)
			for j, r := range at[:m] {
				sample[j] = ps[c].value(int(rows[r]))
			}
			lead[c] = leadMask(sample[:m])
		}
	}
	// The output's exact size: the header with each column's entry and
	// plane order, then per row eight bytes of an INT or DOUBLE column,
	// one of a BOOL, and a TEXT column's kept length varint and bytes.
	size := uvarintLen(uint64(len(ix.cols))) + uvarintLen(uint64(n))
	for c, col := range ix.cols {
		size += col.name[1] - col.name[0] + 1 + bits.OnesCount8(lead[c])
		switch col.typ {
		case storage.TInt64, storage.TFloat64:
			size += 8 * n
		case storage.TBool:
			size += n
		case storage.TString:
			for _, r := range rows {
				size += int(col.lens[r+1]-col.lens[r]) + int(col.strs[r+1]-col.strs[r])
			}
		}
	}
	out := make([]byte, 0, size)
	out = binary.AppendUvarint(out, uint64(len(ix.cols)))
	for c, col := range ix.cols {
		out = append(out, raw[col.name[0]:col.name[1]]...)
		out = appendLead(out, lead[c])
	}
	out = binary.AppendUvarint(out, uint64(n))
	gather := func(plane []byte) {
		for _, r := range rows {
			out = append(out, plane[r])
		}
	}
	for c, col := range ix.cols {
		switch col.typ {
		case storage.TInt64, storage.TFloat64:
			for k, plane := range ps[c] {
				if lead[c]>>k&1 == 1 {
					gather(plane)
				}
			}
		case storage.TBool:
			gather(raw[col.at:])
		case storage.TString:
			for _, r := range rows {
				out = append(out, raw[col.lens[r]:col.lens[r+1]]...)
			}
			for _, r := range rows {
				out = append(out, raw[col.strs[r]:col.strs[r+1]]...)
			}
		}
	}
	for c, col := range ix.cols {
		if col.typ != storage.TInt64 && col.typ != storage.TFloat64 {
			continue
		}
		for k, plane := range ps[c] {
			if lead[c]>>k&1 == 0 {
				gather(plane)
			}
		}
	}
	return out
}

// uvarintLen is the length of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
