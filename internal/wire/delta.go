package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Delta is the v3 dynamic-box delta frame: successive viewports of a
// pan session overlap heavily, so instead of re-shipping the whole new
// box the server sends only the rows entering it plus a tombstone list
// for the rows leaving, relative to a base box the client declared it
// already holds.
//
// Rows are identified by their first column (an integer id — the same
// identity the frontend already uses to deduplicate objects across
// tiles). The base is identified by PayloadID of the exact payload
// bytes the client holds; the server only delta-encodes when its cached
// copy of the base hashes identically, so a stale client base (e.g.
// across an /update) degrades to a full frame, never to wrong rows.
//
// Decompressed delta layout:
//
//	full length  (uvarint)  — byte size of the full payload replaced
//	new box id   (8 bytes BE) — PayloadID of that full payload; the
//	             client stores it as its next base id without ever
//	             materializing the full payload
//	tombstones   (uvarint count, then count signed varint row ids)
//	entering     (remaining bytes: a payload in the request codec
//	             holding only the entering rows)
type Delta struct {
	FullLen    int
	NewID      uint64
	Tombstones []int64
	Entering   []byte
}

// PayloadID is the identity of a payload's exact bytes, used to match a
// client-declared delta base against the server's cached copy. It is
// XXH64 with seed 0: four 64-bit lanes over each 32-byte stripe, then
// the tail word by word, so a box hashes at memory speed rather than a
// byte at a time. Ids live only in memory (memo keys, held-box ids), so
// the function may change between builds without moving a stored key.
func PayloadID(payload []byte) uint64 {
	b, n := payload, uint64(len(payload))
	var h uint64
	if len(b) >= 32 {
		v1, v2, v3, v4 := xxLane1, xxPrime2, uint64(0), xxLane4
		for ; len(b) >= 32; b = b[32:] {
			v1 = xxRound(v1, binary.LittleEndian.Uint64(b[0:8]))
			v2 = xxRound(v2, binary.LittleEndian.Uint64(b[8:16]))
			v3 = xxRound(v3, binary.LittleEndian.Uint64(b[16:24]))
			v4 = xxRound(v4, binary.LittleEndian.Uint64(b[24:32]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = xxMerge(h, v1)
		h = xxMerge(h, v2)
		h = xxMerge(h, v3)
		h = xxMerge(h, v4)
	} else {
		h = xxPrime5
	}
	h += n
	for ; len(b) >= 8; b = b[8:] {
		h ^= xxRound(0, binary.LittleEndian.Uint64(b[:8]))
		h = bits.RotateLeft64(h, 27)*xxPrime1 + xxPrime4
	}
	if len(b) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(b[:4])) * xxPrime1
		h = bits.RotateLeft64(h, 23)*xxPrime2 + xxPrime3
		b = b[4:]
	}
	for _, c := range b {
		h ^= uint64(c) * xxPrime5
		h = bits.RotateLeft64(h, 11) * xxPrime1
	}
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

const (
	xxPrime1 uint64 = 0x9E3779B185EBCA87
	xxPrime2 uint64 = 0xC2B2AE3D27D4EB4F
	xxPrime3 uint64 = 0x165667B19E3779F9
	xxPrime4 uint64 = 0x85EBCA77C2B2AE63
	xxPrime5 uint64 = 0x27D4EB2F165667C5
	// The first and last lanes start at xxPrime1+xxPrime2 and
	// -xxPrime1, wrapped to 64 bits.
	xxLane1 uint64 = 0x60EA27EEADC0B5D6
	xxLane4 uint64 = 0x61C8864E7A143579
)

func xxRound(acc, lane uint64) uint64 {
	return bits.RotateLeft64(acc+lane*xxPrime2, 31) * xxPrime1
}

func xxMerge(h, v uint64) uint64 {
	return (h^xxRound(0, v))*xxPrime1 + xxPrime4
}

// EncodeDelta serializes d into a slice sized exactly: cap == len, so a
// caller that retains it (the server memoizes shipped delta frames)
// pins only the bytes it ships.
func EncodeDelta(d Delta) []byte {
	n := uvarintLen(uint64(d.FullLen)) + 8 + uvarintLen(uint64(len(d.Tombstones))) + len(d.Entering)
	for _, t := range d.Tombstones {
		n += varintLen(t)
	}
	buf := make([]byte, 0, n)
	buf = binary.AppendUvarint(buf, uint64(d.FullLen))
	buf = binary.BigEndian.AppendUint64(buf, d.NewID)
	buf = binary.AppendUvarint(buf, uint64(len(d.Tombstones)))
	for _, t := range d.Tombstones {
		buf = binary.AppendVarint(buf, t)
	}
	return append(buf, d.Entering...)
}

// uvarintLen is the byte length of binary.AppendUvarint(nil, x).
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the byte length of binary.AppendVarint(nil, x): the
// zig-zag form's uvarint length.
func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// DecodeDelta parses a delta payload. Counts and lengths are bounded
// by the input size, so a corrupt prefix errors out instead of
// allocating.
func DecodeDelta(b []byte) (Delta, error) {
	var d Delta
	fullLen, n := binary.Uvarint(b)
	if n <= 0 || fullLen > MaxFramePayload {
		return d, fmt.Errorf("wire: delta full length corrupt")
	}
	d.FullLen = int(fullLen)
	b = b[n:]
	if len(b) < 8 {
		return d, fmt.Errorf("wire: delta truncated before box id")
	}
	d.NewID = binary.BigEndian.Uint64(b[:8])
	b = b[8:]
	ntomb, n := binary.Uvarint(b)
	if n <= 0 {
		return d, fmt.Errorf("wire: delta tombstone count corrupt")
	}
	b = b[n:]
	// Each tombstone costs at least one byte; a count beyond the
	// remaining bytes is corruption, caught before the allocation.
	if ntomb > uint64(len(b)) {
		return d, fmt.Errorf("wire: delta claims %d tombstones in %d bytes", ntomb, len(b))
	}
	d.Tombstones = make([]int64, ntomb)
	for i := range d.Tombstones {
		v, n := binary.Varint(b)
		if n <= 0 {
			return d, fmt.Errorf("wire: delta tombstone %d corrupt", i)
		}
		d.Tombstones[i] = v
		b = b[n:]
	}
	d.Entering = b
	return d, nil
}
