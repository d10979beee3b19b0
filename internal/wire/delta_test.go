package wire

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// TestEncodeDeltaExactSize: the encoded delta has no spare capacity
// whatever the tombstone magnitudes, so a retained frame pins exactly
// the bytes it ships.
func TestEncodeDeltaExactSize(t *testing.T) {
	for _, tombs := range [][]int64{
		nil,
		{0},
		{1},
		{1 << 20},
		{-1 << 40},
		{math.MaxInt64},
		{math.MinInt64},
		{0, 1, -1, 63, -64, 64, 1 << 20, -1 << 40, math.MaxInt64, math.MinInt64},
	} {
		for _, fullLen := range []int{0, 127, 128, MaxFramePayload} {
			d := Delta{FullLen: fullLen, NewID: math.MaxUint64, Tombstones: tombs, Entering: []byte("rows")}
			b := EncodeDelta(d)
			if cap(b) != len(b) {
				t.Errorf("tombstones %v, full length %d: cap %d != len %d", tombs, fullLen, cap(b), len(b))
			}
			got, err := DecodeDelta(b)
			if err != nil || got.FullLen != fullLen || !slices.Equal(got.Tombstones, tombs) || !bytes.Equal(got.Entering, d.Entering) {
				t.Errorf("tombstones %v, full length %d: round trip %+v, %v", tombs, fullLen, got, err)
			}
		}
	}
}

// FuzzDeltaRoundTrip feeds arbitrary bytes to the client's delta
// decoder: it never panics, never allocates past what the input can
// hold, and whatever it accepts re-encodes, exactly sized, to a payload
// that decodes to the same delta.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add(EncodeDelta(Delta{FullLen: 123456, NewID: 0xDEADBEEFCAFEF00D, Tombstones: []int64{0, 1, -7, 1 << 40}, Entering: []byte(`{"rows":[]}`)}))
	f.Add(EncodeDelta(Delta{FullLen: 10, NewID: 1}))
	f.Add([]byte{10, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{0x80, 0x00, 1, 2, 3, 4, 5, 6, 7, 8, 0x81, 0x00, 0x80, 0x80, 0x00})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := DecodeDelta(b)
		if err != nil {
			return
		}
		// Each tombstone is at least one input byte.
		if len(d.Tombstones) > len(b) {
			t.Fatalf("%d tombstones decoded from %d bytes", len(d.Tombstones), len(b))
		}
		enc := EncodeDelta(d)
		if cap(enc) != len(enc) {
			t.Fatalf("re-encoded delta: cap %d != len %d", cap(enc), len(enc))
		}
		got, err := DecodeDelta(enc)
		if err != nil {
			t.Fatalf("re-encoded delta rejected: %v", err)
		}
		if got.FullLen != d.FullLen || got.NewID != d.NewID ||
			!slices.Equal(got.Tombstones, d.Tombstones) || !bytes.Equal(got.Entering, d.Entering) {
			t.Fatalf("round trip changed the delta: %+v -> %+v", d, got)
		}
	})
}
