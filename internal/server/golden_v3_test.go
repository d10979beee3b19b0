package server

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"kyrix/internal/wire"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/v3_stream.golden from this build's responses")

// goldenV3Sequence replays one fixed pan session — full fetch, two
// overlapping pans declaring the previous box as base, a repeat, a far
// jump, a tile, and the compression-off forms — as single-item v3
// batches (one frame per stream, so completion order cannot reorder
// bytes) and returns one line per response: codec, frame codec, body
// length and the SHA-256 of the whole response body.
func goldenV3Sequence(t *testing.T, url string, codec Codec) []string {
	t.Helper()
	box := func(minx, maxx float64) BatchItem {
		return BatchItem{Kind: "dbox", Layer: 0, MinX: minx, MinY: 100, MaxX: maxx, MaxY: 900}
	}
	withBase := func(it, base BatchItem, id uint64) BatchItem {
		it.Base = &BaseRef{MinX: base.MinX, MinY: base.MinY, MaxX: base.MaxX, MaxY: base.MaxY,
			ID: strconv.FormatUint(id, 16)}
		return it
	}
	a, b, c, far := box(0, 1000), box(200, 1200), box(350, 1350), box(3000, 4000)

	var lines []string
	// post returns the PayloadID of the full payload the frame stands
	// for — what a client would declare as its next base.
	post := func(name string, it BatchItem, comp string) uint64 {
		t.Helper()
		stream, frames, err := postV3Stream(url, BatchRequestV2{
			V: wire.V3, Canvas: "main", Codec: codec, Comp: comp, Items: []BatchItem{it},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f := frames[0]
		if f.Status != FrameOK {
			t.Fatalf("%s: error frame: %s", name, f.Payload)
		}
		sum := sha256.Sum256(stream)
		lines = append(lines, fmt.Sprintf("%s %s fc=%d len=%d sha256=%s",
			codec, name, f.Codec, len(stream), hex.EncodeToString(sum[:])))
		payload := inflateFrame(t, f)
		if f.Codec.IsDelta() {
			d, err := wire.DecodeDelta(payload)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return d.NewID
		}
		return wire.PayloadID(payload)
	}

	idA := post("full-a", a, "")
	idB := post("delta-b/a", withBase(b, a, idA), "")
	idC := post("delta-c/b", withBase(c, b, idB), "")
	post("delta-b/a-again", withBase(b, a, idA), "")
	post("delta-b/c", withBase(b, c, idC), "")
	post("full-far/c", withBase(far, c, idC), "")
	post("stale-base", withBase(b, a, idA^1), "")
	post("tile", BatchItem{Kind: "tile", Layer: 0, Size: 512, Col: 2, Row: 1}, "")
	post("raw-full-a", a, CompOff)
	post("raw-delta-c/b", withBase(c, b, idB), CompOff)
	return lines
}

// TestV3StreamGolden pins the v3 wire bytes: the stream for a fixed
// request sequence must equal testdata/v3_stream.golden byte for byte,
// for both codecs — and replaying the sequence against the now-warm
// derived-form memo must reproduce the cold bytes exactly. The JSON
// lines date from before wire-ready payloads; the binary lines were
// rewritten once, for the columnar layout and its entropy-segmented
// DEFLATE streams.
func TestV3StreamGolden(t *testing.T) {
	var cold []string
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		_, hs := newPointsServer(t, 6000, 4096, 2048)
		first := goldenV3Sequence(t, hs.URL, codec)
		warm := goldenV3Sequence(t, hs.URL, codec)
		for i := range first {
			if first[i] != warm[i] {
				t.Errorf("cold vs warm memo differ:\n cold %s\n warm %s", first[i], warm[i])
			}
		}
		cold = append(cold, first...)
	}
	got := strings.Join(cold, "\n") + "\n"
	path := filepath.Join("testdata", "v3_stream.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("v3 stream bytes drifted from the golden frames (a compress/flate change in the Go toolchain also lands here; regenerate with -update-golden only after ruling out a server change)\n got:\n%s\nwant:\n%s", got, want)
	}
}
