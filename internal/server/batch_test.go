package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kyrix/internal/wire"
)

// --- frame codec, in isolation ---

func TestBatchV2TruncatedAndCorrupt(t *testing.T) {
	var buf bytes.Buffer
	_ = wire.WriteHeader(&buf, wire.V3, 2)
	_ = wire.WriteFrame(&buf, wire.V3, Frame{Index: 0, Kind: FrameTile, Status: FrameOK, Payload: []byte("0123456789")})
	_ = wire.WriteFrame(&buf, wire.V3, Frame{Index: 1, Kind: FrameDBox, Status: FrameOK, Codec: FrameFlate, Payload: []byte("abcdef")})
	whole := buf.Bytes()

	// Truncating the stream at every possible boundary must yield an
	// error (or a clean EOF strictly before both frames arrived) —
	// never a bogus success.
	for cut := 0; cut < len(whole); cut++ {
		br := bufio.NewReader(bytes.NewReader(whole[:cut]))
		_, n, err := wire.ReadHeader(br)
		if err != nil {
			continue // truncated inside the header: detected
		}
		got := 0
		for got < n {
			if _, err := wire.ReadFrame(br, wire.V3); err != nil {
				break
			}
			got++
		}
		if got >= n {
			t.Fatalf("cut at %d bytes still decoded %d/%d frames", cut, got, n)
		}
	}

	// Corrupt magic.
	bad := append([]byte{}, whole...)
	bad[0] = 'X'
	if _, _, err := wire.ReadHeader(bufio.NewReader(bytes.NewReader(bad))); err == nil {
		t.Fatal("bad magic must fail")
	}
	// Unknown version.
	bad = append([]byte{}, whole...)
	bad[4] = 9
	if _, _, err := wire.ReadHeader(bufio.NewReader(bytes.NewReader(bad))); err == nil {
		t.Fatal("unknown version must fail")
	}
	// Unknown frame kind and status.
	for _, f := range []Frame{
		{Index: 0, Kind: FrameKind(7), Status: FrameOK},
		{Index: 0, Kind: FrameTile, Status: FrameStatus(9)},
	} {
		var fbuf bytes.Buffer
		_ = wire.WriteFrame(&fbuf, wire.V3, f)
		if _, err := wire.ReadFrame(bufio.NewReader(&fbuf), wire.V3); err == nil {
			t.Fatalf("frame %+v must fail to decode", f)
		}
	}
	// A corrupt (absurd) payload length must error out instead of
	// attempting the allocation.
	huge := []byte{0, byte(FrameTile), byte(FrameOK), byte(FrameRaw), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(huge)), wire.V3); err == nil {
		t.Fatal("absurd payload length must fail")
	}
}

// --- the HTTP endpoint ---

// TestBatchEndpoint checks the payload contract of POST /batch: every
// tile frame, in either codec, carries exactly the bytes of the
// single-tile GET, and a bad tile fails alone. Request validation is
// TestBatchV2Validation's.
func TestBatchEndpoint(t *testing.T) {
	_, hs := newPointsServer(t, 2000, 4096, 2048)

	single := func(codec Codec, col, row int) []byte {
		resp, err := http.Get(fmt.Sprintf("%s/tile?canvas=main&layer=0&size=512&col=%d&row=%d&codec=%s", hs.URL, col, row, codec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single tile: %s: %s", resp.Status, body)
		}
		return body
	}

	want := []struct{ col, row int }{{0, 0}, {1, 0}, {2, 1}}
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		req := BatchRequestV2{V: wire.V3, Canvas: "main", Codec: codec}
		for _, w := range want {
			req.Items = append(req.Items, BatchItem{Kind: "tile", Layer: 0, Size: 512, Col: w.col, Row: w.row})
		}
		req.Items = append(req.Items, BatchItem{Kind: "tile", Layer: 0, Size: 512, Col: -1, Row: 0})
		frames := postBatchV3Raw(t, hs.URL, req)

		for i, w := range want {
			f := frames[i]
			if f.Status != FrameOK || f.Kind != FrameTile {
				t.Fatalf("%s tile %d = %+v", codec, i, f)
			}
			payload := inflateFrame(t, f)
			if !bytes.Equal(payload, single(codec, w.col, w.row)) {
				t.Fatalf("%s tile %d payload differs from single GET", codec, i)
			}
			if _, err := Decode(payload, codec); err != nil {
				t.Fatalf("%s tile %d payload undecodable: %v", codec, i, err)
			}
		}
		if bad := frames[3]; bad.Status != FrameBadRequest || len(bad.Payload) == 0 {
			t.Fatalf("%s negative tile = %+v, want per-tile error", codec, bad)
		}
	}
}

func TestBatchV2MixedTileDBox(t *testing.T) {
	srv, hs := newPointsServer(t, 2000, 4096, 2048)

	get := func(path string) []byte {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s: %s", path, resp.Status, data)
		}
		return data
	}

	req := BatchRequestV2{
		V: wire.V3, Canvas: "main", Codec: CodecJSON,
		Items: []BatchItem{
			{Kind: "tile", Layer: 0, Size: 512, Col: 1, Row: 1},
			{Kind: "dbox", Layer: 0, MinX: 100, MinY: 100, MaxX: 900, MaxY: 700},
			{Kind: "tile", Layer: 0, Size: 512, Col: -3, Row: 0},                 // per-frame error
			{Kind: "dbox", Layer: 0, MinX: 500, MinY: 500, MaxX: 100, MaxY: 100}, // invalid box
			{Kind: "tile", Layer: 9, Size: 512, Col: 0, Row: 0},                  // no such layer
			{Kind: "tile", Layer: 0, Size: 512, Col: 2, Row: 0},
		},
	}
	frames := postBatchV3Raw(t, hs.URL, req)

	// Good frames inflate to exactly the bytes the single-request
	// endpoints would have returned — no envelope.
	if frames[0].Status != FrameOK || frames[0].Kind != FrameTile {
		t.Fatalf("frame 0 = %+v", frames[0])
	}
	if want := get("/tile?canvas=main&layer=0&size=512&col=1&row=1"); !bytes.Equal(inflateFrame(t, frames[0]), want) {
		t.Fatal("tile frame payload differs from GET /tile")
	}
	if frames[1].Status != FrameOK || frames[1].Kind != FrameDBox {
		t.Fatalf("frame 1 = %+v", frames[1])
	}
	if want := get("/dbox?canvas=main&layer=0&minx=100&miny=100&maxx=900&maxy=700"); !bytes.Equal(inflateFrame(t, frames[1]), want) {
		t.Fatal("dbox frame payload differs from GET /dbox")
	}
	if frames[5].Status != FrameOK {
		t.Fatalf("frame 5 = %+v", frames[5])
	}

	// Failures are isolated per frame, siblings unaffected.
	for _, idx := range []int{2, 3, 4} {
		if frames[idx].Status != FrameBadRequest {
			t.Fatalf("frame %d status = %d, want bad request", idx, frames[idx].Status)
		}
		if len(frames[idx].Payload) == 0 {
			t.Fatalf("frame %d error payload empty", idx)
		}
	}

	// Stats: one batch, tile/dbox items counted by kind.
	if got := srv.Stats.BatchRequests.Load(); got != 1 {
		t.Fatalf("BatchRequests = %d", got)
	}
	if got := srv.Stats.BoxRequests.Load(); got != 3 { // 2 batch dboxes + 1 GET /dbox
		t.Fatalf("BoxRequests = %d", got)
	}
}

// TestBatchV2Validation covers the request contract: malformed
// requests are rejected whole with 400 before the stream header, while
// a bad item is a per-frame error next to healthy siblings.
func TestBatchV2Validation(t *testing.T) {
	_, hs := newPointsServer(t, 200, 4096, 2048)
	post := func(req BatchRequestV2) int {
		body, _ := json.Marshal(req)
		resp, err := http.Post(hs.URL+"/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	tile := BatchItem{Kind: "tile", Size: 512}
	if code := post(BatchRequestV2{V: wire.V3, Canvas: "main"}); code != http.StatusBadRequest {
		t.Fatalf("empty items = %d", code)
	}
	big := BatchRequestV2{V: wire.V3, Canvas: "main"}
	for i := 0; i <= MaxBatchItems; i++ {
		big.Items = append(big.Items, BatchItem{Kind: "tile", Size: 512, Col: i})
	}
	if code := post(big); code != http.StatusBadRequest {
		t.Fatalf("oversize batch = %d", code)
	}
	if code := post(BatchRequestV2{V: wire.V3, Canvas: "main", Codec: "xml", Items: []BatchItem{tile}}); code != http.StatusBadRequest {
		t.Fatalf("unknown codec = %d", code)
	}
	if code := post(BatchRequestV2{V: 4, Canvas: "main", Items: []BatchItem{tile}}); code != http.StatusBadRequest {
		t.Fatalf("v4 request = %d", code)
	}
	resp, err := http.Get(hs.URL + "/batch")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /batch status = %d", resp.StatusCode)
	}

	// Item-level mistakes — an unknown kind, a non-positive tile size,
	// an unknown design, a layer the canvas does not have — are
	// per-frame bad requests, and a good sibling still lands.
	frames := postBatchV3Raw(t, hs.URL, BatchRequestV2{
		V: wire.V3, Canvas: "main",
		Items: []BatchItem{
			{Kind: "polygon", Layer: 0},
			{Kind: "tile", Layer: 0, Size: 0},
			{Kind: "tile", Layer: 0, Size: 512, Design: "quantum"},
			{Kind: "tile", Layer: 7, Size: 512},
			tile,
		},
	})
	for i, f := range frames[:4] {
		if f.Status != FrameBadRequest {
			t.Fatalf("item %d frame = %+v, want bad request", i, f)
		}
	}
	if frames[4].Status != FrameOK {
		t.Fatalf("good sibling frame = %+v", frames[4])
	}
	// So is an unknown canvas: every item names a layer it lacks.
	frames = postBatchV3Raw(t, hs.URL, BatchRequestV2{V: wire.V3, Canvas: "nope", Items: []BatchItem{tile}})
	if frames[0].Status != FrameBadRequest {
		t.Fatalf("unknown canvas frame = %+v", frames[0])
	}
}

// TestBatchRejectsRetiredProtocols: the v1 envelope body (no "v") and
// explicit v1/v2 bodies are answered 400 "unsupported batch protocol"
// without a stream header and without being counted as served work.
func TestBatchRejectsRetiredProtocols(t *testing.T) {
	srv, hs := newPointsServer(t, 200, 4096, 2048)
	for _, body := range []string{
		`{"canvas":"main","layer":0,"size":512,"tiles":[{"col":0,"row":0}]}`,
		`{"v":1,"canvas":"main","layer":0,"size":512,"tiles":[{"col":0,"row":0}]}`,
		`{"v":2,"canvas":"main","items":[{"kind":"tile","layer":0,"size":512}]}`,
	} {
		resp, err := http.Post(hs.URL+"/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "unsupported batch protocol") {
			t.Fatalf("%s: %s %q, want 400 unsupported batch protocol", body, resp.Status, msg)
		}
		if ct := resp.Header.Get("Content-Type"); ct == BatchV3ContentType || bytes.HasPrefix(msg, []byte(wire.Magic)) {
			t.Fatalf("%s: rejected body still opened a stream (%s)", body, ct)
		}
	}
	if b, tr := srv.Stats.BatchRequests.Load(), srv.Stats.TileRequests.Load(); b != 0 || tr != 0 {
		t.Fatalf("retired bodies counted: BatchRequests=%d TileRequests=%d", b, tr)
	}
}

// TestBatchV2CoalescesWithSingles verifies batch items ride the same
// cache as single requests: a tile served via GET /tile is a backend
// cache hit when re-requested inside a batch.
func TestBatchV2CoalescesWithSingles(t *testing.T) {
	srv, hs := newPointsServer(t, 1000, 4096, 2048)
	resp, err := http.Get(hs.URL + "/tile?canvas=main&layer=0&size=512&col=1&row=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	dbqBefore := srv.Stats.DBQueries.Load()
	frames := postBatchV3Raw(t, hs.URL, BatchRequestV2{
		V: wire.V3, Canvas: "main",
		Items: []BatchItem{{Kind: "tile", Layer: 0, Size: 512, Col: 1, Row: 1}},
	})
	if frames[0].Status != FrameOK {
		t.Fatalf("frame = %+v", frames[0])
	}
	if got := srv.Stats.DBQueries.Load() - dbqBefore; got != 0 {
		t.Fatalf("batched re-request ran %d queries, want cache hit", got)
	}
}

// flushCounter is a ResponseWriter that counts flushes.
type flushCounter struct {
	bytes.Buffer
	header  http.Header
	status  int
	flushes int
}

func (fc *flushCounter) Header() http.Header {
	if fc.header == nil {
		fc.header = http.Header{}
	}
	return fc.header
}

func (fc *flushCounter) WriteHeader(code int) { fc.status = code }
func (fc *flushCounter) Flush()               { fc.flushes++ }

// TestBatchSkipsFinalFlush: every frame but the last is flushed as it is
// written, so earlier frames still stream; the last one goes out with
// the end of the body, which net/http writes when the handler returns.
func TestBatchSkipsFinalFlush(t *testing.T) {
	srv, _ := newPointsServer(t, 500, 4096, 2048)
	for _, n := range []int{1, 2, 5} {
		req := BatchRequestV2{V: wire.V3, Canvas: "main", Codec: CodecJSON}
		for i := range n {
			req.Items = append(req.Items, BatchItem{Kind: "tile", Layer: 0, Size: 512, Col: i, Row: 0})
		}
		body, _ := json.Marshal(req)
		fc := &flushCounter{}
		srv.handleBatch(fc, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
		frames := postedFrames(t, fc.Bytes())
		if len(frames) != n {
			t.Fatalf("%d-item batch wrote %d frames", n, len(frames))
		}
		if fc.flushes != n-1 {
			t.Errorf("%d-item batch flushed %d times, want %d", n, fc.flushes, n-1)
		}
	}
}

// postedFrames reads every frame of a v3 stream.
func postedFrames(t *testing.T, stream []byte) []Frame {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(stream))
	_, n, err := wire.ReadHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]Frame, n)
	for i := range frames {
		if frames[i], err = wire.ReadFrame(br, wire.V3); err != nil {
			t.Fatal(err)
		}
	}
	return frames
}
