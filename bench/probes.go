package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"kyrix/internal/cache"
	"kyrix/internal/cluster"
	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/replog"
	"kyrix/internal/rtree"
	"kyrix/internal/server"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
	"kyrix/internal/store"
	"kyrix/internal/wal"
	"kyrix/internal/wire"
)

// Layer probes: each times calls into one layer's public functions, from
// outside, on the inputs recorded from the workload's verify pass — the
// same windows, payloads and key/size stream for every probe, so rows
// are comparable across layers and across commits.

// Probe measures one layer.
type Probe interface {
	ID() string
	Run(in *probeInputs, m metrics) error
}

// probeSample bounds how many distinct windows the per-call probes
// replay; the cache replay uses the whole stream.
const probeSample = 128

// window is one requested rectangle: a dynamic box or a tile's extent.
type window struct {
	Key  string
	Rect geom.Rect
}

// probeInputs is what the verify pass recorded, materialized once.
type probeInputs struct {
	sp  wlSpec
	db  *sqldb.DB
	pl  *fetch.PhysicalLayer
	d   *inputs
	dir string
	// stream is every window requested, in a deterministic order: the
	// clients' own request orders interleaved round-robin (their real
	// interleaving depends on scheduling; this one repeats exactly).
	stream []window
	// sizes maps a window key to its encoded payload size.
	sizes map[string]int64
	// sample holds the first probeSample distinct windows with their
	// query, decoded result and payload in the workload's codec.
	sample []sampled
}

type sampled struct {
	window
	SQL     string
	Args    []storage.Value
	Result  *server.DataResponse
	Payload []byte
}

// windowSQL is the query the server generates for a window: the
// pyramid level matching its zoom on an auto-LOD layer, raw rows
// otherwise.
func windowSQL(pl *fetch.PhysicalLayer, r geom.Rect) (string, []storage.Value) {
	if lvl := pl.LODLevelFor(r); lvl >= 0 {
		return pl.LODWindowSQL(lvl, r)
	}
	return pl.WindowSQL(r)
}

func toResponse(res *sqldb.Result) *server.DataResponse {
	dr := &server.DataResponse{Cols: res.Cols, Types: make(server.ColTypes, len(res.Cols)), Rows: res.Rows}
	for i := range dr.Types {
		dr.Types[i] = storage.TFloat64
	}
	if len(res.Rows) > 0 {
		for i, v := range res.Rows[0] {
			dr.Types[i] = v.Kind
		}
	}
	return dr
}

func newProbeInputs(sp wlSpec, e *env, d *inputs, recorded [][][]byte, dir string) (*probeInputs, error) {
	pl, ok := e.Srv.Layer("main", 0)
	if !ok {
		return nil, fmt.Errorf("no physical layer main/0")
	}
	in := &probeInputs{sp: sp, db: e.DB, pl: pl, d: d, dir: dir, sizes: map[string]int64{}}
	perClient := make([][]window, len(recorded))
	for i, bodies := range recorded {
		for _, body := range bodies {
			var req server.BatchRequestV2
			if json.Unmarshal(body, &req) != nil {
				continue // not a framed batch (the update workload's POSTs)
			}
			for _, it := range req.Items {
				r := it.Box()
				if it.Kind == "tile" {
					r = geom.TileID{Col: it.Col, Row: it.Row}.TileRect(it.Size)
				}
				perClient[i] = append(perClient[i], window{Key: fmt.Sprintf("%s/%v", it.Kind, r), Rect: r})
			}
		}
	}
	for k := 0; ; k++ {
		more := false
		for _, ws := range perClient {
			if k < len(ws) {
				in.stream = append(in.stream, ws[k])
				more = true
			}
		}
		if !more {
			break
		}
	}
	if len(in.stream) == 0 {
		return nil, fmt.Errorf("the verify pass recorded no requests")
	}
	for _, w := range in.stream {
		if _, seen := in.sizes[w.Key]; seen {
			continue
		}
		sql, args := windowSQL(pl, w.Rect)
		res, err := e.DB.Query(sql, args...)
		if err != nil {
			return nil, err
		}
		dr := toResponse(res)
		payload, err := server.Encode(dr, sp.Codec)
		if err != nil {
			return nil, err
		}
		in.sizes[w.Key] = int64(len(payload))
		if len(in.sample) < probeSample {
			in.sample = append(in.sample, sampled{window: w, SQL: sql, Args: args, Result: dr, Payload: payload})
		}
	}
	return in, nil
}

func (in *probeInputs) sampleRows() (rows int) {
	for _, s := range in.sample {
		rows += len(s.Result.Rows)
	}
	return rows
}

func (in *probeInputs) sampleKB() (kb float64) {
	for _, s := range in.sample {
		kb += float64(len(s.Payload)) / 1024
	}
	return kb
}

// nsPer times fn once and divides by units of work.
func nsPer(units float64, fn func()) float64 {
	start := time.Now()
	fn()
	return ratio(float64(time.Since(start).Nanoseconds()), units)
}

var probes = []Probe{
	sqldbProbe{}, rtreeProbe{}, heapProbe{}, codecProbe{}, cacheProbe{},
	storeProbe{}, walProbe{}, replogProbe{}, wireProbe{}, clusterProbe{},
	// Last: it rewrites rows of the live table.
	updateProbe{},
}

type sqldbProbe struct{}

func (sqldbProbe) ID() string { return "sqldb" }
func (sqldbProbe) Run(in *probeInputs, m metrics) (err error) {
	const reps = 20
	m.set("fetch.sqlgen_ns", "ns", nsPer(float64(reps*len(in.sample)), func() {
		for r := 0; r < reps; r++ {
			for _, s := range in.sample {
				windowSQL(in.pl, s.Rect)
			}
		}
	}))
	m.set("sqldb.parse_ns", "ns", nsPer(float64(reps*len(in.sample)), func() {
		for r := 0; r < reps && err == nil; r++ {
			for _, s := range in.sample {
				if _, err = sqldb.Parse(s.SQL); err != nil {
					return
				}
			}
		}
	}))
	rows := 0
	ns := nsPer(1, func() {
		for _, s := range in.sample {
			var res *sqldb.Result
			if res, err = in.db.Query(s.SQL, s.Args...); err != nil {
				return
			}
			rows += len(res.Rows)
		}
	})
	m.set("sqldb.window_query_ns_per_row", "ns/row", ratio(ns, float64(rows)))
	return err
}

type updateProbe struct{}

func (updateProbe) ID() string { return "sqldb.update" }
func (updateProbe) Run(in *probeInputs, m metrics) (err error) {
	const n = 20 // each is a scan of the whole table: there is no index on id
	rng := rand.New(rand.NewSource(1))
	m.set("sqldb.update_ns", "ns", nsPer(n, func() {
		for i := 0; i < n && err == nil; i++ {
			id := in.d.Dataset.Points[rng.Intn(len(in.d.Dataset.Points))].ID
			_, err = in.db.Exec("UPDATE points SET val = ? WHERE id = ?", storage.F64(float64(i)), storage.I64(id))
		}
	}))
	return err
}

type rtreeProbe struct{}

func (rtreeProbe) ID() string { return "rtree" }
func (rtreeProbe) Run(in *probeInputs, m metrics) error {
	pts := in.d.Dataset.Points
	pts = pts[:min(len(pts), 200_000)]
	items := make([]rtree.Item, len(pts))
	for i := range pts {
		items[i] = rtree.Item{Box: geom.RectAround(geom.Point{X: pts[i].X, Y: pts[i].Y}, 0), Val: uint64(i)}
	}
	var t *rtree.Tree
	m.set("rtree.bulkload_s", "s", nsPer(1e9, func() { t = rtree.BulkLoad(items) }))
	hits := 0
	ns := nsPer(1, func() {
		for _, s := range in.sample {
			t.Search(s.Rect, func(rtree.Item) bool { hits++; return true })
		}
	})
	m.set("rtree.search_ns_per_hit", "ns/hit", ratio(ns, float64(hits)))
	return nil
}

type heapProbe struct{}

func (heapProbe) ID() string { return "storage" }
func (heapProbe) Run(in *probeInputs, m metrics) (err error) {
	schema := storage.Schema{
		{Name: "id", Type: storage.TInt64}, {Name: "x", Type: storage.TFloat64},
		{Name: "y", Type: storage.TFloat64}, {Name: "val", Type: storage.TFloat64},
	}
	h, err := storage.NewHeapFile(storage.NewBufferPool(storage.NewMemDisk(), 8192), schema)
	if err != nil {
		return err
	}
	pts := in.d.Dataset.Points
	pts = pts[:min(len(pts), 100_000)]
	rids := make([]storage.RID, len(pts))
	for i := range pts {
		p := &pts[i]
		if rids[i], err = h.Insert(storage.Row{storage.I64(p.ID), storage.F64(p.X), storage.F64(p.Y), storage.F64(p.Val)}); err != nil {
			return err
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(rids), func(i, j int) { rids[i], rids[j] = rids[j], rids[i] })
	dst := make(storage.Row, len(schema))
	m.set("storage.heap_get_ns", "ns", nsPer(float64(len(rids)), func() {
		for _, rid := range rids {
			if err = h.GetInto(rid, dst); err != nil {
				return
			}
		}
	}))
	return err
}

type codecProbe struct{}

func (codecProbe) ID() string { return "codec" }
func (codecProbe) Run(in *probeInputs, m metrics) (err error) {
	rows := float64(in.sampleRows())
	var decodeNs float64
	for _, c := range []struct {
		codec  server.Codec
		metric string
	}{{server.CodecJSON, "server.encode_json_ns_per_row"}, {server.CodecBinary, "server.encode_binary_ns_per_row"}} {
		payloads := make([][]byte, len(in.sample))
		m.set(c.metric, "ns/row", nsPer(rows, func() {
			for i, s := range in.sample {
				if payloads[i], err = server.Encode(s.Result, c.codec); err != nil {
					return
				}
			}
		}))
		decodeNs += nsPer(1, func() {
			for _, p := range payloads {
				if _, err = server.Decode(p, c.codec); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
	}
	m.set("frontend.decode_ns_per_row", "ns/row", ratio(decodeNs, 2*rows))
	return nil
}

type cacheProbe struct{}

func (cacheProbe) ID() string { return "cache" }
func (cacheProbe) Run(in *probeInputs, m metrics) error {
	cfg := cache.Config{Budget: in.sp.L1Bytes, Admission: cache.AdmissionLFU}
	c := cache.New(cfg)
	hits := 0
	for _, w := range in.stream {
		if _, ok := c.Get(w.Key); ok {
			hits++
		} else {
			c.Put(w.Key, w, in.sizes[w.Key])
		}
	}
	m.set("cache.replay_hit_ratio", "ratio", ratio(float64(hits), float64(len(in.stream))))
	var resident []string
	for _, s := range in.sample {
		if c.Contains(s.Key) {
			resident = append(resident, s.Key)
		}
	}
	const reps = 200
	m.set("cache.get_hit_ns", "ns", nsPer(float64(reps*len(resident)), func() {
		for r := 0; r < reps; r++ {
			for _, k := range resident {
				c.Get(k)
			}
		}
	}))
	fresh := cache.New(cfg)
	m.set("cache.put_ns", "ns", nsPer(float64(len(in.stream)), func() {
		for i, w := range in.stream {
			fresh.Put(fmt.Sprintf("%d/%s", i, w.Key), w, in.sizes[w.Key])
		}
	}))
	return nil
}

type storeProbe struct{}

func (storeProbe) ID() string { return "store" }
func (storeProbe) Run(in *probeInputs, m metrics) (err error) {
	opts := store.Options{Path: filepath.Join(in.dir, "probe-l2"), MaxBytes: 256 << 20}
	st, err := store.Open(opts)
	if err != nil {
		return err
	}
	n := float64(len(in.sample))
	var user float64
	m.set("store.put_flush_ns_per_record", "ns", nsPer(n, func() {
		for _, s := range in.sample {
			st.Put(s.Key, s.Payload)
			user += float64(len(s.Payload))
		}
		err = st.Flush()
	}))
	if err != nil {
		_ = st.Close()
		return err
	}
	m.set("store.bytes_per_user_byte", "ratio", ratio(float64(st.Snapshot().Bytes), user))
	misses := 0
	m.set("store.get_ns", "ns", nsPer(n, func() {
		for _, s := range in.sample {
			if _, ok := st.Get(s.Key); !ok {
				misses++
			}
		}
	}))
	if misses > 0 {
		_ = st.Close()
		return fmt.Errorf("%d of %d flushed records missing", misses, len(in.sample))
	}
	var reopened *store.Store
	m.set("store.reopen_ms", "ms", nsPer(1e6, func() {
		if err = st.Close(); err == nil {
			reopened, err = store.Open(opts)
		}
	}))
	if err != nil {
		return err
	}
	if got := reopened.Len(); got != len(in.sample) {
		_ = reopened.Close()
		return fmt.Errorf("reopen found %d keys, wrote %d", got, len(in.sample))
	}
	return reopened.Close()
}

type walProbe struct{}

func (walProbe) ID() string { return "wal" }
func (walProbe) Run(in *probeInputs, m metrics) (err error) {
	l, err := wal.Open(filepath.Join(in.dir, "probe.wal"))
	if err != nil {
		return err
	}
	const n = 50
	rec := make([]byte, 256) // about one update command
	m.set("wal.append_sync_ns", "ns", nsPer(n, func() {
		for i := 0; i < n && err == nil; i++ {
			if _, err = l.Append(rec); err == nil {
				err = l.Sync()
			}
		}
	}))
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	return err
}

type replogProbe struct{}

func (replogProbe) ID() string { return "replog" }
func (replogProbe) Run(in *probeInputs, m metrics) (err error) {
	n, err := replog.Open(replog.Config{
		Self: "probe", Dir: filepath.Join(in.dir, "probe-replog"),
		Apply: func(uint64, []byte) error { return nil },
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	cmd := make([]byte, 256)
	// The first Submit waits out the single member's self-election.
	if _, err = n.Submit(ctx, cmd); err == nil {
		const k = 30
		m.set("replog.submit_ms", "ms", nsPer(k*1e6, func() {
			for i := 0; i < k && err == nil; i++ {
				_, err = n.Submit(ctx, cmd)
			}
		}))
	}
	if cerr := n.Close(); err == nil {
		err = cerr
	}
	return err
}

type wireProbe struct{}

func (wireProbe) ID() string { return "wire" }
func (wireProbe) Run(in *probeInputs, m metrics) (err error) {
	kb, n := in.sampleKB(), float64(len(in.sample))
	compressed := make([][]byte, len(in.sample))
	var packed float64
	m.set("wire.compress_ns_per_kb", "ns/KiB", nsPer(kb, func() {
		for i, s := range in.sample {
			if compressed[i], err = wire.Compress(s.Payload); err != nil {
				return
			}
			packed += float64(len(compressed[i]))
		}
	}))
	if err != nil {
		return err
	}
	m.set("wire.compress_ratio", "ratio", ratio(packed/1024, kb))
	m.set("wire.decompress_ns_per_kb", "ns/KiB", nsPer(kb, func() {
		for _, c := range compressed {
			if _, err = wire.Decompress(c, wire.MaxFramePayload); err != nil {
				return
			}
		}
	}))
	if err != nil {
		return err
	}
	m.set("wire.payload_id_ns_per_kb", "ns/KiB", nsPer(kb, func() {
		for _, s := range in.sample {
			wire.PayloadID(s.Payload)
		}
	}))
	// A delta the size the planner ships for a half-overlapping pan:
	// half the rows leave as tombstones, half a payload enters.
	deltas := make([][]byte, len(in.sample))
	m.set("wire.delta_encode_ns", "ns", nsPer(n, func() {
		for i, s := range in.sample {
			tomb := make([]int64, len(s.Result.Rows)/2)
			for j := range tomb {
				tomb[j] = s.Result.Rows[j][0].AsInt()
			}
			deltas[i] = wire.EncodeDelta(wire.Delta{
				FullLen: len(s.Payload), NewID: uint64(i), Tombstones: tomb,
				Entering: s.Payload[:len(s.Payload)/2],
			})
		}
	}))
	m.set("wire.delta_decode_ns", "ns", nsPer(n, func() {
		for _, d := range deltas {
			if _, err = wire.DecodeDelta(d); err != nil {
				return
			}
		}
	}))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	m.set("wire.frame_rw_ns", "ns", nsPer(n, func() {
		for i, c := range compressed {
			buf.Reset()
			f := wire.Frame{Index: i, Kind: wire.FrameDBox, Codec: wire.CodecFlate, Payload: c}
			if err = wire.WriteFrame(&buf, wire.V3, f); err != nil {
				return
			}
			if _, err = wire.ReadFrame(bufio.NewReader(&buf), wire.V3); err != nil {
				return
			}
		}
	}))
	return err
}

type clusterProbe struct{}

func (clusterProbe) ID() string { return "cluster" }
func (clusterProbe) Run(in *probeInputs, m metrics) (err error) {
	ring := cluster.NewRing(0, "http://a", "http://b", "http://c")
	const reps = 100
	m.set("cluster.ring_owner_ns", "ns", nsPer(float64(reps*len(in.sample)), func() {
		for r := 0; r < reps; r++ {
			for _, s := range in.sample {
				ring.Owner(s.Key)
			}
		}
	}))
	// A stub peer that owns every key and answers from the recorded
	// payloads: the hop is the transport, the peer wire format and
	// loopback, with no serving work behind it.
	byKey := make(map[string][]byte, len(in.sample))
	for _, s := range in.sample {
		byKey[s.Key] = s.Payload
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var fr cluster.FillRequest
		derr := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&fr)
		_ = cluster.WritePeerResponse(w, nil, wire.FrameDBox, byKey[fr.Key], derr, derr != nil)
	})}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	peer := "http://" + ln.Addr().String()
	tp := cluster.NewTransport([]string{peer}, cluster.TransportConfig{})
	m.set("cluster.peer_fetch_ms", "ms", nsPer(float64(len(in.sample))*1e6, func() {
		for _, s := range in.sample {
			var got []byte
			got, _, err = tp.FetchContext(context.Background(), peer, &cluster.FillRequest{Key: s.Key, Kind: "dbox", Codec: string(in.sp.Codec)})
			if err == nil && len(got) != len(s.Payload) {
				err = fmt.Errorf("peer returned %d bytes for a %d-byte payload", len(got), len(s.Payload))
			}
			if err != nil {
				return
			}
		}
	}))
	return err
}
