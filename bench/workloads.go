package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/server"
	"kyrix/internal/workload"
)

// numClients is the closed-loop client count: one goroutine and one
// connection each, the next pan sent only after the previous reply. It
// is fixed (not GOMAXPROCS-derived) so rows stay comparable across
// hosts.
const numClients = 2

// defaultSeed is the seed the pinned input hashes below were computed
// for.
const defaultSeed = 2019

// scale sizes the dataset and the rounds. fullScale is what
// BENCHMARK.json measures; the smoke test shrinks it.
type scale struct {
	Points           int
	CanvasW, CanvasH float64
	// MaxSteps caps every workload's steps per round (0 = its own).
	MaxSteps int
	// Setups is how many times set-up is repeated (median reported).
	Setups int
}

// fullScale is the `default` experiment scale: ~490 rows per 1024²
// viewport, half the paper's density.
var fullScale = scale{Points: 1_000_000, CanvasW: 131072, CanvasH: 16384, Setups: 3}

const viewport = 1024.0

// wlSpec is one workload: the server and client configuration plus the
// trace each client replays once per round.
type wlSpec struct {
	Name   string
	Scheme fetch.Granularity
	Codec  server.Codec
	// BatchSize > 1 puts tile fetches on the framed /batch protocol.
	BatchSize int
	// FrontendCacheBytes is the client's tile cache. Dbox workloads
	// run with it off; the tile workload keeps 128 KB — enough to hold
	// the tile under the viewport for ObjectsInViewport (about 22 KB of
	// JSON), far too small to carry a tile from one sweep to the next.
	FrontendCacheBytes int64
	L1Bytes            int64
	LOD                bool
	// Durable enables the L2 tile store and the standalone (quorum-1)
	// replicated update log, both under the run's temp dir.
	Durable bool
	// UpdateEvery makes client 0 POST /update every n-th step (0 =
	// never) and read the row back.
	UpdateEvery int
	// ClearL1PerRound empties the backend cache before every round so
	// each round is the same pure-miss pass.
	ClearL1PerRound bool
	// Steps is pan steps per client per round at full scale.
	Steps int
	// Trace builds client i's round trace (Steps+1 viewports; the first
	// is the untimed initial load of the verify pass).
	Trace func(canvas geom.Rect, steps, client int) *workload.Trace
}

// The traces do not follow the run's seed; the dataset does, so every
// seed moves every row under the same viewports. How many steps stay
// inside the held box, and how many boxes the canvas edge clips, are
// properties of a trace, not of the system: with seed-drawn hot spots
// they swung zoom_lod's steps_per_s by ±8 % from seed to seed. Both
// clients share one hot-spot layout and differ in visit order.
const layoutSeed = 7

func zipfPanTrace(canvas geom.Rect, steps, client int) *workload.Trace {
	return workload.ZipfHotSetTrace(workload.ZipfOptions{
		Canvas: canvas, TileSize: viewport,
		HotSpots: 64, Skew: 1.2, Steps: steps,
		VpW: viewport, VpH: viewport,
		LayoutSeed: layoutSeed, Seed: int64(client) + 1,
	})
}

func zipfZoomTrace(canvas geom.Rect, steps, client int) *workload.Trace {
	return workload.ZipfZoomTrace(workload.ZipfZoomOptions{
		Canvas:   canvas,
		HotSpots: 64, Skew: 1.2, Steps: steps,
		VpW: viewport, VpH: viewport, ZoomLevels: 5,
		LayoutSeed: layoutSeed, Seed: int64(client) + 1,
	})
}

// scanHalfTrace gives client i its disjoint share of one row-major
// sweep of the canvas (the first steps of it below full scale).
func scanHalfTrace(canvas geom.Rect, steps, client int) *workload.Trace {
	full := workload.SequentialScanTrace(canvas, viewport, viewport).Steps
	per := len(full) / numClients
	share := full[client*per : (client+1)*per]
	share = share[:min(steps, len(share))]
	// The trace's first viewport is the untimed load; put the share's
	// last step there so the measured steps are exactly the share.
	tr := &workload.Trace{Name: "sequential-scan"}
	tr.Steps = append(append(tr.Steps, share[len(share)-1]), share...)
	return tr
}

// specs are the four workloads; the names are the contract with
// BENCHMARK.json. See README.md for why each exists.
var specs = []wlSpec{
	{
		Name: "pan_hot", Scheme: fetch.DBox50, Codec: server.CodecBinary,
		L1Bytes: 256 << 20, Steps: 2250, Trace: zipfPanTrace,
	},
	{
		Name: "scan_tiles", Scheme: fetch.TileSpatial1024, Codec: server.CodecJSON,
		BatchSize: 8, FrontendCacheBytes: 128 << 10,
		L1Bytes: 256 << 20, ClearL1PerRound: true,
		Steps: 1024, Trace: scanHalfTrace,
	},
	{
		Name: "zoom_lod", Scheme: fetch.DBox50, Codec: server.CodecBinary,
		L1Bytes: 8 << 20, LOD: true, Steps: 750, Trace: zipfZoomTrace,
	},
	{
		Name: "pan_update", Scheme: fetch.DBox50, Codec: server.CodecJSON,
		L1Bytes: 16 << 20, Durable: true, UpdateEvery: 25,
		Steps: 375, Trace: zipfPanTrace,
	},
}

func specByName(name string) (wlSpec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return wlSpec{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything generated from the seed: the program under test
// sees only these.
type inputs struct {
	Dataset *workload.Dataset
	Traces  []*workload.Trace // one per client
}

func makeInputs(sp wlSpec, sc scale, seed int64) *inputs {
	d := workload.Uniform(sc.Points, sc.CanvasW, sc.CanvasH, seed)
	steps := sp.Steps
	if sc.MaxSteps > 0 {
		steps = min(steps, sc.MaxSteps)
	}
	in := &inputs{Dataset: d}
	for i := 0; i < numClients; i++ {
		in.Traces = append(in.Traces, sp.Trace(d.Canvas(), steps, i))
	}
	return in
}

// hash digests the dataset and every client trace bit-exactly.
func (in *inputs) hash() string {
	h := sha256.New()
	var buf [32]byte
	for i := range in.Dataset.Points {
		p := &in.Dataset.Points[i]
		binary.LittleEndian.PutUint64(buf[0:], uint64(p.ID))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(p.Y))
		binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(p.Val))
		h.Write(buf[:])
	}
	for _, tr := range in.Traces {
		for _, r := range tr.Steps {
			binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(r.MinX))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(r.MinY))
			binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(r.MaxX))
			binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(r.MaxY))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedInputs is inputs_sha256 per workload at fullScale and
// defaultSeed. BENCHMARK.json admits no extra key, so the pins live
// here; checkPinnedInputs refuses to report when internal/workload has
// drifted from them.
var pinnedInputs = map[string]string{
	"pan_hot":    "e7da1595510a2e88529abb8d13403c529e79ff35973558ee42ae7eeab88c299a",
	"scan_tiles": "4ee873ef7dc349f68c9ef4c2de511ed175a0800ed3ac9da05d32a72c98de3428",
	"zoom_lod":   "9305ce91ab7f4086ff21a19de73d91f1d9c9bdd5acb67b560ef52de5d20910b0",
	"pan_update": "e4354a20ae1d6e6376701e3e558e3f586126f2d68744e6576a0caa5689742ac0",
}

func checkPinnedInputs(sp wlSpec) error {
	want, ok := pinnedInputs[sp.Name]
	if !ok {
		return fmt.Errorf("no pinned input hash for workload %q", sp.Name)
	}
	if got := makeInputs(sp, fullScale, defaultSeed).hash(); got != want {
		return fmt.Errorf("inputs for %s at seed %d hash to %s, pinned %s: internal/workload changed the load; re-pin deliberately in bench/workloads.go",
			sp.Name, defaultSeed, got, want)
	}
	return nil
}
