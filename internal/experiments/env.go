// Package experiments is the harness that regenerates the paper's
// evaluation (§3.3 of the paper named in PAPER.md, Figures 6 and 7)
// and the ablations A1..A5 derived from the paper's prose, each
// documented on its Ablation* function. It loads a synthetic dataset
// into the embedded DBMS, performs the precomputation of both database
// designs, starts a real backend over loopback HTTP, replays the
// viewport traces of Fig. 5 through a frontend client under each
// fetching scheme, and aggregates per-step response times exactly as
// the paper reports them ("the average response time (per step) of all
// fetching schemes on three traces", averaged over 3 runs). It also
// drives what the single-node benchmark in bench/ leaves out: the
// multi-node client sweep (ClusterRun), the restart and failover
// experiments, and the cluster chaos tests.
package experiments

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"kyrix/internal/fetch"
	"kyrix/internal/frontend"
	"kyrix/internal/server"
	"kyrix/internal/spec"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
	"kyrix/internal/workload"
)

// Config sizes one experiment environment. The zero value is unusable;
// start from DefaultConfig, QuickConfig or PaperConfig.
type Config struct {
	// Name labels the config in reports.
	Name string
	// NumPoints is the dataset size (the paper: 100M).
	NumPoints int
	// CanvasW, CanvasH are the canvas extent (the paper: 1M × 0.1M).
	CanvasW, CanvasH float64
	// ViewportW, ViewportH are the frontend viewport (1024² so traces
	// align with the 1024 tile size, per Fig. 5).
	ViewportW, ViewportH float64
	// TileSizes are the static tile sizes to precompute and test.
	TileSizes []float64
	// Runs averages each series over this many runs (the paper: 3).
	Runs int
	// Seed fixes the dataset generator.
	Seed int64
	// Radius is the rendered half-extent of each dot ("we assume
	// records are generally rendered bigger than a single pixel").
	Radius float64
	// FrontendCacheBytes / BackendCacheBytes size the two caches. The
	// backend cache admits with W-TinyLFU ("lfu"), as kyrix-server does.
	FrontendCacheBytes int64
	BackendCacheBytes  int64
	// LOD declares the point layer "lod": "auto", so precompute builds
	// the aggregation pyramid and zoomed-out windows serve aggregate
	// cells — the comparison axis for the zoom workload.
	LOD bool
	// L2Dir, when non-empty, enables the persistent tile store (the
	// on-disk L2 under the backend cache) at that directory — the knob
	// behind the restart/cold-start experiments.
	L2Dir string
	// ReplogRoot holds each node's replicated update log under
	// <ReplogRoot>/node<i>, so the chaos/failover experiments can kill
	// and restart nodes without losing acknowledged updates. A cluster
	// always has a log (a temporary root when this is empty); a single
	// node gets a durable one only when it is set.
	ReplogRoot string
}

// DefaultConfig is the laptop-scale mapping of the paper's §3.3 setup
// (PAPER.md; PaperConfig spells it out): same density proportions at
// 1/100 the row count.
func DefaultConfig() Config {
	return Config{
		Name:               "default",
		NumPoints:          1_000_000,
		CanvasW:            131072,
		CanvasH:            16384,
		ViewportW:          1024,
		ViewportH:          1024,
		TileSizes:          []float64{256, 1024, 4096},
		Runs:               3,
		Seed:               2019,
		Radius:             1,
		FrontendCacheBytes: 256 << 20,
		BackendCacheBytes:  256 << 20,
	}
}

// QuickConfig is a CI-sized config for tests.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Name = "quick"
	cfg.NumPoints = 120_000
	cfg.CanvasW = 32768
	cfg.CanvasH = 16384
	cfg.Runs = 1
	return cfg
}

// PaperConfig is the paper's full scale (100M dots on a 1M×0.1M
// canvas). Building it takes a long time and tens of GB of memory; it
// exists so the mapping to the original numbers is explicit.
func PaperConfig() Config {
	cfg := DefaultConfig()
	cfg.Name = "paper"
	cfg.NumPoints = 100_000_000
	cfg.CanvasW = 1_000_000
	cfg.CanvasH = 100_000
	return cfg
}

// Env is one loaded dataset with a running backend.
type Env struct {
	Cfg     Config
	Dataset *workload.Dataset
	DB      *sqldb.DB
	CA      *spec.CompiledApp
	Srv     *server.Server
	BaseURL string

	ln   net.Listener
	hsrv *http.Server
	// PrecomputeTime is how long loading + index/mapping builds took.
	PrecomputeTime time.Duration
}

// pointColumns is the record-table schema of §3.1: raw attributes plus
// the auto-increment tuple id.
var pointColumns = []spec.ColumnSpec{
	{Name: "id", Type: "int"},
	{Name: "x", Type: "double"},
	{Name: "y", Type: "double"},
	{Name: "val", Type: "double"},
}

// NewEnv loads dataset (built if nil from cfg via kind "uniform" or
// "skewed"), precomputes both database designs, and starts the backend.
func NewEnv(cfg Config, kind string) (*Env, error) {
	d, err := newDataset(cfg, kind)
	if err != nil {
		return nil, err
	}
	return NewEnvFor(cfg, d)
}

// newDataset generates cfg's dataset of the named kind ("uniform" or
// "skewed").
func newDataset(cfg Config, kind string) (*workload.Dataset, error) {
	switch kind {
	case "uniform":
		return workload.Uniform(cfg.NumPoints, cfg.CanvasW, cfg.CanvasH, cfg.Seed), nil
	case "skewed":
		return workload.Skewed(cfg.NumPoints, cfg.CanvasW, cfg.CanvasH, cfg.Seed), nil
	}
	return nil, fmt.Errorf("experiments: unknown dataset kind %q", kind)
}

// NewEnvFor builds an environment over an existing dataset.
func NewEnvFor(cfg Config, d *workload.Dataset) (*Env, error) {
	return newEnv(cfg, d, server.ClusterOptions{}, nil)
}

// newEnv is the shared constructor: standalone envs pass a zero
// ClusterOptions and a nil listener; cluster nodes pass their
// membership and the pre-created listener their Self URL names (the
// ring needs every node's address before any server exists).
func newEnv(cfg Config, d *workload.Dataset, copts server.ClusterOptions, ln net.Listener) (*Env, error) {
	start := time.Now()
	db := sqldb.NewDB()
	if _, err := db.Exec("CREATE TABLE points (id INT, x DOUBLE, y DOUBLE, val DOUBLE)"); err != nil {
		return nil, err
	}
	for i := range d.Points {
		p := &d.Points[i]
		if err := db.InsertRow("points", storage.Row{
			storage.I64(p.ID), storage.F64(p.X), storage.F64(p.Y), storage.F64(p.Val),
		}); err != nil {
			return nil, err
		}
	}
	reg := spec.NewRegistry()
	reg.RegisterRenderer("dots")
	app := &spec.App{
		Name: "experiment",
		Canvases: []spec.Canvas{{
			ID: "main", W: d.CanvasW, H: d.CanvasH,
			Transforms: []spec.Transform{{
				ID: "pts", Query: "SELECT * FROM points", Columns: pointColumns,
			}},
			Layers: []spec.Layer{{
				TransformID: "pts",
				Placement:   &spec.Placement{XCol: "x", YCol: "y", Radius: cfg.Radius},
				Renderer:    "dots",
				LOD:         lodKnob(cfg.LOD),
			}},
		}},
		InitialCanvas: "main",
		InitialX:      d.CanvasW / 2, InitialY: d.CanvasH / 2,
		ViewportW: cfg.ViewportW, ViewportH: cfg.ViewportH,
	}
	ca, err := spec.Compile(app, reg)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(db, ca, server.Options{
		Cache: server.CacheOptions{
			L1: server.L1CacheOptions{
				Bytes:     cfg.BackendCacheBytes,
				Admission: "lfu",
			},
			L2: server.L2CacheOptions{Path: cfg.L2Dir},
		},
		Cluster: copts,
		Precompute: fetch.Options{
			BuildSpatial: true,
			TileSizes:    cfg.TileSizes,
		},
	})
	if err != nil {
		return nil, err
	}
	env := &Env{Cfg: cfg, Dataset: d, DB: db, CA: ca, Srv: srv}
	env.PrecomputeTime = time.Since(start)
	if err := env.serve(ln); err != nil {
		return nil, err
	}
	return env, nil
}

func lodKnob(on bool) string {
	if on {
		return "auto"
	}
	return ""
}

// serve starts the HTTP side on ln (created here when nil).
func (e *Env) serve(ln net.Listener) error {
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("experiments: listen: %w", err)
		}
	}
	e.ln = ln
	e.hsrv = &http.Server{Handler: e.Srv.Handler()}
	go func() { _ = e.hsrv.Serve(ln) }()
	e.BaseURL = "http://" + ln.Addr().String()
	return nil
}

// Close shuts the backend down: stop accepting, give in-flight
// requests (streaming /batch responses, peer fills this node is
// serving) a bounded grace to drain, then force-close the stragglers.
// The listener is released explicitly too (Shutdown only knows
// listeners its Serve goroutine already registered).
func (e *Env) Close() {
	if e.hsrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := e.hsrv.Shutdown(ctx); err != nil {
			_ = e.hsrv.Close()
		}
		cancel()
		e.hsrv = nil
	}
	if e.ln != nil {
		_ = e.ln.Close()
		e.ln = nil
	}
	// Last, the server itself: this drains the persistent store's
	// write-behind queue to disk, so fills from the final pan steps are
	// readable after a reopen over the same L2 directory.
	if e.Srv != nil {
		_ = e.Srv.Close()
	}
}

// Series is one (scheme, trace) measurement: the paper's unit of
// reporting in Figures 6–7.
type Series struct {
	Scheme string
	Trace  string
	// MeanMs is the average response time per pan step across runs.
	MeanMs float64
	// StdMs is the standard deviation across all measured steps.
	StdMs float64
	// RequestsPerStep and RowsPerStep are fetch-volume diagnostics
	// (they explain *why* the times order the way they do).
	RequestsPerStep float64
	RowsPerStep     float64
	// InitialLoadMs is the (unmeasured-by-the-paper) first load.
	InitialLoadMs float64
	// OverBudget counts steps that broke the 500 ms budget.
	OverBudget int
}

// RunScheme replays trace under scheme cfg.Runs times with a fresh
// frontend each run (cold frontend cache, cold dynamic box), clearing
// the backend cache between runs so runs are independent samples, and
// aggregates the pan-step response times. The initial load (Steps[0])
// is reported separately and excluded from the mean, matching the
// paper's per-pan-step metric.
func (e *Env) RunScheme(g fetch.Granularity, tr *workload.Trace) (Series, error) {
	s := Series{Scheme: g.Name(), Trace: tr.Name}
	var durs []float64
	var reqs, rows, loads float64
	for run := 0; run < e.Cfg.Runs; run++ {
		e.Srv.BackendCache().Clear()
		c, err := frontend.NewClient(e.BaseURL, e.CA, frontend.Options{
			Scheme:     g,
			Codec:      server.CodecJSON,
			CacheBytes: e.Cfg.FrontendCacheBytes,
		})
		if err != nil {
			return s, err
		}
		if _, err := c.Pan(tr.Steps[0]); err != nil {
			return s, err
		}
		loads += float64(c.TotalReports[0].Duration.Microseconds()) / 1000
		for _, step := range tr.Steps[1:] {
			rep, err := c.Pan(step)
			if err != nil {
				return s, err
			}
			durs = append(durs, float64(rep.Duration.Microseconds())/1000)
			reqs += float64(rep.Requests)
			rows += float64(rep.Rows)
			if rep.OverBudget {
				s.OverBudget++
			}
		}
	}
	n := float64(len(durs))
	if n == 0 {
		return s, fmt.Errorf("experiments: trace %q has no pan steps", tr.Name)
	}
	var sum float64
	for _, d := range durs {
		sum += d
	}
	s.MeanMs = sum / n
	var varsum float64
	for _, d := range durs {
		varsum += (d - s.MeanMs) * (d - s.MeanMs)
	}
	s.StdMs = math.Sqrt(varsum / n)
	s.RequestsPerStep = reqs / n
	s.RowsPerStep = rows / n
	s.InitialLoadMs = loads / float64(e.Cfg.Runs)
	return s, nil
}

// Table is a formatted experiment result: scheme rows × trace columns.
type Table struct {
	Title  string
	Cols   []string
	Rows   []string
	Cells  [][]float64 // [row][col], NaN = missing
	Unit   string
	Notes  []string
	series map[string]Series // "row/col" -> full series
}

// NewTable allocates a rows×cols table.
func NewTable(title, unit string, rows, cols []string) *Table {
	t := &Table{Title: title, Unit: unit, Cols: cols, Rows: rows,
		series: map[string]Series{}}
	t.Cells = make([][]float64, len(rows))
	for i := range t.Cells {
		t.Cells[i] = make([]float64, len(cols))
		for j := range t.Cells[i] {
			t.Cells[i][j] = math.NaN()
		}
	}
	return t
}

// Set stores a cell (and its backing series for diagnostics).
func (t *Table) Set(row, col string, v float64, s Series) {
	ri, ci := indexOf(t.Rows, row), indexOf(t.Cols, col)
	if ri < 0 || ci < 0 {
		return
	}
	t.Cells[ri][ci] = v
	t.series[row+"/"+col] = s
}

// Get fetches a cell by labels (NaN when missing).
func (t *Table) Get(row, col string) float64 {
	ri, ci := indexOf(t.Rows, row), indexOf(t.Cols, col)
	if ri < 0 || ci < 0 {
		return math.NaN()
	}
	return t.Cells[ri][ci]
}

// Series fetches the full measurement behind a cell.
func (t *Table) Series(row, col string) (Series, bool) {
	s, ok := t.series[row+"/"+col]
	return s, ok
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// Format renders the table as aligned text, the cmd/kyrix-bench
// output.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%s)\n", t.Title, t.Unit)
	width := 0
	for _, r := range t.Rows {
		if len(r) > width {
			width = len(r)
		}
	}
	fmt.Fprintf(&sb, "%-*s", width+2, "")
	for _, c := range t.Cols {
		fmt.Fprintf(&sb, "%12s", c)
	}
	sb.WriteByte('\n')
	for i, r := range t.Rows {
		fmt.Fprintf(&sb, "%-*s", width+2, r)
		for j := range t.Cols {
			v := t.Cells[i][j]
			if math.IsNaN(v) {
				fmt.Fprintf(&sb, "%12s", "-")
			} else {
				fmt.Fprintf(&sb, "%12.2f", v)
			}
		}
		sb.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "  note: %s\n", n)
	}
	return sb.String()
}

// SortedSchemeNames returns the paper-legend scheme names.
func SortedSchemeNames() []string {
	var names []string
	for _, g := range fetch.PaperSchemes() {
		names = append(names, g.Name())
	}
	return names
}

// best returns the row label with the smallest mean across columns.
func (t *Table) best() string {
	bestRow, bestVal := "", math.Inf(1)
	for i, r := range t.Rows {
		var sum float64
		var n int
		for _, v := range t.Cells[i] {
			if !math.IsNaN(v) {
				sum += v
				n++
			}
		}
		if n == 0 {
			continue
		}
		if avg := sum / float64(n); avg < bestVal {
			bestVal, bestRow = avg, r
		}
	}
	return bestRow
}

// Shape checks — the qualitative claims of §3.3's Results list,
// verified by tests and printed by the bench tool.

// ShapeReport compares the measured table against the paper's
// qualitative claims and returns one line per claim.
func ShapeReport(uniform, skewed *Table) []string {
	var out []string
	check := func(name string, ok bool) {
		status := "HOLDS"
		if !ok {
			status = "VIOLATED"
		}
		out = append(out, fmt.Sprintf("[%s] %s", status, name))
	}
	// (1) Dbox has the best overall performance on both datasets.
	check("dbox best overall on Uniform", uniform.best() == "dbox")
	check("dbox best overall on Skewed", skewed.best() == "dbox")
	// (2) Tile 1024 spatial is competitive on trace-a, even better
	// than dbox 50%.
	check("tile spatial 1024 beats dbox 50% on trace-a (Uniform)",
		uniform.Get("tile spatial 1024", "trace-a") < uniform.Get("dbox 50%", "trace-a"))
	// (3) Tile 4096 and 256 spatial have the worst performances.
	worstTwo := func(t *Table) []string {
		type rv struct {
			row string
			avg float64
		}
		var rvs []rv
		for i, r := range t.Rows {
			var sum float64
			var n int
			for _, v := range t.Cells[i] {
				if !math.IsNaN(v) {
					sum += v
					n++
				}
			}
			rvs = append(rvs, rv{r, sum / float64(n)})
		}
		sort.Slice(rvs, func(i, j int) bool { return rvs[i].avg > rvs[j].avg })
		return []string{rvs[0].row, rvs[1].row}
	}
	wu := worstTwo(uniform)
	isExtreme := func(name string) bool {
		return strings.Contains(name, "256") || strings.Contains(name, "4096")
	}
	check("worst two schemes are extreme tile sizes (Uniform)",
		isExtreme(wu[0]) && isExtreme(wu[1]))
	// (4) Skewed is slower than Uniform overall (dense hot region).
	var su, ss float64
	var nu, ns int
	for i := range uniform.Rows {
		for j := range uniform.Cols {
			if !math.IsNaN(uniform.Cells[i][j]) {
				su += uniform.Cells[i][j]
				nu++
			}
			if !math.IsNaN(skewed.Cells[i][j]) {
				ss += skewed.Cells[i][j]
				ns++
			}
		}
	}
	check("Skewed slower than Uniform overall", ss/float64(ns) > su/float64(nu))
	return out
}
