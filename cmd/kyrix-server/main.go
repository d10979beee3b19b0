// Command kyrix-server runs a Kyrix backend over HTTP.
//
// Demo mode generates one of the paper's synthetic datasets, builds the
// single-canvas scatter application over it and serves it:
//
//	kyrix-server -demo uniform -n 1000000 -addr :8080
//	kyrix-server -demo skewed  -n 1000000
//	kyrix-server -demo uniform -lod        # "lod": "auto" on the point layer
//
// Spec mode serves a JSON spec against CSV-loaded tables. Each -table
// flag is name=path.csv, where the CSV header declares typed columns as
// name:type (type ∈ int,double,text,bool):
//
//	kyrix-server -spec app.json -table states=states.csv -table counties=counties.csv
//
// Cluster mode joins this node to a serving cluster: -self is the URL
// peers reach this node at, -peers the comma-separated base URLs of
// every node (this node included is fine), and -replog-dir (required)
// the directory of this node's replicated update log. Cache-key
// ownership is partitioned over a consistent-hash ring; a non-owner
// forwards misses to the owner's /peer endpoint instead of querying its
// database, and hot keys replicate locally. /update is a
// quorum-committed log command: any node accepts it, forwards it to the
// elected leader, and every node applies the committed log in the same
// order, removing what each update touched from its own caches. A
// restarted node replays its log and rejoins; updates acked to clients
// survive the loss of any minority of nodes:
//
//	kyrix-server -demo uniform -addr :8080 -self http://10.0.0.1:8080 \
//	  -peers http://10.0.0.1:8080,http://10.0.0.2:8080,http://10.0.0.3:8080 \
//	  -replog-dir /var/lib/kyrix/replog
//
// Every node must start from the same data (shared or identically
// loaded backing store). Standalone, -replog-dir makes /update a
// durable single-member log, the one durable record of updates: a
// restart with the same data flags over the same directory replays
// every logged update before it serves.
//
// -l2dir enables the persistent tile store (L2): rendered payloads are
// journaled to checksummed segment files under that directory through a
// write-behind queue, so a restarted node answers its working set from
// disk instead of re-querying the database. /update tombstones the
// windows it touched (DDL and bulk edits drop the store by generation).
//
// Endpoints (consumed by the kyrix frontend client): /app /tile /dbox
// /update /stats, plus /peer for cluster fills. Observability rides the
// same mux: /metrics serves Prometheus-format counters and per-stage
// latency histograms, /debug/requests the flight recorder (the N
// slowest and most recent request traces as span trees); -pprof
// additionally mounts net/http/pprof under /debug/pprof/, and
// -no-trace turns span collection off while keeping the histograms.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"

	"kyrix/internal/server"
	"kyrix/internal/spec"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
	"kyrix/internal/workload"
)

type tableList []string

func (t *tableList) String() string     { return strings.Join(*t, ",") }
func (t *tableList) Set(v string) error { *t = append(*t, v); return nil }

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	demo := flag.String("demo", "", "serve a synthetic demo dataset: uniform | skewed")
	n := flag.Int("n", 1_000_000, "demo dataset size")
	lod := flag.Bool("lod", false, "demo mode: declare \"lod\": \"auto\" on the point layer (aggregation pyramid)")
	specPath := flag.String("spec", "", "JSON app spec to serve (spec mode)")
	seed := flag.Int64("seed", 2019, "demo dataset seed")
	cacheMB := flag.Int64("cache-mb", 256, "backend cache budget in MB")
	l2dir := flag.String("l2dir", "", "enable the persistent tile store (L2) at this directory: rendered payloads survive restarts and warm the node without database queries")
	l2MB := flag.Int64("l2-mb", 0, "persistent tile store budget in MB (0 = store default, 1 GiB)")
	tileSizes := flag.String("tile-sizes", "256,1024,4096", "comma-separated tile sizes to precompute")
	self := flag.String("self", "", "cluster mode: this node's base URL as peers reach it (e.g. http://10.0.0.1:8080)")
	peers := flag.String("peers", "", "cluster mode: comma-separated base URLs of every cluster node (may include -self)")
	replogDir := flag.String("replog-dir", "", "persist a replicated update log under this directory: /update commits through a quorum of the cluster and survives node failures (standalone: a durable single-node log)")
	noTrace := flag.Bool("no-trace", false, "disable request tracing and the /debug/requests flight recorder (/metrics histograms stay on)")
	flightN := flag.Int("flight-recorder", 0, "flight recorder depth: /debug/requests keeps the N most recent and N slowest request traces (0 = 64)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the serving mux")
	var tables tableList
	flag.Var(&tables, "table", "load a CSV table: name=path.csv (repeatable, spec mode)")
	flag.Parse()

	var clusterOpts server.ClusterOptions
	if *peers != "" || *self != "" {
		if *self == "" || *peers == "" {
			log.Fatal("cluster mode needs both -self and -peers")
		}
		clusterOpts.Self = *self
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				clusterOpts.Peers = append(clusterOpts.Peers, p)
			}
		}
		if !clusterOpts.Enabled() {
			log.Fatalf("-peers %q names no peer besides -self", *peers)
		}
		if *replogDir == "" {
			log.Fatal("cluster mode needs -replog-dir: the replicated update log is how an /update reaches the other nodes")
		}
	}
	clusterOpts.Replog.Dir = *replogDir

	var sizes []float64
	for _, s := range strings.Split(*tileSizes, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			log.Fatalf("bad -tile-sizes: %v", err)
		}
		sizes = append(sizes, v)
	}

	db := sqldb.NewDB()

	var ca *spec.CompiledApp
	var err error
	switch {
	case *demo != "":
		ca, err = buildDemo(db, *demo, *n, *seed, *lod)
	case *specPath != "":
		ca, err = buildFromSpec(db, *specPath, tables)
	default:
		log.Fatal("one of -demo or -spec is required")
	}
	if err != nil {
		log.Fatal(err)
	}

	opts := server.DefaultOptions()
	opts.Cache.L1.Bytes = *cacheMB << 20
	opts.Cache.L2 = server.L2CacheOptions{Path: *l2dir, MaxBytes: *l2MB << 20}
	opts.Cluster = clusterOpts
	opts.Obs = server.ObsOptions{
		DisableTracing:     *noTrace,
		FlightRecorderSize: *flightN,
		Pprof:              *pprofOn,
	}
	opts.Precompute.TileSizes = sizes
	srv, err := server.New(db, ca, opts)
	if err != nil {
		log.Fatalf("start server: %v", err)
	}
	if clusterOpts.Enabled() {
		log.Printf("cluster node %s joined ring of %d peers", clusterOpts.Self, len(clusterOpts.Peers))
	}
	if *l2dir != "" {
		log.Printf("persistent tile store at %s (%d keys resident)", *l2dir, srv.L2().Len())
	}
	if *replogDir != "" {
		rs := srv.Replog().Snapshot()
		log.Printf("replicated update log at %s (%d members, %d entries on disk)",
			*replogDir, rs.Members, rs.LastIndex)
	}
	log.Printf("kyrix backend serving app %q on %s", ca.Spec.Name, *addr)
	log.Fatal(http.ListenAndServe(*addr, srv.Handler()))
}

func buildDemo(db *sqldb.DB, kind string, n int, seed int64, lod bool) (*spec.CompiledApp, error) {
	const w, h = 131072.0, 16384.0
	var d *workload.Dataset
	switch kind {
	case "uniform":
		d = workload.Uniform(n, w, h, seed)
	case "skewed":
		d = workload.Skewed(n, w, h, seed)
	default:
		return nil, fmt.Errorf("unknown -demo %q (want uniform or skewed)", kind)
	}
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
	log.Printf("loaded %d %s points on a %gx%g canvas (lod=%v)", n, kind, w, h, lod)
	reg := spec.NewRegistry()
	reg.RegisterRenderer("dots")
	app := &spec.App{
		Name: "demo-" + kind,
		Canvases: []spec.Canvas{{
			ID: "main", W: w, H: h,
			Transforms: []spec.Transform{{
				ID: "pts", Query: "SELECT * FROM points",
				Columns: []spec.ColumnSpec{
					{Name: "id", Type: "int"}, {Name: "x", Type: "double"},
					{Name: "y", Type: "double"}, {Name: "val", Type: "double"},
				},
			}},
			Layers: []spec.Layer{{
				TransformID: "pts",
				Placement:   &spec.Placement{XCol: "x", YCol: "y", Radius: 1},
				Renderer:    "dots",
				LOD:         lodKnob(lod),
			}},
		}},
		InitialCanvas: "main", InitialX: w / 2, InitialY: h / 2,
		ViewportW: 1024, ViewportH: 1024,
	}
	return spec.Compile(app, reg)
}

func lodKnob(on bool) string {
	if on {
		return "auto"
	}
	return ""
}

func buildFromSpec(db *sqldb.DB, path string, tables tableList) (*spec.CompiledApp, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	app, err := spec.FromJSON(data)
	if err != nil {
		return nil, err
	}
	for _, tspec := range tables {
		name, csvPath, ok := strings.Cut(tspec, "=")
		if !ok {
			return nil, fmt.Errorf("bad -table %q (want name=path.csv)", tspec)
		}
		if err := loadCSV(db, name, csvPath); err != nil {
			return nil, fmt.Errorf("load %s: %w", tspec, err)
		}
	}
	// Spec mode declares every referenced function name permissively:
	// a serving-only process has no Go callbacks, so specs served here
	// must be separable (the §3.2 common case).
	reg := spec.NewRegistry()
	for _, c := range app.Canvases {
		for _, l := range c.Layers {
			if l.Renderer != "" {
				reg.RegisterRenderer(l.Renderer)
			}
		}
	}
	return spec.Compile(app, reg)
}

// loadCSV loads a CSV with a typed header (col:type,...) into a fresh
// table.
func loadCSV(db *sqldb.DB, table, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := csv.NewReader(f)
	header, err := r.Read()
	if err != nil {
		return fmt.Errorf("read header: %w", err)
	}
	var ddl strings.Builder
	fmt.Fprintf(&ddl, "CREATE TABLE %s (", table)
	types := make([]string, len(header))
	for i, hcol := range header {
		name, typ, ok := strings.Cut(strings.TrimSpace(hcol), ":")
		if !ok {
			return fmt.Errorf("header column %q lacks a :type suffix", hcol)
		}
		types[i] = typ
		sqlType := map[string]string{"int": "INT", "double": "DOUBLE", "text": "TEXT", "bool": "BOOL"}[typ]
		if sqlType == "" {
			return fmt.Errorf("unknown type %q in header", typ)
		}
		if i > 0 {
			ddl.WriteString(", ")
		}
		fmt.Fprintf(&ddl, "%s %s", name, sqlType)
	}
	ddl.WriteString(")")
	if _, err := db.Exec(ddl.String()); err != nil {
		return err
	}
	count := 0
	for {
		rec, err := r.Read()
		if err != nil {
			break
		}
		row := make(storage.Row, len(rec))
		for i, cell := range rec {
			switch types[i] {
			case "int":
				v, err := strconv.ParseInt(strings.TrimSpace(cell), 10, 64)
				if err != nil {
					return fmt.Errorf("row %d col %d: %w", count, i, err)
				}
				row[i] = storage.I64(v)
			case "double":
				v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
				if err != nil {
					return fmt.Errorf("row %d col %d: %w", count, i, err)
				}
				row[i] = storage.F64(v)
			case "text":
				row[i] = storage.Str(cell)
			case "bool":
				row[i] = storage.Bool(strings.EqualFold(strings.TrimSpace(cell), "true"))
			}
		}
		if err := db.InsertRow(table, row); err != nil {
			return err
		}
		count++
	}
	log.Printf("loaded table %s: %d rows", table, count)
	return nil
}
