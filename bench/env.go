package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"kyrix/internal/fetch"
	"kyrix/internal/server"
	"kyrix/internal/spec"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
	"kyrix/internal/workload"
)

// pointRadius is the rendered half-extent of a dot; the reference in
// verify.go uses the same number.
const pointRadius = 1.0

// env is one loaded dataset behind a running backend on loopback HTTP.
type env struct {
	DB      *sqldb.DB
	CA      *spec.CompiledApp
	Srv     *server.Server
	BaseURL string
	// LoadS and PrecomputeS are the two parts of set-up: rows into
	// sqldb, then server.New (indexes, pyramid, stores).
	LoadS, PrecomputeS, SetupS float64

	// conns counts TCP connections the listener accepted.
	conns atomic.Int64

	dir  string
	hsrv *http.Server
}

// newEnv is the timed set-up: data load + server.New precompute +
// listener ready. wrap, when non-nil, wraps the server's handler (the
// traced pass spans every ServeHTTP through it). tmpRoot holds the L2
// store and the update log of durable workloads.
func newEnv(sp wlSpec, d *workload.Dataset, tracing bool, wrap func(http.Handler) http.Handler, tmpRoot string) (*env, error) {
	start := time.Now()
	e := &env{}
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
	e.LoadS = time.Since(start).Seconds()

	reg := spec.NewRegistry()
	reg.RegisterRenderer("dots")
	lod := ""
	if sp.LOD {
		lod = "auto"
	}
	app := &spec.App{
		Name: "bench",
		Canvases: []spec.Canvas{{
			ID: "main", W: d.CanvasW, H: d.CanvasH,
			Transforms: []spec.Transform{{
				ID: "pts", Query: "SELECT * FROM points",
				Columns: []spec.ColumnSpec{
					{Name: "id", Type: "int"}, {Name: "x", Type: "double"},
					{Name: "y", Type: "double"}, {Name: "val", Type: "double"},
				},
			}},
			Layers: []spec.Layer{{
				TransformID: "pts",
				Placement:   &spec.Placement{XCol: "x", YCol: "y", Radius: pointRadius},
				Renderer:    "dots",
				LOD:         lod,
			}},
		}},
		InitialCanvas: "main",
		InitialX:      d.CanvasW / 2, InitialY: d.CanvasH / 2,
		ViewportW: viewport, ViewportH: viewport,
	}
	ca, err := spec.Compile(app, reg)
	if err != nil {
		return nil, err
	}
	opts := server.Options{
		Cache: server.CacheOptions{L1: server.L1CacheOptions{Bytes: sp.L1Bytes, Admission: "lfu"}},
		Obs:   server.ObsOptions{DisableTracing: !tracing},
		// Only the spatial design is exercised; no tuple–tile mapping
		// tables are built.
		Precompute: fetch.Options{BuildSpatial: true},
	}
	if sp.Durable {
		if e.dir, err = os.MkdirTemp(tmpRoot, "env-*"); err != nil {
			return nil, err
		}
		opts.Cache.L2 = server.L2CacheOptions{Path: filepath.Join(e.dir, "l2"), MaxBytes: 256 << 20}
		opts.Cluster.Replog.Dir = filepath.Join(e.dir, "replog")
	}
	preStart := time.Now()
	srv, err := server.New(db, ca, opts)
	if err != nil {
		e.close()
		return nil, err
	}
	e.PrecomputeS = time.Since(preStart).Seconds()
	e.DB, e.CA, e.Srv = db, ca, srv

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	e.hsrv = &http.Server{Handler: h, ConnState: func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			e.conns.Add(1)
		}
	}}
	go func() { _ = e.hsrv.Serve(ln) }()
	e.BaseURL = "http://" + ln.Addr().String()
	e.SetupS = time.Since(start).Seconds()
	return e, nil
}

// close stops the listener (Shutdown returns once the Serve goroutine's
// listener is closed and connections are idle), then the server's own
// background work, then removes the env's files.
func (e *env) close() {
	if e.hsrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := e.hsrv.Shutdown(ctx); err != nil {
			_ = e.hsrv.Close()
		}
		cancel()
	}
	if e.Srv != nil {
		_ = e.Srv.Close()
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}
