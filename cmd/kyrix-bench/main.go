// Command kyrix-bench regenerates the paper's evaluation tables and the
// ablations indexed in DESIGN.md §4.
//
//	kyrix-bench -fig 6            # Figure 6 (Uniform)
//	kyrix-bench -fig 7            # Figure 7 (Skewed)
//	kyrix-bench -fig all          # everything, plus the shape report
//	kyrix-bench -fig A3 -scale quick
//	kyrix-bench -clients 1,4,16   # concurrent-clients throughput sweep
//
// -scale selects the workload size: quick (CI), default (laptop,
// DESIGN.md §5 mapping), paper (the original 100M-dot setup; very
// slow).
//
// -clients switches to concurrent-clients mode: N parallel frontends
// replay viewport traces against one backend, measuring throughput
// (steps/s), latency (mean/p50/p95), and how far the serving pipeline
// (sharded cache, request coalescing, batched tile fetch) cuts
// database queries per step. -steps and -batch tune the workload and
// -comp toggles per-frame compression; the table reports wireKB/step,
// time-to-first-frame and the wire/raw compression ratio.
//
// -workload selects the trace shape: walk (random pans, the default),
// zipf (zipf-hot-set pan/zoom — clients share a skewed hot set), scan
// (one-shot sequential canvas sweep), mixed (zipf tenants plus a
// scanning tenant — the cache-admission adversary) or zoom (zipf-zoom
// in/out around hot centers — the auto-LOD case). -admission picks
// the backend cache policy (lfu = W-TinyLFU admission, off = plain
// sharded LRU); the hit% column and hitRatio JSON field make the two
// directly comparable on the same trace.
//
// -nodes N runs the sweep against an in-process serving cluster of N
// nodes (consistent-hash tile ownership with peer cache fill); clients
// round-robin across the nodes and the table gains aggregate fill%
// plus per-node hit%/fill%/dbq columns. `-nodes 2 -workload zipf
// -cachemb 1` is the scaling demonstration: cluster-wide db-queries
// per step drop below the 1-node baseline because each key is filled
// by exactly one owner and the aggregate cache capacity doubles.
//
// -lod declares the point layer "lod": "auto", so precompute builds the
// aggregation pyramid and zoomed-out windows serve bounded aggregate
// rows. -lodsweep runs the bounded-row demonstration instead: the same
// zoom workload at 1x and 10x dataset scale, with and without -lod
// deciding the knob, writing rowsScannedPerStep and p50 per size to the
// -json artifact — flat with LOD on, linear growth with it off.
//
// -l2dir enables the persistent tile store (the on-disk L2 under the
// backend cache) at that directory. -restart runs the cold-start
// experiment instead: a first boot serving a zipf hot set, a full
// restart (fresh DB, re-run precompute, empty L1) over the same L2
// directory replaying the identical trace, and the no-L2 baseline for
// comparison; with -json it writes BENCH_restart_l2.json and
// BENCH_restart_cold.json (dbQueriesToWarm and p50FirstStepsMs per
// phase).
//
// -failover runs the replicated-update availability experiment: a
// 3-node cluster with the quorum-committed update log serves a tile
// stream with interleaved updates, the leader is killed mid-run, and
// the survivors carry on. The table reports per-phase tile p50/p95,
// the re-election window, and updatesLost (contractually 0); with
// -json it writes BENCH_failover.json.
//
// -json writes the concurrent-mode results to BENCH_<label>.json
// (label from -label) so the perf trajectory is machine-readable
// across PRs: wireKB/step, ttff ms, p50/p95 latency, compression
// ratio and backend-cache hit ratio per client count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"kyrix/internal/experiments"
	"kyrix/internal/fetch"
	"kyrix/internal/frontend"
	"kyrix/internal/obs"
	"kyrix/internal/server"
)

func main() {
	fig := flag.String("fig", "all", "which figure/ablation to run: 4|5|6|7|A1|A2|A3|A4|A5|all")
	scale := flag.String("scale", "default", "workload scale: quick | default | paper")
	runs := flag.Int("runs", 0, "override the number of runs per series (0 = config default)")
	clients := flag.String("clients", "", "concurrent-clients mode: comma-separated client counts (e.g. 1,4,16); replaces the figure runs")
	steps := flag.Int("steps", 12, "pan steps per client in concurrent-clients mode")
	batch := flag.Int("batch", 8, "frontend tile batch size in concurrent-clients mode (0 = per-tile GETs)")
	comp := flag.Bool("comp", true, "per-frame compression in concurrent-clients mode (false asks for raw frames)")
	scheme := flag.String("scheme", "tile", "fetching scheme in concurrent-clients mode: tile (spatial 1024) or dbox (dbox 50% — the pan/zoom workload delta frames target)")
	workloadKind := flag.String("workload", "walk", "concurrent-clients trace shape: walk | zipf | scan | mixed | zoom (zipf/scan/mixed are the cache-admission adversaries; zoom is the auto-LOD case)")
	lod := flag.Bool("lod", false, "declare the point layer lod \"auto\": precompute builds the aggregation pyramid and zoomed-out windows serve bounded aggregate rows")
	lodSweep := flag.Bool("lodsweep", false, "run the bounded-row sweep: the zoom workload at 1x and 10x dataset scale (with -lod deciding the knob); writes rowsScannedPerStep per size with -json")
	nodes := flag.Int("nodes", 1, "concurrent-clients mode: run an in-process serving cluster of N nodes (clients round-robin across nodes; 1 = standalone baseline through the same harness)")
	admission := flag.String("admission", "lfu", "backend cache admission policy: lfu (W-TinyLFU) | off (plain sharded LRU)")
	cacheMB := flag.Int("cachemb", 0, "override the backend cache budget in MB (0 = config default; shrink it so the zipf/scan workloads actually contend the budget)")
	codec := flag.String("codec", "", "override the wire codec (json | binary; default from -scale config)")
	jsonOut := flag.Bool("json", false, "concurrent-clients mode: also write the results to BENCH_<label>.json (including the final per-stage /metrics quantiles)")
	slowDump := flag.Bool("slowdump", false, "concurrent-clients mode: dump the backend's flight recorder (/debug/requests — the N slowest and most recent traces) to BENCH_slow_<label>.json after the sweep")
	label := flag.String("label", "", "label for the -json artifact (default from the client counts)")
	l2dir := flag.String("l2dir", "", "enable the persistent tile store (L2) at this directory; -restart uses a temp dir when empty")
	restart := flag.Bool("restart", false, "run the restart cold-start experiment: first boot vs L2-warm restart over the same zipf trace, plus the no-L2 baseline; -json writes BENCH_restart_l2.json and BENCH_restart_cold.json")
	failover := flag.Bool("failover", false, "run the replicated-update failover experiment: 3-node cluster, leader killed mid-run, steady vs failover tile p50 and zero-loss audit; -json writes BENCH_failover.json")
	flag.Parse()

	var cfg experiments.Config
	switch *scale {
	case "quick":
		cfg = experiments.QuickConfig()
	case "default":
		cfg = experiments.DefaultConfig()
	case "paper":
		cfg = experiments.PaperConfig()
	default:
		log.Fatalf("unknown -scale %q", *scale)
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	switch *codec {
	case "":
	case "json", "binary":
		cfg.Codec = server.Codec(*codec)
	default:
		log.Fatalf("unknown -codec %q", *codec)
	}

	switch *admission {
	case "lfu", "off":
		cfg.CacheAdmission = *admission
	default:
		log.Fatalf("unknown -admission %q", *admission)
	}
	if *cacheMB > 0 {
		cfg.BackendCacheBytes = int64(*cacheMB) << 20
	}
	cfg.LOD = *lod
	cfg.L2Dir = *l2dir

	if *restart {
		dir := *l2dir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "kyrix-l2-*")
			if err != nil {
				log.Fatal(err)
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		ropts := experiments.DefaultRestartOptions(dir)
		ropts.BatchSize = *batch
		// -steps keeps its concurrent-mode default of 12; only an
		// explicit value overrides the restart window of 100.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "steps" {
				ropts.Steps = *steps
			}
		})
		for _, variant := range []struct {
			l2dir, artifact string
		}{{dir, "restart_l2"}, {"", "restart_cold"}} {
			ropts.L2Dir = variant.l2dir
			res, err := experiments.RestartExperiment(cfg, ropts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(res.Format())
			if *jsonOut {
				data, err := json.MarshalIndent(res, "", "  ")
				if err != nil {
					log.Fatal(err)
				}
				path := "BENCH_" + variant.artifact + ".json"
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					log.Fatal(err)
				}
				log.Printf("wrote %s", path)
			}
		}
		return
	}

	if *failover {
		fopts := experiments.DefaultFailoverOptions()
		// -steps keeps its concurrent-mode default of 12; only an
		// explicit value overrides the failover window of 200.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "steps" {
				fopts.StepsPerPhase = *steps
			}
		})
		res, err := experiments.FailoverExperiment(cfg, fopts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Format())
		if *jsonOut {
			data, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile("BENCH_failover.json", append(data, '\n'), 0o644); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote BENCH_failover.json")
		}
		return
	}

	if *lodSweep {
		stats, err := experiments.LODSweep(experiments.LODSweepOptions{
			Base:           cfg,
			StepsPerClient: *steps,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, rs := range stats {
			fmt.Printf("points=%-10d clients=%d rows-scanned/step=%-10.1f p50=%.2fms mean=%.2fms dbq/step=%.2f\n",
				rs.NumPoints, rs.Clients, rs.RowsScannedPerStep, rs.P50Ms, rs.MeanMs, rs.DbqPerStep)
		}
		if *jsonOut {
			opts := experiments.ConcurrentOptions{Workload: "zoom", StepsPerClient: *steps, Scheme: fetch.DBox50}
			lbl := *label
			if lbl == "" {
				lbl = fmt.Sprintf("lod_%s", map[bool]string{true: "on", false: "off"}[*lod])
			}
			if err := writeBenchJSON(lbl, *scale, "4", *admission, 1, opts, stats, nil); err != nil {
				log.Fatal(err)
			}
		}
		return
	}

	if *clients != "" {
		counts, err := parseCounts(*clients)
		if err != nil {
			log.Fatal(err)
		}
		opts := experiments.DefaultConcurrentOptions()
		opts.ClientCounts = counts
		opts.StepsPerClient = *steps
		opts.BatchSize = *batch
		opts.Workload = *workloadKind
		if !*comp {
			opts.Compression = frontend.CompressionOff
		}
		switch *scheme {
		case "tile":
		case "dbox":
			opts.Scheme = fetch.DBox50
		default:
			log.Fatalf("unknown -scheme %q", *scheme)
		}
		var t *experiments.Table
		var stats []experiments.ConcurrentRowStats
		var scrapeURL string // node 0 in cluster mode — the stage breakdown sample
		if *nodes > 1 {
			// Cluster mode: N in-process nodes over one dataset, the
			// multi-node counterpart of the concurrent sweep. The
			// single-backend path below stays untouched so historical
			// BENCH artifacts remain comparable.
			cenv := buildClusterEnv(cfg, "uniform", *nodes)
			defer cenv.Close()
			t, stats, err = experiments.ClusterRun(cenv, opts)
			scrapeURL = cenv.Nodes[0].BaseURL
		} else {
			env := buildEnv(cfg, "uniform")
			defer env.Close()
			t, stats, err = experiments.ConcurrentClients(env, opts)
			scrapeURL = env.BaseURL
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(t.Format())
		stages, err := experiments.ScrapeStages(scrapeURL)
		if err != nil {
			log.Printf("kyrix-bench: stage scrape failed: %v", err)
		} else {
			printStages(stages)
		}
		lbl := *label
		if lbl == "" {
			lbl = defaultLabel(*clients, *admission, *nodes, opts)
		}
		if *jsonOut {
			if err := writeBenchJSON(lbl, *scale, *clients, *admission, *nodes, opts, stats, stages); err != nil {
				log.Fatal(err)
			}
		}
		if *slowDump {
			if err := dumpSlowRequests(scrapeURL, lbl); err != nil {
				log.Fatal(err)
			}
		}
		return
	}
	if *jsonOut {
		log.Fatal("kyrix-bench: -json requires -clients (the concurrent sweep is the machine-readable surface)")
	}

	want := func(name string) bool { return *fig == "all" || strings.EqualFold(*fig, name) }
	ran := false

	// Figure 5 is derived (no DB needed).
	if want("5") {
		ran = true
		for _, kind := range []string{"uniform", "skewed"} {
			out, err := experiments.Figure5(cfg, kind)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(out)
		}
	}

	var uniEnv, skewEnv *experiments.Env
	needUni := want("4") || want("6") || want("A1") || want("A2") || want("A3") || want("A5")
	needSkew := want("7")
	if needUni {
		uniEnv = buildEnv(cfg, "uniform")
		defer uniEnv.Close()
	}
	if needSkew {
		skewEnv = buildEnv(cfg, "skewed")
		defer skewEnv.Close()
	}

	var fig6, fig7 *experiments.Table
	if want("6") {
		ran = true
		t, err := experiments.FigureSchemes(uniEnv, "Figure 6: average response times on Uniform")
		if err != nil {
			log.Fatal(err)
		}
		fig6 = t
		fmt.Println(t.Format())
	}
	if want("7") {
		ran = true
		t, err := experiments.FigureSchemes(skewEnv, "Figure 7: average response times on Skewed")
		if err != nil {
			log.Fatal(err)
		}
		fig7 = t
		fmt.Println(t.Format())
	}
	if fig6 != nil && fig7 != nil {
		fmt.Println("Shape report (paper §3.3 Results):")
		for _, line := range experiments.ShapeReport(fig6, fig7) {
			fmt.Println(" ", line)
		}
		fmt.Println()
	}
	if want("4") {
		ran = true
		t, err := experiments.Figure4(uniEnv)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(t.Format())
	}
	type ablation struct {
		name string
		run  func() (*experiments.Table, error)
	}
	ablations := []ablation{
		{"A1", func() (*experiments.Table, error) { return experiments.AblationInflation(uniEnv) }},
		{"A2", func() (*experiments.Table, error) { return experiments.AblationCache(uniEnv) }},
		{"A3", func() (*experiments.Table, error) { return experiments.AblationPrefetch(uniEnv) }},
		{"A4", func() (*experiments.Table, error) { return experiments.AblationSeparability(cfg) }},
		{"A5", func() (*experiments.Table, error) { return experiments.AblationCodec(uniEnv) }},
	}
	for _, a := range ablations {
		if !want(a.name) {
			continue
		}
		ran = true
		t, err := a.run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(t.Format())
	}

	if !ran {
		fmt.Fprintf(os.Stderr, "kyrix-bench: unknown -fig %q\n", *fig)
		os.Exit(2)
	}
}

// benchArtifact is the BENCH_<label>.json shape: enough run context to
// interpret the rows, plus the machine-readable sweep itself.
type benchArtifact struct {
	Label     string                           `json:"label"`
	Mode      string                           `json:"mode"`
	Scale     string                           `json:"scale"`
	Clients   string                           `json:"clients"`
	Steps     int                              `json:"stepsPerClient"`
	Batch     int                              `json:"batchSize"`
	Scheme    string                           `json:"scheme"`
	Workload  string                           `json:"workload"`
	Admission string                           `json:"admission"`
	Nodes     int                              `json:"nodes,omitempty"`
	Rows      []experiments.ConcurrentRowStats `json:"rows"`
	// Stages is the final /metrics scrape folded into per-stage latency
	// quantiles (kyrix_stage_duration_seconds by stage label) — where
	// serving time went across the whole sweep. Node 0 in cluster mode.
	Stages map[string]obs.StageQuantiles `json:"stages,omitempty"`
}

// defaultLabel derives the BENCH artifact label when -label is unset.
func defaultLabel(clients, admission string, nodes int, opts experiments.ConcurrentOptions) string {
	workloadName := opts.Workload
	if workloadName == "" {
		workloadName = "walk"
	}
	label := "clients" + strings.ReplaceAll(clients, ",", "-")
	if workloadName != "walk" {
		label = fmt.Sprintf("%s_%s_%s", label, workloadName, admission)
	}
	if nodes > 1 {
		label = fmt.Sprintf("%s_%dnode", label, nodes)
	}
	return label
}

// printStages renders the post-sweep stage breakdown, slowest first.
func printStages(stages map[string]obs.StageQuantiles) {
	if len(stages) == 0 {
		return
	}
	names := make([]string, 0, len(stages))
	for name := range stages {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		return stages[names[i]].P95Ms > stages[names[j]].P95Ms
	})
	fmt.Println("Per-stage latency over the sweep (/metrics histograms):")
	for _, name := range names {
		q := stages[name]
		fmt.Printf("  %-12s n=%-7d p50=%8.3fms  p95=%8.3fms  p99=%8.3fms\n",
			name, q.Count, q.P50Ms, q.P95Ms, q.P99Ms)
	}
	fmt.Println()
}

// dumpSlowRequests writes the backend's flight recorder snapshot (the
// raw /debug/requests JSON) next to the BENCH artifact.
func dumpSlowRequests(baseURL, label string) error {
	resp, err := http.Get(baseURL + "/debug/requests")
	if err != nil {
		return fmt.Errorf("kyrix-bench: fetch /debug/requests: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("kyrix-bench: /debug/requests: %s", resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	path := "BENCH_slow_" + label + ".json"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s", path)
	return nil
}

func writeBenchJSON(label, scale, clients, admission string, nodes int, opts experiments.ConcurrentOptions, stats []experiments.ConcurrentRowStats, stages map[string]obs.StageQuantiles) error {
	workloadName := opts.Workload
	if workloadName == "" {
		workloadName = "walk"
	}
	mode := "concurrent"
	if nodes > 1 {
		mode = "cluster"
	}
	if label == "" {
		label = defaultLabel(clients, admission, nodes, opts)
	}
	art := benchArtifact{
		Label: label, Mode: mode, Scale: scale, Clients: clients,
		Steps: opts.StepsPerClient, Batch: opts.BatchSize,
		Scheme: opts.Scheme.Name(), Workload: workloadName, Admission: admission,
		Nodes: nodes, Rows: stats, Stages: stages,
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	path := "BENCH_" + label + ".json"
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s", path)
	return nil
}

func parseCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("kyrix-bench: bad -clients entry %q", part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

func buildClusterEnv(cfg experiments.Config, kind string, n int) *experiments.ClusterEnv {
	log.Printf("building %d-node %s cluster (%d points per node, canvas %gx%g)...",
		n, kind, cfg.NumPoints, cfg.CanvasW, cfg.CanvasH)
	start := time.Now()
	cenv, err := experiments.NewClusterEnv(cfg, kind, n)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("cluster ready in %v (load + both database designs on every node)", time.Since(start).Round(time.Millisecond))
	return cenv
}

func buildEnv(cfg experiments.Config, kind string) *experiments.Env {
	log.Printf("building %s environment (%d points, canvas %gx%g)...",
		kind, cfg.NumPoints, cfg.CanvasW, cfg.CanvasH)
	start := time.Now()
	env, err := experiments.NewEnv(cfg, kind)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%s environment ready in %v (load + both database designs)", kind, time.Since(start).Round(time.Millisecond))
	return env
}
