// Command kyrix-bench regenerates the paper's evaluation (§3.3 of the
// paper named in PAPER.md, Figures 6 and 7) and the ablations A1..A5
// documented on each Ablation* function in internal/experiments, and
// drives the multi-node experiments the single-node benchmark in bench/
// leaves out.
//
//	kyrix-bench -fig 6            # Figure 6 (Uniform)
//	kyrix-bench -fig 7            # Figure 7 (Skewed)
//	kyrix-bench -fig all          # everything, plus the shape report
//	kyrix-bench -fig A3 -scale quick
//	kyrix-bench -clients 1,4,16 -nodes 2   # cluster client sweep
//
// -scale selects the workload size: quick (CI), default (laptop: the
// paper's density proportions at 1/100 the row count), paper (the
// original 100M-dot setup; very slow).
//
// -clients switches to the client sweep: N parallel frontends replay
// zipf-hot-set pan traces over dynamic boxes (dbox 50%, no tile
// batching, frontend cache off) against an in-process serving cluster
// of -nodes nodes whose backend caches hold 1 MiB each, so the hot set
// does not fit one node. Clients round-robin across the nodes
// (consistent-hash tile ownership with peer cache fill). The table
// reports steps/s, mean/p50/p95 ms, cluster-wide db-queries per step,
// aggregate hit% and fill%, plus per-node hit%/fill%/dbq columns,
// followed by the per-stage latency table scraped from node 0's
// /metrics. -steps sets the pan steps per client. `-nodes 1` is the
// standalone baseline through the same harness; `-nodes 2` is the
// scaling demonstration: cluster-wide db-queries per step drop below
// the baseline because each key is filled by exactly one owner and the
// aggregate cache capacity doubles.
//
// -restart runs the cold-start experiment instead: a first boot
// serving a zipf hot set, a full restart (fresh DB, re-run precompute,
// empty L1) over the same persistent tile store (L2) directory
// replaying the identical trace, and the no-L2 baseline for
// comparison. -l2dir names that directory (a temp dir when empty).
//
// -failover runs the replicated-update availability experiment: a
// 3-node cluster with the quorum-committed update log serves a tile
// stream with interleaved updates, the leader is killed mid-run, and
// the survivors carry on. The table reports per-phase tile p50/p95,
// the re-election window, and updatesLost (contractually 0).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"kyrix/internal/experiments"
	"kyrix/internal/obs"
)

func main() {
	fig := flag.String("fig", "all", "which figure/ablation to run: 4|5|6|7|A1|A2|A3|A4|A5|all")
	scale := flag.String("scale", "default", "workload scale: quick | default | paper")
	runs := flag.Int("runs", 0, "override the number of runs per series (0 = config default)")
	clients := flag.String("clients", "", "client-sweep mode: comma-separated client counts (e.g. 1,4,16); replaces the figure runs")
	steps := flag.Int("steps", 12, "pan steps per client in the client sweep (with -restart/-failover: steps per phase)")
	nodes := flag.Int("nodes", 1, "client-sweep mode: serving-cluster size (clients round-robin across nodes; 1 = standalone baseline through the same harness)")
	l2dir := flag.String("l2dir", "", "-restart: the persistent tile store (L2) directory (a temp dir when empty)")
	restart := flag.Bool("restart", false, "run the restart cold-start experiment: first boot vs L2-warm restart over the same zipf trace, plus the no-L2 baseline")
	failover := flag.Bool("failover", false, "run the replicated-update failover experiment: 3-node cluster, leader killed mid-run, steady vs failover tile p50 and zero-loss audit")
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
		// -steps keeps its client-sweep default of 12; only an explicit
		// value overrides the restart window of 100.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "steps" {
				ropts.Steps = *steps
			}
		})
		for _, l2 := range []string{dir, ""} {
			ropts.L2Dir = l2
			res, err := experiments.RestartExperiment(cfg, ropts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(res.Format())
		}
		return
	}

	if *failover {
		fopts := experiments.DefaultFailoverOptions()
		// -steps keeps its client-sweep default of 12; only an explicit
		// value overrides the failover window of 200.
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
		cfg.BackendCacheBytes = experiments.SweepCacheBytes
		cenv := buildClusterEnv(cfg, *nodes)
		defer cenv.Close()
		t, _, err := experiments.ClusterRun(cenv, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(t.Format())
		// Node 0 is the stage breakdown sample.
		stages, err := experiments.ScrapeStages(cenv.Nodes[0].BaseURL)
		if err != nil {
			log.Printf("kyrix-bench: stage scrape failed: %v", err)
		} else {
			printStages(stages)
		}
		return
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

func buildClusterEnv(cfg experiments.Config, n int) *experiments.ClusterEnv {
	log.Printf("building %d-node uniform cluster (%d points per node, canvas %gx%g)...",
		n, cfg.NumPoints, cfg.CanvasW, cfg.CanvasH)
	start := time.Now()
	cenv, err := experiments.NewClusterEnv(cfg, "uniform", n)
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
