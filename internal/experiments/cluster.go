package experiments

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"kyrix/internal/cache"
	"kyrix/internal/frontend"
	"kyrix/internal/server"
	"kyrix/internal/workload"
)

// ClusterEnv is an in-process serving cluster: N backend nodes over
// identical copies of one dataset (the stand-in for a shared backing
// store), joined on one consistent-hash ring. Clients spread across
// the nodes like a load balancer would spread real traffic. Nodes can
// be stopped and restarted individually (StopNode/RestartNode) — the
// fault-injection surface the chaos and failover experiments drive.
type ClusterEnv struct {
	Cfg     Config
	Dataset *workload.Dataset
	Nodes   []*Env

	// URLs[i] is node i's base URL for its whole lifetime — a restarted
	// node rebinds the same address, so the ring and replog membership
	// stay valid across crash/restart cycles.
	URLs    []string
	copts   []server.ClusterOptions
	tmpLogs string // log root created for want of Cfg.ReplogRoot; Close removes it
}

// NewClusterEnv builds an n-node cluster (n = 1 builds a standalone
// baseline node through the same code path, so 1-node and N-node runs
// are directly comparable). Listeners are created first: every node
// must know the full peer list — its own Self URL included — before
// any server exists. A cluster needs a replicated update log; without
// Cfg.ReplogRoot the logs go to a temporary directory Close removes.
// Cfg.L2Dir is refused for n > 1: the persistent store takes no
// directory lock, and n nodes over one directory would run n
// write-behind writers over one segment set.
func NewClusterEnv(cfg Config, kind string, n int) (*ClusterEnv, error) {
	if n <= 0 {
		return nil, fmt.Errorf("experiments: cluster of %d nodes", n)
	}
	if cfg.L2Dir != "" && n > 1 {
		return nil, fmt.Errorf("experiments: %d nodes cannot share one L2 directory", n)
	}
	d, err := newDataset(cfg, kind)
	if err != nil {
		return nil, err
	}
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("experiments: cluster listen: %w", err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	ce := &ClusterEnv{Cfg: cfg, Dataset: d, URLs: urls}
	logRoot := cfg.ReplogRoot
	if logRoot == "" && n > 1 {
		if logRoot, err = os.MkdirTemp("", "kyrix-replog-"); err != nil {
			for _, ln := range lns {
				_ = ln.Close()
			}
			return nil, fmt.Errorf("experiments: replog dir: %w", err)
		}
		ce.tmpLogs = logRoot
	}
	for i := 0; i < n; i++ {
		var copts server.ClusterOptions
		if logRoot != "" {
			copts = server.ClusterOptions{
				Self:        urls[i],
				Peers:       urls,
				PeerTimeout: 5 * time.Second,
				// Chaos-friendly timings: elections settle in well under
				// a second, and a dead peer's breaker reprobes fast
				// enough that a restarted node rejoins within one test
				// timeout.
				BreakerCooldown: 200 * time.Millisecond,
			}
			copts.Replog = server.ReplogOptions{
				Dir:             filepath.Join(logRoot, fmt.Sprintf("node%d", i)),
				ElectionTimeout: 100 * time.Millisecond,
				SubmitTimeout:   5 * time.Second,
			}
		}
		ce.copts = append(ce.copts, copts)
		env, err := newEnv(cfg, d, copts, lns[i])
		if err != nil {
			ce.Close()
			for j := i; j < n; j++ {
				_ = lns[j].Close()
			}
			return nil, err
		}
		ce.Nodes = append(ce.Nodes, env)
	}
	return ce, nil
}

// StopNode kills node i: HTTP drain, replog close (WAL fsynced), store
// close. The node's WAL directories survive — RestartNode is a crash
// recovery, not a fresh join.
func (ce *ClusterEnv) StopNode(i int) {
	ce.Nodes[i].Close()
}

// RestartNode boots node i again on its original address over a fresh
// copy of the dataset; the replicated log replays its committed prefix
// on top, so the node rejoins with every committed update applied. The
// listen is retried briefly: the dying server's socket may still be in
// the kernel's grip for a moment after Close returns.
func (ce *ClusterEnv) RestartNode(i int) error {
	addr := ce.Nodes[i].BaseURL[len("http://"):]
	var ln net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("experiments: rebind %s: %w", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	env, err := newEnv(ce.Cfg, ce.Dataset, ce.copts[i], ln)
	if err != nil {
		_ = ln.Close()
		return err
	}
	ce.Nodes[i] = env
	return nil
}

// Close shuts every node down (graceful drain per node; stopped nodes
// close idempotently) and removes a log directory the env created.
func (ce *ClusterEnv) Close() {
	for _, e := range ce.Nodes {
		e.Close()
	}
	if ce.tmpLogs != "" {
		_ = os.RemoveAll(ce.tmpLogs)
	}
}

// nodeCounters is one node's counter snapshot (taken before and after
// the measured window).
type nodeCounters struct {
	dbq, scanned, fills, serves, fallbacks, hot int64
	bc                                          cache.Stats
}

func snapshotNode(e *Env) nodeCounters {
	nc := nodeCounters{
		dbq:     e.Srv.Stats.DBQueries.Load(),
		scanned: e.DB.Stats().RowsScanned,
		bc:      e.Srv.BackendCache().Stats(),
	}
	if cn := e.Srv.Cluster(); cn != nil {
		nc.fills = cn.Stats.PeerFills.Load()
		nc.serves = cn.Stats.PeerServes.Load()
		nc.fallbacks = cn.Stats.LocalFallbacks.Load()
		nc.hot = cn.Stats.HotReplicas.Load()
	}
	return nc
}

// ClusterRun measures the cluster under N parallel frontends spread
// round-robin across the nodes; a 1-node ClusterEnv is the standalone
// baseline through the same harness. The table carries aggregate
// hit%% and fill%% plus per-node hit%%/fill%%/dbq columns; the
// returned rows carry the same per-node stats. Caches are cleared on
// every node before each client count so rows are comparable cold
// starts.
func ClusterRun(ce *ClusterEnv, opts ConcurrentOptions) (*Table, []ConcurrentRowStats, error) {
	if len(opts.ClientCounts) == 0 || opts.StepsPerClient <= 0 {
		return nil, nil, fmt.Errorf("experiments: cluster run needs client counts and steps")
	}
	nNodes := len(ce.Nodes)
	rows := make([]string, len(opts.ClientCounts))
	for i, n := range opts.ClientCounts {
		rows[i] = fmt.Sprintf("%d clients", n)
	}
	cols := []string{"steps/s", "mean ms", "p50 ms", "p95 ms", "dbq/step", "hit%", "fill%"}
	for j := 0; j < nNodes; j++ {
		cols = append(cols,
			fmt.Sprintf("n%d hit%%", j),
			fmt.Sprintf("n%d fill%%", j),
			fmt.Sprintf("n%d dbq", j))
	}
	t := NewTable(
		fmt.Sprintf("Cluster: %d nodes, %s over %q (%s workload)", nNodes, opts.Scheme.Name(), ce.Cfg.Name, opts.Workload),
		"mixed units, see columns", rows, cols)
	t.Notes = append(t.Notes,
		fmt.Sprintf("steps/client=%d batch=%d; clients round-robin across nodes; all caches cleared per row",
			opts.StepsPerClient, opts.BatchSize),
		"dbq/step: database queries per measured step summed over ALL nodes — the cluster-wide cost the ring exists to cut",
		"fill%: peer fills / (peer fills + db queries) — the fraction of cache fills served by the owning peer instead of a database",
		"n<i> columns: the same metrics per node (n<i> dbq is that node's queries per cluster-wide step)")

	var stats []ConcurrentRowStats
	for _, n := range opts.ClientCounts {
		row := fmt.Sprintf("%d clients", n)
		for _, e := range ce.Nodes {
			e.Srv.BackendCache().Clear()
		}

		traces, err := buildTraces(ce.Nodes[0], opts, n)
		if err != nil {
			return nil, nil, err
		}

		before := make([]nodeCounters, nNodes)
		sweep, err := runClientSweep(traces, opts, func(i int) (*frontend.Client, error) {
			// Round-robin node assignment — the load balancer. The
			// frontend cache is off: the hit-ratio column measures the
			// backend policy, and a frontend cache would absorb the very
			// revisits the zipf workload exists to produce.
			node := ce.Nodes[i%nNodes]
			return frontend.NewClient(node.BaseURL, node.CA, frontend.Options{
				Scheme:    opts.Scheme,
				Codec:     server.CodecJSON,
				BatchSize: opts.BatchSize,
			})
		}, func() {
			for j, e := range ce.Nodes {
				before[j] = snapshotNode(e)
			}
		})
		if err != nil {
			return nil, nil, err
		}
		steps := sweep.steps

		var nodeStats []NodeRowStats
		var totalDbq, totalFills, totalScanned float64
		var hitsDelta, missesDelta int64
		for j, e := range ce.Nodes {
			after := snapshotNode(e)
			dbq := float64(after.dbq - before[j].dbq)
			fills := float64(after.fills - before[j].fills)
			bcDelta := cache.Stats{
				Hits:   after.bc.Hits - before[j].bc.Hits,
				Misses: after.bc.Misses - before[j].bc.Misses,
			}
			hitsDelta += bcDelta.Hits
			missesDelta += bcDelta.Misses
			totalDbq += dbq
			totalFills += fills
			totalScanned += float64(after.scanned - before[j].scanned)
			fillRatio := 0.0
			if fills+dbq > 0 {
				fillRatio = fills / (fills + dbq)
			}
			nodeStats = append(nodeStats, NodeRowStats{
				Node:           e.BaseURL,
				HitRatio:       bcDelta.HitRatio(),
				PeerFillRatio:  fillRatio,
				DbqPerStep:     dbq / steps,
				PeerFills:      after.fills - before[j].fills,
				PeerServes:     after.serves - before[j].serves,
				LocalFallbacks: after.fallbacks - before[j].fallbacks,
				HotReplicas:    after.hot - before[j].hot,
			})
		}
		aggHit := cache.Stats{Hits: hitsDelta, Misses: missesDelta}.HitRatio()
		aggFill := 0.0
		if totalFills+totalDbq > 0 {
			aggFill = totalFills / (totalFills + totalDbq)
		}

		rs := sweep.rowStats(n)
		rs.DbqPerStep = totalDbq / steps
		rs.RowsScannedPerStep = totalScanned / steps
		rs.HitRatio = aggHit
		rs.Nodes = nodeStats
		stats = append(stats, rs)

		t.Set(row, "steps/s", rs.StepsPerSec, Series{})
		t.Set(row, "mean ms", rs.MeanMs, Series{})
		t.Set(row, "p50 ms", rs.P50Ms, Series{})
		t.Set(row, "p95 ms", rs.P95Ms, Series{})
		t.Set(row, "dbq/step", rs.DbqPerStep, Series{})
		t.Set(row, "hit%", 100*aggHit, Series{})
		t.Set(row, "fill%", 100*aggFill, Series{})
		for j, ns := range nodeStats {
			t.Set(row, fmt.Sprintf("n%d hit%%", j), 100*ns.HitRatio, Series{})
			t.Set(row, fmt.Sprintf("n%d fill%%", j), 100*ns.PeerFillRatio, Series{})
			t.Set(row, fmt.Sprintf("n%d dbq", j), ns.DbqPerStep, Series{})
		}
	}
	return t, stats, nil
}
