package experiments

import (
	"sync"
	"testing"

	"kyrix/internal/fetch"
)

// smokeConfig is a small-but-contended setup: enough dataset that the
// zipf hot set does not fit one node's SweepCacheBytes backend cache,
// so the 2-node cluster's doubled aggregate capacity (plus single-fill
// ownership) shows up as fewer database queries per step.
func smokeConfig() Config {
	cfg := QuickConfig()
	cfg.Name = "cluster-smoke"
	cfg.NumPoints = 60_000
	cfg.CanvasW = 16384
	cfg.CanvasH = 8192
	cfg.BackendCacheBytes = SweepCacheBytes
	return cfg
}

// smokeOpts is the sweep's default configuration at one client count.
func smokeOpts(clients int) ConcurrentOptions {
	opts := DefaultConcurrentOptions()
	opts.ClientCounts = []int{clients}
	opts.StepsPerClient = 24
	return opts
}

// Shared 1-node environment for the single-node sweep checks: building
// it once keeps the suite fast.
var (
	nodeOnce sync.Once
	nodeEnv  *ClusterEnv
	nodeErr  error
)

func quickNode(t *testing.T) *ClusterEnv {
	t.Helper()
	nodeOnce.Do(func() {
		cfg := smokeConfig()
		cfg.NumPoints = 20_000
		nodeEnv, nodeErr = NewClusterEnv(cfg, "uniform", 1)
	})
	if nodeErr != nil {
		t.Fatal(nodeErr)
	}
	return nodeEnv
}

// TestClusterSmokeTwoNode is the in-process cluster smoke: two nodes,
// a zipf pan trace driven through both, asserting (1) peer fills
// actually happened (the ring routed traffic), (2) nobody fell back
// (no dead peers in-process), and (3) cluster-wide database queries
// per step beat the single-node baseline at the same client count —
// the scaling claim the subsystem exists for.
func TestClusterSmokeTwoNode(t *testing.T) {
	cfg := smokeConfig()
	const clients = 8

	single, err := NewClusterEnv(cfg, "uniform", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	_, baseRows, err := ClusterRun(single, smokeOpts(clients))
	if err != nil {
		t.Fatal(err)
	}

	duo, err := NewClusterEnv(cfg, "uniform", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer duo.Close()
	tbl, rows, err := ClusterRun(duo, smokeOpts(clients))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl.Format())

	base, two := baseRows[0], rows[0]
	if len(two.Nodes) != 2 {
		t.Fatalf("expected 2 node stats, got %d", len(two.Nodes))
	}
	var fills, fallbacks int64
	for _, ns := range two.Nodes {
		fills += ns.PeerFills
		fallbacks += ns.LocalFallbacks
	}
	if fills == 0 {
		t.Fatal("no peer fills: the ring routed nothing across nodes")
	}
	if fallbacks != 0 {
		t.Fatalf("%d local fallbacks on a healthy in-process cluster", fallbacks)
	}
	if two.DbqPerStep >= base.DbqPerStep {
		t.Fatalf("2-node cluster dbq/step %.3f not below 1-node baseline %.3f",
			two.DbqPerStep, base.DbqPerStep)
	}
}

// TestClusterRunSingleNodeStandalone: a 1-node ClusterEnv serves
// standalone (no cluster machinery) but flows through the same
// harness, keeping baselines comparable.
func TestClusterRunSingleNodeStandalone(t *testing.T) {
	ce := quickNode(t)
	if ce.Nodes[0].Srv.Cluster() != nil {
		t.Fatal("1-node env must serve standalone")
	}
	_, rows, err := ClusterRun(ce, smokeOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	ns := rows[0].Nodes
	if len(ns) != 1 || ns[0].PeerFills != 0 || ns[0].PeerFillRatio != 0 {
		t.Fatalf("standalone node shows cluster traffic: %+v", ns)
	}
	if rows[0].DbqPerStep <= 0 || rows[0].RowsScannedPerStep <= 0 {
		t.Fatalf("standalone run measured no database work: %+v", rows[0])
	}
	if _, _, err := ClusterRun(ce, ConcurrentOptions{}); err == nil {
		t.Fatal("empty options must fail")
	}
}

// TestConcurrentWorkloads: the zipf workload revisits a shared hot
// set, so the backend cache must record a measurable hit ratio (sweep
// clients run without a frontend cache, so revisits reach the
// backend); an unknown workload is rejected.
func TestConcurrentWorkloads(t *testing.T) {
	ce := quickNode(t)
	_, rows, err := ClusterRun(ce, ConcurrentOptions{
		ClientCounts:   []int{2},
		StepsPerClient: 24,
		Scheme:         fetch.TileSpatial1024,
		BatchSize:      4,
		Workload:       "zipf",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].HitRatio <= 0 || rows[0].HitRatio > 1 {
		t.Fatalf("zipf workload hit ratio out of (0, 1]: %+v", rows[0])
	}
	if _, _, err := ClusterRun(ce, ConcurrentOptions{
		ClientCounts: []int{1}, StepsPerClient: 1, Scheme: fetch.TileSpatial1024,
		Workload: "bogus",
	}); err == nil {
		t.Fatal("unknown workload must fail")
	}
}

// TestNewClusterEnvRefusesSharedL2Dir: the persistent store takes no
// directory lock, so n > 1 nodes over one L2 directory would run n
// write-behind writers over one segment set.
func TestNewClusterEnvRefusesSharedL2Dir(t *testing.T) {
	cfg := smokeConfig()
	cfg.L2Dir = t.TempDir()
	if ce, err := NewClusterEnv(cfg, "uniform", 2); err == nil {
		ce.Close()
		t.Fatal("2 nodes over one L2 directory must fail")
	}
}
