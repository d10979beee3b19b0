package replog

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"kyrix/internal/cluster"
)

// applyRec is one node's state machine: the applied commands in order.
// A restart gets a fresh applyRec — exactly the process semantics the
// server has (in-memory database rebuilt each boot, log replayed).
type applyRec struct {
	mu   sync.Mutex
	cmds []string
}

func (a *applyRec) apply(_ uint64, cmd []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cmds = append(a.cmds, string(cmd))
	return nil
}

func (a *applyRec) snapshot() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.cmds...)
}

// harness is an in-process N-node log cluster over real loopback HTTP,
// with per-node kill/restart (reusing the WAL dir — crash-recovery)
// and transport failpoints (partitions).
type harness struct {
	t       *testing.T
	urls    []string
	addrs   []string
	dirs    []string
	nodes   []*Node
	servers []*http.Server
	trs     []*cluster.Transport
	recs    []*applyRec
}

func newHarness(t *testing.T, n int) *harness {
	t.Helper()
	h := &harness{t: t}
	root := t.TempDir()
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		h.addrs = append(h.addrs, ln.Addr().String())
		h.urls = append(h.urls, "http://"+ln.Addr().String())
		h.dirs = append(h.dirs, filepath.Join(root, fmt.Sprintf("node%d", i)))
	}
	h.nodes = make([]*Node, n)
	h.servers = make([]*http.Server, n)
	h.trs = make([]*cluster.Transport, n)
	h.recs = make([]*applyRec, n)
	for i := 0; i < n; i++ {
		h.start(i, lns[i])
	}
	t.Cleanup(func() {
		for i := range h.nodes {
			if h.nodes[i] != nil {
				h.stop(i)
			}
		}
	})
	return h
}

func (h *harness) start(i int, ln net.Listener) {
	h.t.Helper()
	var others []string
	for j, u := range h.urls {
		if j != i {
			others = append(others, u)
		}
	}
	// Short breaker cooldown so healed partitions are rediscovered
	// fast; chatty RPC failures during induced faults are the point.
	h.trs[i] = cluster.NewTransport(others, cluster.TransportConfig{
		Timeout:         time.Second,
		Retries:         -1,
		BreakerCooldown: 100 * time.Millisecond,
	})
	h.recs[i] = &applyRec{}
	node, err := Open(Config{
		Self:            h.urls[i],
		Peers:           h.urls,
		Dir:             h.dirs[i],
		Transport:       h.trs[i],
		Apply:           h.recs[i].apply,
		ElectionTimeout: 60 * time.Millisecond,
		Heartbeat:       15 * time.Millisecond,
		SubmitTimeout:   3 * time.Second,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	h.nodes[i] = node
	srv := &http.Server{Handler: node.Handler()}
	h.servers[i] = srv
	go srv.Serve(ln)
}

// stop kills node i: listener and HTTP server torn down, log node
// closed. The WAL dir survives for restart.
func (h *harness) stop(i int) {
	h.t.Helper()
	h.servers[i].Close()
	if err := h.nodes[i].Close(); err != nil && !errors.Is(err, ErrClosed) {
		h.t.Logf("close node %d: %v", i, err)
	}
	h.nodes[i] = nil
}

// restart brings node i back on its old address with its old WAL dir.
func (h *harness) restart(i int) {
	h.t.Helper()
	var ln net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", h.addrs[i])
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("rebind %s: %v", h.addrs[i], err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	h.start(i, ln)
}

// partition drops all traffic between node i and every other live
// node, both directions.
func (h *harness) partition(i int) {
	for j := range h.urls {
		if j == i {
			continue
		}
		h.trs[i].FailDrop(h.urls[j], true)
		h.trs[j].FailDrop(h.urls[i], true)
	}
}

func (h *harness) heal() {
	for _, tr := range h.trs {
		if tr != nil {
			tr.FailReset()
		}
	}
}

// waitLeader polls until exactly one live node leads and every other
// live node agrees, returning its index.
func (h *harness) waitLeader(timeout time.Duration) int {
	h.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		leader := -1
		for i, n := range h.nodes {
			if n != nil && n.IsLeader() {
				leader = i
			}
		}
		if leader >= 0 {
			agreed := true
			for _, n := range h.nodes {
				if n != nil && n.Leader() != h.urls[leader] {
					agreed = false
				}
			}
			if agreed {
				return leader
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.t.Fatalf("no leader within %v", timeout)
	return -1
}

// waitConverged polls until every live node has applied the same
// command sequence of at least want commands.
func (h *harness) waitConverged(want int, timeout time.Duration) []string {
	h.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var ref []string
		ok := true
		for i, n := range h.nodes {
			if n == nil {
				continue
			}
			got := h.recs[i].snapshot()
			if len(got) < want {
				ok = false
				break
			}
			if ref == nil {
				ref = got
			} else if !equalStrings(ref, got) {
				ok = false
				break
			}
		}
		if ok && ref != nil {
			return ref
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, n := range h.nodes {
		if n != nil {
			h.t.Logf("node %d applied: %v", i, h.recs[i].snapshot())
		}
	}
	h.t.Fatalf("nodes did not converge on %d commands within %v", want, timeout)
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestElectionAndOrderedApply: a 3-node cluster elects one leader;
// commands submitted through DIFFERENT nodes (leader and followers —
// followers forward) are applied on every node, in one identical
// order.
func TestElectionAndOrderedApply(t *testing.T) {
	h := newHarness(t, 3)
	h.waitLeader(5 * time.Second)
	const k = 12
	for i := 0; i < k; i++ {
		node := h.nodes[i%3]
		if _, err := node.Submit(context.Background(), []byte(fmt.Sprintf("cmd-%d", i))); err != nil {
			t.Fatalf("submit %d via node %d: %v", i, i%3, err)
		}
	}
	seq := h.waitConverged(k, 5*time.Second)
	if len(seq) != k {
		t.Fatalf("converged on %d commands, want %d", len(seq), k)
	}
	// Sequential submits through a committed log preserve order.
	for i, c := range seq {
		if want := fmt.Sprintf("cmd-%d", i); c != want {
			t.Fatalf("position %d = %q, want %q", i, c, want)
		}
	}
}

// TestLeaderKillFailover: killing the leader mid-stream elects a new
// one among the survivors; every acknowledged command survives; the
// restarted node replays the full committed prefix in order.
func TestLeaderKillFailover(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.waitLeader(5 * time.Second)
	var acked []string
	submitVia := func(i int, cmd string) bool {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if _, err := h.nodes[i].Submit(ctx, []byte(cmd)); err != nil {
			return false
		}
		acked = append(acked, cmd)
		return true
	}
	for i := 0; i < 5; i++ {
		if !submitVia(lead, fmt.Sprintf("pre-%d", i)) {
			t.Fatalf("pre-kill submit %d failed", i)
		}
	}
	h.stop(lead)
	// Submit through the survivors while the old leader is dead; the
	// first few may fail during the election window — retry until the
	// new leader is serving.
	survivor := (lead + 1) % 3
	deadline := time.Now().Add(5 * time.Second)
	got := 0
	for got < 5 {
		if submitVia(survivor, fmt.Sprintf("post-%d", got)) {
			got++
		} else if time.Now().After(deadline) {
			t.Fatal("survivors never accepted writes after leader kill")
		}
	}
	newLead := h.waitLeader(5 * time.Second)
	if newLead == lead {
		t.Fatalf("dead node %d still counted as leader", lead)
	}
	seq := h.waitConverged(len(acked), 5*time.Second)
	if !equalStrings(seq, acked) {
		t.Fatalf("survivors applied %v, want acked %v", seq, acked)
	}

	// Crash-recovery: the old leader comes back on its WAL dir and
	// replays the whole committed prefix, converging with the others.
	h.restart(lead)
	seq = h.waitConverged(len(acked), 5*time.Second)
	if !equalStrings(seq, acked) {
		t.Fatalf("restarted cluster applied %v, want %v", seq, acked)
	}
}

// TestPartitionedFollowerCatchesUp: with one follower partitioned, the
// majority keeps committing; after healing, the follower replays the
// missed suffix in order.
func TestPartitionedFollowerCatchesUp(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.waitLeader(5 * time.Second)
	follower := (lead + 1) % 3
	h.partition(follower)
	const k = 6
	for i := 0; i < k; i++ {
		if _, err := h.nodes[lead].Submit(context.Background(), []byte(fmt.Sprintf("part-%d", i))); err != nil {
			t.Fatalf("submit during partition: %v", err)
		}
	}
	if got := len(h.recs[follower].snapshot()); got != 0 {
		t.Fatalf("partitioned follower applied %d commands", got)
	}
	h.heal()
	seq := h.waitConverged(k, 5*time.Second)
	for i := 0; i < k; i++ {
		if want := fmt.Sprintf("part-%d", i); seq[i] != want {
			t.Fatalf("position %d = %q, want %q", i, seq[i], want)
		}
	}
}

// TestMinorityCannotCommit: a leader partitioned away from both
// followers steps down (lease) and Submit fails with ErrNoLeader
// rather than acking a write a majority never saw.
func TestMinorityCannotCommit(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.waitLeader(5 * time.Second)
	h.partition(lead)
	// The lease is two election timeouts; wait it out.
	deadline := time.Now().Add(3 * time.Second)
	for h.nodes[lead].IsLeader() {
		if time.Now().After(deadline) {
			t.Fatal("partitioned leader never stepped down")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	_, err := h.nodes[lead].Submit(ctx, []byte("lost-write"))
	if err == nil {
		t.Fatal("minority-side submit succeeded")
	}
	// Meanwhile the majority side elects and serves.
	h.heal()
	h.waitLeader(5 * time.Second)
}

// TestRestartAllReplaysCommitted: a full-cluster stop and restart
// (fresh state machines, surviving WAL dirs) replays every committed
// command on every node — the durability contract of quorum commit.
func TestRestartAllReplaysCommitted(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.waitLeader(5 * time.Second)
	const k = 8
	for i := 0; i < k; i++ {
		if _, err := h.nodes[lead].Submit(context.Background(), []byte(fmt.Sprintf("dur-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	h.waitConverged(k, 5*time.Second)
	for i := 0; i < 3; i++ {
		h.stop(i)
	}
	for i := 0; i < 3; i++ {
		h.restart(i)
	}
	h.waitLeader(5 * time.Second)
	seq := h.waitConverged(k, 5*time.Second)
	for i := 0; i < k; i++ {
		if want := fmt.Sprintf("dur-%d", i); seq[i] != want {
			t.Fatalf("after restart, position %d = %q, want %q", i, seq[i], want)
		}
	}
}

// TestSubmitNotAckedWhenOverwritten: a leader partitioned away takes a
// Submit into a slot that the majority's new leader fills with its own
// no-op. After the heal that slot is applied everywhere, but it is not
// the command's: Submit must fail, or propose again until the command
// itself is applied on every node.
func TestSubmitNotAckedWhenOverwritten(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.waitLeader(5 * time.Second)
	h.partition(lead)
	healed := make(chan struct{})
	go func() {
		defer close(healed)
		time.Sleep(400 * time.Millisecond)
		h.heal()
	}()
	idx, err := h.nodes[lead].Submit(context.Background(), []byte("partitioned"))
	<-healed
	if err != nil {
		t.Logf("submit on the deposed leader failed: %v", err)
		return
	}
	seq := h.waitConverged(1, 5*time.Second)
	if !equalStrings(seq, []string{"partitioned"}) {
		t.Fatalf("Submit acked index %d, but nodes applied %v", idx, seq)
	}
}

// TestFollowerCatchesUpOnLargeCommands: a follower that was down while
// the others committed large commands receives them in batches small
// enough to arrive within one append deadline, and catches up.
func TestFollowerCatchesUpOnLargeCommands(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.waitLeader(5 * time.Second)
	follower := (lead + 1) % 3
	h.stop(follower)
	const k = 40
	for i := 0; i < k; i++ {
		cmd := make([]byte, 300<<10)
		for j := range cmd {
			cmd[j] = byte('a' + (i+j)%26)
		}
		if _, err := h.nodes[lead].Submit(context.Background(), cmd); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	want := h.recs[lead].snapshot()
	h.restart(follower)
	deadline := time.Now().Add(10 * time.Second)
	for len(h.recs[follower].snapshot()) < k {
		if time.Now().After(deadline) {
			t.Fatalf("restarted follower applied %d of %d commands within 10s", len(h.recs[follower].snapshot()), k)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !equalStrings(h.recs[follower].snapshot(), want) {
		t.Fatal("restarted follower applied a different command sequence than the leader")
	}
}

// errRPC is a transport to nowhere: every RPC fails. It pins a node in
// the follower/candidate role for white-box RPC-handler tests.
type errRPC struct{}

func (errRPC) PostJSON(context.Context, string, string, any, any) error {
	return errors.New("errRPC: unreachable")
}

// openFollower opens a 3-member node whose peers are unreachable and
// whose election timeout is far beyond the test, so its state evolves
// only through the HandleAppend/HandleVote calls the test makes.
func openFollower(t *testing.T) (*Node, *applyRec) {
	t.Helper()
	rec := &applyRec{}
	n, err := Open(Config{
		Self:            "http://a",
		Peers:           []string{"http://a", "http://b", "http://c"},
		Dir:             t.TempDir(),
		Transport:       errRPC{},
		Apply:           rec.apply,
		ElectionTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, rec
}

// TestAppendCommitClampedToVerifiedPrefix: the follower commit index
// advances only over min(leaderCommit, prevIndex+len(entries)) — the
// prefix this exchange actually verified — never to lastIndex. The
// scenario: a fast-backup hint walks the leader's nextIndex below a
// follower's conflicting uncommitted old-term tail; a matching batch
// ending mid-log must not mark that tail committed.
func TestAppendCommitClampedToVerifiedPrefix(t *testing.T) {
	n, rec := openFollower(t)
	e := func(i, term uint64, cmd string) entry {
		return entry{Index: i, Term: term, Cmd: []byte(cmd)}
	}
	// Term-1 prefix 1..3 (matches every future leader), then an
	// uncommitted term-2 suffix 4..5 from a deposed leader.
	if r := n.HandleAppend(&AppendRequest{Term: 1, Leader: "http://b", Entries: []entry{e(1, 1, "A"), e(2, 1, "B"), e(3, 1, "C")}}); !r.Success {
		t.Fatal("prefix append rejected")
	}
	if r := n.HandleAppend(&AppendRequest{Term: 2, Leader: "http://c", PrevIndex: 3, PrevTerm: 1, Entries: []entry{e(4, 2, "X"), e(5, 2, "Y")}}); !r.Success {
		t.Fatal("suffix append rejected")
	}
	// Term-3 leader (whose own 4..5 differ) sends a batch that ends at
	// index 3, with its commit index already at 5.
	r := n.HandleAppend(&AppendRequest{Term: 3, Leader: "http://b", PrevIndex: 2, PrevTerm: 1, Entries: []entry{e(3, 1, "C")}, Commit: 5})
	if !r.Success {
		t.Fatal("mid-log append rejected")
	}
	if got := n.Snapshot().Commit; got != 3 {
		t.Fatalf("commit = %d after batch verifying through 3, want 3", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for n.Applied() < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := rec.snapshot(); !equalStrings(got, []string{"A", "B", "C"}) {
		t.Fatalf("applied %v, want the verified prefix only", got)
	}
}

// TestVoteLeaderStickiness: a vote request with an inflated term is
// refused — without adopting the term — while the follower has heard
// its leader within an election timeout; once the leader goes silent,
// the same request is granted.
func TestVoteLeaderStickiness(t *testing.T) {
	n, _ := openFollower(t)
	n.HandleAppend(&AppendRequest{Term: 1, Leader: "http://b"})
	req := &VoteRequest{Term: 9, Candidate: "http://c", LastIndex: 100, LastTerm: 9}
	if r := n.HandleVote(req); r.Granted {
		t.Fatal("vote granted while the leader is live")
	}
	if got := n.Snapshot().Term; got != 1 {
		t.Fatalf("sticky rejection adopted term %d, want 1", got)
	}
	// Leader silence: age the last contact past the election timeout.
	n.mu.Lock()
	n.lastLeaderSeen = time.Now().Add(-2 * time.Minute)
	n.mu.Unlock()
	if r := n.HandleVote(req); !r.Granted {
		t.Fatal("vote refused after the leader went silent")
	}
	if got := n.Snapshot().Term; got != 9 {
		t.Fatalf("term = %d after granting, want 9", got)
	}
}

// TestSubmitWithIDDedupes: submissions sharing an idempotency key
// occupy one log slot and apply once — directly on a leader, and
// through a follower's forward path (the lost-response retry shape).
func TestSubmitWithIDDedupes(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.waitLeader(5 * time.Second)
	follower := (lead + 1) % 3
	ctx := context.Background()
	i1, err := h.nodes[lead].SubmitWithID(ctx, "k1", []byte("once"))
	if err != nil {
		t.Fatal(err)
	}
	i2, err := h.nodes[lead].SubmitWithID(ctx, "k1", []byte("once"))
	if err != nil {
		t.Fatal(err)
	}
	if i1 != i2 {
		t.Fatalf("leader retry landed on index %d, want %d", i2, i1)
	}
	// Forwarded retries dedupe at the leader too — including a replay
	// of a key the leader already committed.
	j1, err := h.nodes[follower].SubmitWithID(ctx, "k2", []byte("fwd"))
	if err != nil {
		t.Fatal(err)
	}
	for _, via := range []int{follower, (lead + 2) % 3} {
		j2, err := h.nodes[via].SubmitWithID(ctx, "k2", []byte("fwd"))
		if err != nil {
			t.Fatal(err)
		}
		if j1 != j2 {
			t.Fatalf("forwarded retry via node %d landed on %d, want %d", via, j2, j1)
		}
	}
	seq := h.waitConverged(2, 5*time.Second)
	if !equalStrings(seq, []string{"once", "fwd"}) {
		t.Fatalf("applied %v, want each keyed command exactly once", seq)
	}
}

// TestSingleNodeLog: a one-member log (quorum 1) elects itself and
// commits locally — the degenerate deployment still works — and,
// reopened over its dir, has replayed its whole log when Open returns,
// before any election: a member that is its own quorum needs no leader
// to know what is committed. The replay outlasts SubmitTimeout on
// purpose; it is not a submission and nothing but its end bounds it.
func TestSingleNodeLog(t *testing.T) {
	dir := t.TempDir()
	open := func(apply func(uint64, []byte) error, election, submit time.Duration) *Node {
		n, err := Open(Config{
			Self:            "http://solo",
			Peers:           []string{"http://solo"},
			Dir:             dir,
			Apply:           apply,
			ElectionTimeout: election,
			SubmitTimeout:   submit,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	rec := &applyRec{}
	n := open(rec.apply, 30*time.Millisecond, 0)
	var want []string
	for i := 0; i < 20; i++ {
		cmd := fmt.Sprintf("cmd-%d", i)
		if _, err := n.Submit(context.Background(), []byte(cmd)); err != nil {
			t.Fatal(err)
		}
		want = append(want, cmd)
	}
	if got := rec.snapshot(); !equalStrings(got, want) {
		t.Fatalf("applied %v", got)
	}
	st := n.Snapshot()
	if st.Role != "leader" || st.Applied < 20 {
		t.Fatalf("snapshot = %+v", st)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	rec = &applyRec{}
	slow := func(i uint64, cmd []byte) error {
		time.Sleep(5 * time.Millisecond)
		return rec.apply(i, cmd)
	}
	start := time.Now()
	n = open(slow, time.Minute, time.Millisecond)
	defer n.Close()
	if took := time.Since(start); took < 20*5*time.Millisecond {
		t.Fatalf("Open returned after %v, before a 20-entry replay could finish", took)
	}
	if got := rec.snapshot(); !equalStrings(got, want) {
		t.Fatalf("replayed at open %v, want %v", got, want)
	}
	if st := n.Snapshot(); st.Role == "leader" {
		t.Fatalf("replay waited for an election: %+v", st)
	}
}

// TestWALFailureNotAcked: a single-member log whose WAL file is closed
// under it refuses the next command. Submit fails with ErrNotDurable,
// the entry is not added and nothing more applies, and a reopen over
// the directory replays only what was acked before the failure.
func TestWALFailureNotAcked(t *testing.T) {
	dir := t.TempDir()
	open := func(rec *applyRec, election time.Duration) *Node {
		n, err := Open(Config{
			Self:            "http://solo",
			Dir:             dir,
			Apply:           rec.apply,
			ElectionTimeout: election,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	rec := &applyRec{}
	n := open(rec, 30*time.Millisecond)
	ctx := context.Background()
	if _, err := n.Submit(ctx, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	before := n.Snapshot()
	if err := n.wal.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Submit(ctx, []byte("lost")); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Submit over a closed WAL = %v, want ErrNotDurable", err)
	}
	if after := n.Snapshot(); after.LastIndex != before.LastIndex ||
		after.Commit != before.Commit || after.Applied != before.Applied {
		t.Fatalf("failed append moved the log: before %+v, after %+v", before, after)
	}
	if got := rec.snapshot(); !equalStrings(got, []string{"kept"}) {
		t.Fatalf("applied %v, want only the acked command", got)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	// A minute-long election timeout: nothing appends after the replay.
	rec = &applyRec{}
	n = open(rec, time.Minute)
	defer n.Close()
	if got := rec.snapshot(); !equalStrings(got, []string{"kept"}) {
		t.Fatalf("replayed %v, want only the acked command", got)
	}
	if st := n.Snapshot(); st.LastIndex != before.LastIndex {
		t.Fatalf("reopened log ends at %d, want %d", st.LastIndex, before.LastIndex)
	}
}

// TestZeroTailReopens: a standalone log whose entry WAL gained a
// zero-filled tail, as a crash can leave one, reopens and replays the
// entries it holds. Eight zero bytes are a frame whose CRC matches, so
// the tail once replayed as empty records that failed to parse.
func TestZeroTailReopens(t *testing.T) {
	dir := t.TempDir()
	open := func(rec *applyRec, election time.Duration) *Node {
		n, err := Open(Config{
			Self:            "http://solo",
			Dir:             dir,
			Apply:           rec.apply,
			ElectionTimeout: election,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	rec := &applyRec{}
	n := open(rec, 30*time.Millisecond)
	want := []string{"a", "b", "c"}
	for _, cmd := range want {
		if _, err := n.Submit(context.Background(), []byte(cmd)); err != nil {
			t.Fatal(err)
		}
	}
	last := n.Snapshot().LastIndex
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "replog.kyx"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// A minute-long election timeout: nothing appends after the replay.
	rec = &applyRec{}
	n = open(rec, time.Minute)
	defer n.Close()
	if got := rec.snapshot(); !equalStrings(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	if st := n.Snapshot(); st.LastIndex != last {
		t.Fatalf("reopened log ends at %d, want %d", st.LastIndex, last)
	}
}

// TestFollowerWALFailureRefuses: a follower that cannot write its
// entry WAL refuses the append without moving its log or commit, and
// one that cannot write its term/vote WAL grants no vote and starts no
// election.
func TestFollowerWALFailureRefuses(t *testing.T) {
	n, _ := openFollower(t)
	e := func(i uint64, cmd string) entry {
		return entry{Index: i, Term: 1, Cmd: []byte(cmd)}
	}
	if r := n.HandleAppend(&AppendRequest{Term: 1, Leader: "http://b", Entries: []entry{e(1, "A")}, Commit: 1}); !r.Success {
		t.Fatal("append rejected before the failure")
	}
	if err := n.wal.Close(); err != nil {
		t.Fatal(err)
	}
	r := n.HandleAppend(&AppendRequest{Term: 1, Leader: "http://b", PrevIndex: 1, PrevTerm: 1,
		Entries: []entry{e(2, "B"), e(3, "C")}, Commit: 3})
	if r.Success || !r.NotDurable {
		t.Fatalf("append over a closed WAL = %+v, want a NotDurable refusal", r)
	}
	if st := n.Snapshot(); st.LastIndex != 1 || st.Commit != 1 {
		t.Fatalf("refused append moved the log: %+v", st)
	}

	if err := n.metaWal.Close(); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	n.lastLeaderSeen = time.Now().Add(-2 * time.Minute) // leader silent
	n.mu.Unlock()
	if r := n.HandleVote(&VoteRequest{Term: 5, Candidate: "http://c", LastIndex: 9, LastTerm: 5}); r.Granted {
		t.Fatal("vote granted without persisting it")
	}
	n.mu.Lock()
	term := n.term
	n.startElectionLocked()
	role, after, voted := n.role, n.term, n.votedFor
	n.mu.Unlock()
	if role != Follower || after != term || voted != "" {
		t.Fatalf("election started without persisting the self-vote: role %v term %d->%d votedFor %q", role, term, after, voted)
	}
}
