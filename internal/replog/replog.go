// Package replog is a minimal leader-lease replicated log: the
// machinery that turns "/update on any node" into "every node applies
// the same commands in the same order, and a quorum-committed command
// survives any minority of node failures".
//
// It is a deliberately small subset of raft (Ongaro & Ousterhout,
// 2014) with no external dependency, running its three RPCs (vote,
// append, propose-forward) over the cluster's existing peer Transport:
//
//   - Term-numbered leader election with randomized election timeouts.
//     A follower that hears no leader for its (randomized) timeout
//     becomes a candidate, increments the term and solicits votes; a
//     quorum of votes makes it leader. Terms and votes are fsynced to
//     the WAL before they are acted on, so a restarted node can never
//     vote twice in one term.
//   - Append/ack replication with quorum commit. The leader appends
//     commands to its local WAL and streams them to followers with a
//     (prevIndex, prevTerm) consistency check; an entry is committed
//     once a quorum holds it *and* it belongs to the leader's current
//     term (the raft §5.4.2 rule). Followers learn the commit index on
//     the next append/heartbeat.
//   - Follower catch-up by sequential replay: a follower that rejects
//     an append walks the leader's nextIndex back until histories
//     meet, then receives the suffix in order. A conflicting
//     (uncommitted) suffix on the follower is physically truncated
//     from its WAL.
//   - Leader lease: a leader that cannot reach a quorum of followers
//     for two election timeouts steps down to follower rather than
//     serving split-brain writes forever. Elections make the lease
//     safe: a new leader can only be elected where the old one cannot
//     reach a quorum.
//
// Each node applies committed entries, in index order, exactly once
// per process lifetime, through the Apply callback — the server hangs
// its whole update transition (database mutation, cache generation
// bump, scoped L1 and L2 invalidation) off that callback, so every
// member changes its data and its caches at the same log positions.
//
// Persistence is two internal/wal logs per node (CRC-framed records,
// torn tail truncated on open): an append-only term/vote log and a
// suffix-truncatable entry log (storage.go has the layout). On restart
// the node replays both and rejoins with its history intact.
package replog

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"kyrix/internal/wal"
)

// Role is a node's current consensus role.
type Role int32

const (
	Follower Role = iota
	Candidate
	Leader
)

func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	}
	return fmt.Sprintf("role(%d)", int32(r))
}

// RPC is the transport the log runs over: one JSON request/response
// exchange with a named peer. cluster.Transport implements it; tests
// substitute their own.
type RPC interface {
	PostJSON(ctx context.Context, node, path string, req, resp any) error
}

// Apply is the state-machine callback: called for every committed
// entry exactly once per process lifetime, in index order, never
// concurrently. cmd is nil for the no-op entry a new leader commits to
// establish its term. An Apply error is recorded and returned to the
// Submit waiting on that index, but does not halt the log — the entry
// stays applied (deterministic state machines fail deterministically
// everywhere or nowhere).
type Apply func(index uint64, cmd []byte) error

// Config configures one log node.
type Config struct {
	// Self is this node's identity — its base URL on the cluster
	// transport.
	Self string
	// Peers is the full member list (Self may be included; it is
	// deduplicated). Quorum is len(members)/2 + 1.
	Peers []string
	// Dir is the directory holding this node's WAL (created if
	// needed). Reusing a dir across restarts is what crash-recovery
	// means.
	Dir string
	// Transport carries the RPCs. Required when the member list names
	// anyone besides Self.
	Transport RPC
	// Apply is the state-machine callback. Required.
	Apply Apply
	// ElectionTimeout is the base election timeout; each node
	// randomizes per election in [1x, 2x). 0 = 150ms.
	ElectionTimeout time.Duration
	// Heartbeat is the leader's append interval. 0 = ElectionTimeout/5
	// (clamped to at least 10ms).
	Heartbeat time.Duration
	// SubmitTimeout bounds one Submit end to end when its context has
	// no earlier deadline. 0 = 5s.
	SubmitTimeout time.Duration
}

// One append RPC carries at most maxBatchEntries entries and, past its
// first entry, at most maxBatchBytes of encoded entries. The byte cap
// is what lets a follower behind by large commands catch up: a batch
// must be sent, decoded and fsynced within one append deadline
// (ElectionTimeout) and fit under the receiver's maxRPCBody, or the
// leader resends the same failing batch forever. A large first entry
// goes alone; callers bound one command's size (the server's /update
// takes at most 1 MiB).
const (
	maxBatchEntries = 64
	maxBatchBytes   = 256 << 10
)

// ErrClosed is returned by operations on a closed node.
var ErrClosed = errors.New("replog: closed")

// errOverwritten is waitAcked's verdict when the entry applied at a
// submission's index is not that submission's: a new leader replaced
// the uncommitted slot. SubmitWithID proposes again under the same ID.
var errOverwritten = errors.New("replog: entry overwritten by a later leader")

// ErrNotDurable (wrapped) is returned by Submit when the leader could
// not append or fsync the command to its WAL: the entry was not added,
// and the command did not commit. Callers surface it as "temporarily
// unavailable, retry".
var ErrNotDurable = errors.New("replog: log write failed")

// ErrNoLeader is returned by Submit when no leader could be reached
// within the deadline — the cluster is mid-election or lacks a quorum.
// Callers surface it as "temporarily unavailable, retry".
var ErrNoLeader = errors.New("replog: no leader")

// entry is one log slot. ID, when nonempty, is the command's
// idempotency key: the leader refuses to append a second entry with
// the same ID, which is what makes Submit's internal retry loop (and a
// client retry carrying its own key) exactly-once at the state machine
// instead of at-least-once.
type entry struct {
	Index uint64 `json:"index"`
	Term  uint64 `json:"term"`
	ID    string `json:"id,omitempty"`
	Cmd   []byte `json:"cmd,omitempty"`
}

// Stats is a point-in-time snapshot for /stats.
type Stats struct {
	Role      string `json:"role"`
	Term      uint64 `json:"term"`
	Leader    string `json:"leader,omitempty"`
	LastIndex uint64 `json:"lastIndex"`
	Commit    uint64 `json:"commit"`
	Applied   uint64 `json:"applied"`
	Members   int    `json:"members"`
}

// Node is one member of the replicated log.
type Node struct {
	cfg     Config
	members []string // deduped, Self included
	others  []string // members minus Self
	quorum  int

	mu       sync.Mutex
	role     Role                 // guarded by mu
	term     uint64               // guarded by mu
	votedFor string               // guarded by mu
	leader   string               // guarded by mu; last known leader this term ("" = unknown)
	log      []entry              // guarded by mu
	lsns     []wal.LSN            // guarded by mu; lsns[i] = WAL offset of log[i]'s record
	idIndex  map[string]uint64    // guarded by mu; log index per nonempty entry ID (dedupe)
	idSeq    uint64               // guarded by mu; Submit's per-process ID counter
	commit   uint64               // guarded by mu
	applied  uint64               // guarded by mu
	next     map[string]uint64    // guarded by mu; leader: next index to send per peer
	match    map[string]uint64    // guarded by mu; leader: highest replicated index per peer
	inflight map[string]bool      // guarded by mu; leader: replication loop running per peer
	lastAck  map[string]time.Time // guarded by mu
	lastBeat time.Time            // guarded by mu; leader: last heartbeat broadcast
	deadline time.Time            // guarded by mu; follower/candidate: election deadline
	// lastLeaderSeen is the last accepted append/heartbeat from a
	// current leader — the leader-stickiness window for HandleVote.
	lastLeaderSeen time.Time        // guarded by mu
	closed         bool             // guarded by mu
	applyErrs      map[uint64]error // guarded by mu; recent apply results, for Submit waiters
	commitCond     *sync.Cond       // commit advanced (applier wakes)
	appliedCond    *sync.Cond       // applied advanced (Submit waiters wake)

	wal     *wal.Log // entry log (suffix-truncatable)
	metaWal *wal.Log // term/vote log (append-only, last wins)
	rng     *rand.Rand
	nonce   uint64 // per-process namespace for generated submit IDs
	stop    chan struct{}
	wg      sync.WaitGroup
}

// Open replays (or creates) the WAL under cfg.Dir and starts the
// node's election timer and apply loop. Applied tracking is
// per-process, so a restarting node replays its whole committed prefix
// through Apply, which is exactly right for a state machine rebuilt
// from scratch each boot (the in-memory database). A cluster member
// learns how far that prefix reaches from the leader. A single member
// is its own quorum, so every entry on its disk is committed, and Open
// returns only once the applier has replayed them all, however long
// that takes. The member list of a Dir must not change across restarts.
func Open(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, errors.New("replog: Config.Self required")
	}
	if cfg.Apply == nil {
		return nil, errors.New("replog: Config.Apply required")
	}
	if cfg.Dir == "" {
		return nil, errors.New("replog: Config.Dir required")
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 150 * time.Millisecond
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = max(cfg.ElectionTimeout/5, 10*time.Millisecond)
	}
	if cfg.SubmitTimeout <= 0 {
		cfg.SubmitTimeout = 5 * time.Second
	}
	members := []string{cfg.Self}
	for _, p := range cfg.Peers {
		if p != "" && p != cfg.Self && !contains(members, p) {
			members = append(members, p)
		}
	}
	if len(members) > 1 && cfg.Transport == nil {
		return nil, errors.New("replog: Config.Transport required with peers")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("replog: mkdir: %w", err)
	}
	w, err := wal.Open(filepath.Join(cfg.Dir, "replog.kyx"))
	if err != nil {
		return nil, err
	}
	mw, err := wal.Open(filepath.Join(cfg.Dir, "meta.kyx"))
	if err != nil {
		_ = w.Close() // already failing; the open error wins
		return nil, err
	}
	n := &Node{
		cfg:       cfg,
		members:   members,
		quorum:    len(members)/2 + 1,
		wal:       w,
		metaWal:   mw,
		next:      make(map[string]uint64),
		match:     make(map[string]uint64),
		inflight:  make(map[string]bool),
		lastAck:   make(map[string]time.Time),
		idIndex:   make(map[string]uint64),
		applyErrs: make(map[uint64]error),
		rng:       rand.New(rand.NewSource(int64(seedOf(cfg.Self)) ^ time.Now().UnixNano())),
		stop:      make(chan struct{}),
	}
	n.nonce = n.rng.Uint64()
	for _, m := range members {
		if m != cfg.Self {
			n.others = append(n.others, m)
		}
	}
	n.commitCond = sync.NewCond(&n.mu)
	n.appliedCond = sync.NewCond(&n.mu)
	n.mu.Lock()
	err = n.loadLocked()
	replayed := uint64(0)
	if n.quorum == 1 {
		replayed = n.lastIndexLocked()
		n.commit = replayed
	}
	n.mu.Unlock()
	if err != nil {
		_ = w.Close()  // already failing; the open error wins
		_ = mw.Close() // already failing; the open error wins
		return nil, err
	}
	n.resetDeadlineLocked(time.Now())
	n.wg.Add(2)
	go n.run()
	go n.applier()
	n.mu.Lock()
	for n.applied < replayed {
		n.appliedCond.Wait()
	}
	n.mu.Unlock()
	return n, nil
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

func seedOf(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// Self returns this node's identity.
func (n *Node) Self() string { return n.cfg.Self }

// IsLeader reports whether this node currently believes it leads.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == Leader
}

// Leader returns the last known leader ("" if unknown this term).
func (n *Node) Leader() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leader
}

// Applied returns the index through which entries have been applied.
func (n *Node) Applied() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.applied
}

// Snapshot returns the /stats view.
func (n *Node) Snapshot() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Stats{
		Role:      n.role.String(),
		Term:      n.term,
		Leader:    n.leader,
		LastIndex: n.lastIndexLocked(),
		Commit:    n.commit,
		Applied:   n.applied,
		Members:   len(n.members),
	}
}

func (n *Node) lastIndexLocked() uint64 { return uint64(len(n.log)) }

func (n *Node) termAtLocked(index uint64) uint64 {
	if index == 0 || index > uint64(len(n.log)) {
		return 0
	}
	return n.log[index-1].Term
}

func (n *Node) resetDeadlineLocked(now time.Time) {
	base := n.cfg.ElectionTimeout
	n.deadline = now.Add(base + time.Duration(n.rng.Int63n(int64(base))))
}

// run is the timer loop: election timeouts for followers/candidates,
// heartbeats and the quorum lease for the leader.
func (n *Node) run() {
	defer n.wg.Done()
	tick := time.NewTicker(min(n.cfg.Heartbeat/2, 10*time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case now := <-tick.C:
			n.mu.Lock()
			if n.closed {
				n.mu.Unlock()
				return
			}
			switch n.role {
			case Leader:
				if !n.quorumReachableLocked(now) {
					// Lease lost: a quorum has been silent for two
					// election timeouts; stop accepting writes so a
					// partitioned majority can elect freely.
					n.becomeFollowerLocked(n.term, "")
				} else if now.Sub(n.lastBeat) >= n.cfg.Heartbeat {
					n.lastBeat = now
					n.broadcastLocked()
				}
			default:
				if now.After(n.deadline) {
					n.startElectionLocked()
				}
			}
			n.mu.Unlock()
		}
	}
}

// quorumReachableLocked: the leader counts itself plus every follower
// acked within two election timeouts.
func (n *Node) quorumReachableLocked(now time.Time) bool {
	reach := 1
	for _, p := range n.others {
		if now.Sub(n.lastAck[p]) <= 2*n.cfg.ElectionTimeout {
			reach++
		}
	}
	return reach >= n.quorum
}

func (n *Node) becomeFollowerLocked(term uint64, leader string) {
	stepping := n.role != Follower || term != n.term
	if term != n.term {
		// Stepping down must happen, persisted or not. Forgetting a
		// term with no vote in it is safe: a vote cast later in this
		// term persists the term with it (HandleVote).
		_ = n.persistMetaLocked(term, "")
		n.term = term
		n.votedFor = ""
	}
	n.role = Follower
	n.leader = leader
	if stepping {
		n.resetDeadlineLocked(time.Now())
	}
}

func (n *Node) startElectionLocked() {
	// No vote for self that is not on disk: a node that cannot persist
	// it stays where it is and tries again after another timeout.
	n.resetDeadlineLocked(time.Now())
	if n.persistMetaLocked(n.term+1, n.cfg.Self) != nil {
		return
	}
	n.role = Candidate
	n.term++
	n.votedFor = n.cfg.Self
	n.leader = ""
	term := n.term
	req := &VoteRequest{
		Term:      term,
		Candidate: n.cfg.Self,
		LastIndex: n.lastIndexLocked(),
		LastTerm:  n.termAtLocked(n.lastIndexLocked()),
	}
	votes := 1 // self
	if votes >= n.quorum {
		n.becomeLeaderLocked()
		return
	}
	for _, p := range n.others {
		peer := p
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ElectionTimeout)
			defer cancel()
			var resp VoteResponse
			if err := n.cfg.Transport.PostJSON(ctx, peer, VotePath, req, &resp); err != nil {
				return
			}
			n.mu.Lock()
			defer n.mu.Unlock()
			if n.closed {
				return
			}
			if resp.Term > n.term {
				n.becomeFollowerLocked(resp.Term, "")
				return
			}
			if n.role != Candidate || n.term != term || !resp.Granted {
				return
			}
			votes++
			if votes >= n.quorum {
				n.becomeLeaderLocked()
			}
		}()
	}
}

func (n *Node) becomeLeaderLocked() {
	n.role = Leader
	n.leader = n.cfg.Self
	now := time.Now()
	for _, p := range n.others {
		n.next[p] = n.lastIndexLocked() + 1
		n.match[p] = 0
		n.lastAck[p] = now
	}
	// Commit a no-op immediately: a leader may only count replicas of
	// its *own-term* entries toward commit (§5.4.2), so without this
	// an idle new leader would never learn its predecessors' tail is
	// committed — and neither would anyone else. A leader that cannot
	// write it cannot commit anything, so it steps down.
	if _, err := n.appendLocalLocked("", nil); err != nil {
		n.becomeFollowerLocked(n.term, "")
		return
	}
	n.broadcastLocked()
}

// appendLocalLocked appends one entry with the current term to the
// local log and WAL (synced — a leader acks nothing it could forget).
// On a WAL error the entry is not added.
func (n *Node) appendLocalLocked(id string, cmd []byte) (uint64, error) {
	e := entry{Index: n.lastIndexLocked() + 1, Term: n.term, ID: id, Cmd: cmd}
	lsn, err := n.persistEntryNoSyncLocked(e)
	if err != nil {
		return 0, err
	}
	n.log = append(n.log, e)
	n.lsns = append(n.lsns, lsn)
	if id != "" {
		n.idIndex[id] = e.Index
	}
	if err := n.syncEntriesLocked(); err != nil {
		n.abandonLocked(e.Index, lsn)
		return 0, err
	}
	n.advanceCommitLocked()
	return e.Index, nil
}

// appendCmdLocked is the leader's dedicated command-append path: an ID
// already present in the log returns its existing index instead of a
// second entry. This is what turns a retried propose — forward response
// lost, leader change mid-submit, ambiguous timeout — into the SAME log
// slot. It is safe across failover: a committed entry is in every
// electable leader's log (election restriction), so its ID is found
// here; an uncommitted copy that a new leader lacks is truncated from
// the old leader's log before it could ever apply.
func (n *Node) appendCmdLocked(id string, cmd []byte) (uint64, error) {
	if id != "" {
		if idx, ok := n.idIndex[id]; ok {
			return idx, nil
		}
	}
	return n.appendLocalLocked(id, cmd)
}

// broadcastLocked kicks the per-peer replication loops.
func (n *Node) broadcastLocked() {
	for _, p := range n.others {
		n.replicateLocked(p)
	}
}

// replicateLocked starts (if not already running) the replication loop
// for one peer. The loop sends appends until the peer is caught up or
// an RPC fails; failures are retried by the next heartbeat tick, which
// restarts the loop — the heartbeat IS the retry policy.
func (n *Node) replicateLocked(peer string) {
	if n.inflight[peer] || n.closed {
		return
	}
	n.inflight[peer] = true
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			n.mu.Lock()
			if n.closed || n.role != Leader {
				n.inflight[peer] = false
				n.mu.Unlock()
				return
			}
			term := n.term
			ni := n.next[peer]
			if ni == 0 {
				ni = 1
			}
			prevIndex := ni - 1
			prevTerm := n.termAtLocked(prevIndex)
			var entries []entry
			if ni <= n.lastIndexLocked() {
				entries = append(entries, appendBatch(n.log[ni-1:])...)
			}
			req := &AppendRequest{
				Term:      term,
				Leader:    n.cfg.Self,
				PrevIndex: prevIndex,
				PrevTerm:  prevTerm,
				Entries:   entries,
				Commit:    n.commit,
			}
			n.mu.Unlock()

			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ElectionTimeout)
			var resp AppendResponse
			err := n.cfg.Transport.PostJSON(ctx, peer, AppendPath, req, &resp)
			cancel()

			n.mu.Lock()
			if n.closed {
				n.inflight[peer] = false
				n.mu.Unlock()
				return
			}
			if err != nil {
				n.inflight[peer] = false
				n.mu.Unlock()
				return
			}
			if resp.Term > n.term {
				n.becomeFollowerLocked(resp.Term, "")
				n.inflight[peer] = false
				n.mu.Unlock()
				return
			}
			if n.role != Leader || n.term != term {
				n.inflight[peer] = false
				n.mu.Unlock()
				return
			}
			n.lastAck[peer] = time.Now()
			if resp.Success {
				m := prevIndex + uint64(len(entries))
				if m > n.match[peer] {
					n.match[peer] = m
				}
				n.next[peer] = m + 1
				n.advanceCommitLocked()
				if n.next[peer] <= n.lastIndexLocked() {
					n.mu.Unlock()
					continue // more to ship
				}
				n.inflight[peer] = false
				n.mu.Unlock()
				return
			}
			if resp.NotDurable {
				// The follower's disk failed, not the log check: the
				// next heartbeat retries.
				n.inflight[peer] = false
				n.mu.Unlock()
				return
			}
			// Consistency reject: walk back (or jump to the
			// follower's hint) and retry immediately.
			nn := n.next[peer]
			if resp.Hint > 0 && resp.Hint < nn {
				nn = resp.Hint
			} else if nn > 1 {
				nn--
			}
			n.next[peer] = max(nn, 1)
			n.mu.Unlock()
		}
	}()
}

// appendBatch returns the prefix of tail that one append RPC carries.
func appendBatch(tail []entry) []entry {
	size := 0
	for i, e := range tail {
		// The JSON encoding of e: base64 Cmd, the ID, and under 100
		// bytes of field names and numbers.
		size += base64.StdEncoding.EncodedLen(len(e.Cmd)) + len(e.ID) + 100
		if i == maxBatchEntries || (i > 0 && size > maxBatchBytes) {
			return tail[:i]
		}
	}
	return tail
}

// advanceCommitLocked recomputes the commit index: the largest index
// replicated on a quorum whose entry is from the current term.
func (n *Node) advanceCommitLocked() {
	if n.role != Leader {
		return
	}
	idxs := make([]uint64, 0, len(n.members))
	idxs = append(idxs, n.lastIndexLocked()) // self
	for _, p := range n.others {
		idxs = append(idxs, n.match[p])
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] > idxs[j] })
	candidate := idxs[n.quorum-1]
	if candidate > n.commit && n.termAtLocked(candidate) == n.term {
		n.commit = candidate
		n.commitCond.Broadcast()
	}
}

// applier applies committed entries in order, one at a time, outside
// the lock.
func (n *Node) applier() {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		for n.applied >= n.commit && !n.closed {
			n.commitCond.Wait()
		}
		if n.closed && n.applied >= n.commit {
			n.mu.Unlock()
			return
		}
		idx := n.applied + 1
		e := n.log[idx-1]
		n.mu.Unlock()

		var err error
		if len(e.Cmd) > 0 {
			err = n.cfg.Apply(idx, e.Cmd)
		}

		n.mu.Lock()
		n.applied = idx
		if err != nil {
			n.applyErrs[idx] = err
		}
		// Bound the error memory: waiters claim errors promptly; 1024
		// outstanding indexes is far past any in-flight window.
		if len(n.applyErrs) > 1024 {
			for k := range n.applyErrs {
				if k+1024 < idx {
					delete(n.applyErrs, k)
				}
			}
		}
		n.appliedCond.Broadcast()
		n.mu.Unlock()
	}
}

// waitAppliedLocked blocks until the local state machine has applied
// index, or ctx ends.
func (n *Node) waitAppliedLocked(ctx context.Context, index uint64) error {
	stop := context.AfterFunc(ctx, func() {
		n.mu.Lock()
		n.appliedCond.Broadcast()
		n.mu.Unlock()
	})
	defer stop()
	for n.applied < index {
		if n.closed {
			return ErrClosed
		}
		if ctx.Err() != nil {
			return fmt.Errorf("replog: entry %d not applied: %w", index, ctx.Err())
		}
		n.appliedCond.Wait()
	}
	return nil
}

// waitAcked blocks until index is applied and returns the Apply error
// of the entry there, if that entry is submission id's. An index
// alone proves nothing: a deposed leader's uncommitted slot is filled
// by its successor's entries, so a slot holding another ID yields
// errOverwritten.
func (n *Node) waitAcked(ctx context.Context, index uint64, id string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.waitAppliedLocked(ctx, index); err != nil {
		return err
	}
	if n.log[index-1].ID != id {
		return errOverwritten
	}
	err := n.applyErrs[index]
	delete(n.applyErrs, index)
	return err
}

// newID mints a process-unique idempotency key for one Submit call.
func (n *Node) newID() string {
	n.mu.Lock()
	n.idSeq++
	seq := n.idSeq
	n.mu.Unlock()
	return fmt.Sprintf("%s/%x.%d", n.cfg.Self, n.nonce, seq)
}

// Submit replicates cmd through the log and returns its index once it
// is committed and applied on THIS node (read-your-writes for the node
// that answered the client). It mints a fresh idempotency key, so one
// Submit call applies cmd at most once no matter how many internal
// retries it takes — but two Submit calls with the same cmd are two
// commands. Callers that need retry-across-calls safety (a client
// re-posting after an ambiguous error) use SubmitWithID.
func (n *Node) Submit(ctx context.Context, cmd []byte) (uint64, error) {
	return n.SubmitWithID(ctx, n.newID(), cmd)
}

// SubmitWithID is Submit under a caller-chosen idempotency key: all
// submissions sharing id occupy at most one log slot, so a retry of a
// non-idempotent command after a lost response cannot double-apply it
// (the key must be unique per logical command). On the leader it
// proposes directly; on a follower it forwards to the last known
// leader and then waits for the entry to arrive and apply locally.
// It returns only once the entry applied at the returned index carries
// id; a slot a later leader overwrote is proposed again. Retries
// internally across leader changes until the deadline; returns
// ErrNoLeader (wrapped) when the cluster has no electable quorum
// within it.
func (n *Node) SubmitWithID(ctx context.Context, id string, cmd []byte) (uint64, error) {
	if _, has := ctx.Deadline(); !has {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, n.cfg.SubmitTimeout)
		defer cancel()
	}
	for {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return 0, ErrClosed
		}
		if n.role == Leader {
			idx, err := n.appendCmdLocked(id, cmd)
			if err != nil {
				n.mu.Unlock()
				return 0, err
			}
			n.broadcastLocked()
			n.mu.Unlock()
			if err := n.waitAcked(ctx, idx, id); !errors.Is(err, errOverwritten) {
				return idx, err
			}
			continue
		}
		leader := n.leader
		n.mu.Unlock()

		if leader != "" && leader != n.cfg.Self {
			req := &ProposeRequest{ID: id, Cmd: cmd}
			var resp ProposeResponse
			err := n.cfg.Transport.PostJSON(ctx, leader, ProposePath, req, &resp)
			if err == nil {
				switch {
				case resp.Index > 0:
					// Committed at the leader; wait for it to reach
					// and apply on this node (the commit index rides
					// the next heartbeat).
					werr := n.waitAcked(ctx, resp.Index, id)
					if errors.Is(werr, errOverwritten) {
						continue
					}
					if werr != nil {
						return 0, werr
					}
					if resp.Err != "" {
						return resp.Index, errors.New(resp.Err)
					}
					return resp.Index, nil
				case resp.NotDurable:
					return 0, fmt.Errorf("%w: leader %s: %s", ErrNotDurable, leader, resp.Err)
				case resp.NotLeader:
					// Stale hint; adopt the leader's own hint if any.
					n.mu.Lock()
					if resp.Leader != "" && resp.Leader != leader {
						n.leader = resp.Leader
					} else if n.leader == leader {
						n.leader = ""
					}
					n.mu.Unlock()
				case resp.Err != "":
					return 0, errors.New(resp.Err)
				}
			}
		}
		// No leader known (or the forward failed): wait out a slice of
		// the budget and retry — an election is likely in progress.
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("%w: %v", ErrNoLeader, ctx.Err())
		case <-time.After(n.cfg.ElectionTimeout / 4):
		}
	}
}

// Close stops the timer and replication loops, waits for the applier
// to drain every committed entry through Apply, fsyncs and closes the
// WAL. Safe to call once; the server calls it after the HTTP listener
// stops accepting.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	n.closed = true
	close(n.stop)
	n.commitCond.Broadcast()
	n.appliedCond.Broadcast()
	n.mu.Unlock()
	n.wg.Wait()
	err := n.wal.Sync()
	if cerr := n.wal.Close(); err == nil {
		err = cerr
	}
	if cerr := n.metaWal.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, wal.ErrClosed) {
		err = nil
	}
	return err
}
