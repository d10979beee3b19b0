package replog

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"kyrix/internal/wal"
)

// RPC endpoint paths, mounted by the server under the node's HTTP mux
// (Handler serves all three).
const (
	VotePath    = "/replog/vote"
	AppendPath  = "/replog/append"
	ProposePath = "/replog/propose"
)

// VoteRequest solicits a vote for candidate in term.
type VoteRequest struct {
	Term      uint64 `json:"term"`
	Candidate string `json:"candidate"`
	LastIndex uint64 `json:"lastIndex"`
	LastTerm  uint64 `json:"lastTerm"`
}

// VoteResponse grants or denies; Term lets a stale candidate catch up.
type VoteResponse struct {
	Term    uint64 `json:"term"`
	Granted bool   `json:"granted"`
}

// AppendRequest replicates entries (or, empty, heartbeats) with the
// raft consistency check.
type AppendRequest struct {
	Term      uint64  `json:"term"`
	Leader    string  `json:"leader"`
	PrevIndex uint64  `json:"prevIndex"`
	PrevTerm  uint64  `json:"prevTerm"`
	Entries   []entry `json:"entries,omitempty"`
	Commit    uint64  `json:"commit"`
}

// AppendResponse reports the consistency-check outcome; Hint, when
// set, is the follower's first-possible conflict index so the leader
// can skip the one-by-one walk-back.
type AppendResponse struct {
	Term    uint64 `json:"term"`
	Success bool   `json:"success"`
	Hint    uint64 `json:"hint,omitempty"`
	// NotDurable reports a refusal because the follower could not
	// write the entries to its WAL: the logs may well match, so the
	// leader does not walk back, and retries on its next heartbeat.
	NotDurable bool `json:"notDurable,omitempty"`
}

// ProposeRequest forwards a command from a follower to the leader. ID
// is the command's idempotency key: a re-forward of the same command
// (after a lost response or a leader change) dedupes onto the entry
// the first forward appended, if it survived.
type ProposeRequest struct {
	ID  string `json:"id,omitempty"`
	Cmd []byte `json:"cmd"`
}

// ProposeResponse carries the committed index (the forwarder waits for
// its own apply of that index) or the leader's refusal.
type ProposeResponse struct {
	Index     uint64 `json:"index,omitempty"`
	NotLeader bool   `json:"notLeader,omitempty"`
	Leader    string `json:"leader,omitempty"`
	Err       string `json:"err,omitempty"`
	// NotDurable marks Err as the leader's failure to write the command
	// to its WAL (ErrNotDurable) rather than the command's own error.
	NotDurable bool `json:"notDurable,omitempty"`
}

// HandleVote is the vote RPC receiver.
func (n *Node) HandleVote(req *VoteRequest) *VoteResponse {
	n.mu.Lock()
	defer n.mu.Unlock()
	resp := &VoteResponse{Term: n.term}
	if n.closed || req.Term < n.term {
		return resp
	}
	// Leader stickiness (raft §6 / thesis §4.2.3): while a live leader
	// is heartbeating, deny votes WITHOUT adopting the candidate's term
	// — a briefly partitioned node rejoining with an inflated term must
	// not depose a healthy leader. The check covers both a follower that
	// heard its leader within an election timeout and a leader still
	// holding its quorum lease.
	now := time.Now()
	if req.Term > n.term {
		sticky := now.Sub(n.lastLeaderSeen) < n.cfg.ElectionTimeout ||
			(n.role == Leader && n.quorumReachableLocked(now))
		if sticky {
			return resp
		}
		n.becomeFollowerLocked(req.Term, "")
		resp.Term = n.term
	}
	// Grant only to candidates whose log is at least as up to date
	// (§5.4.1): last terms compare first, lengths break ties.
	lastIdx := n.lastIndexLocked()
	lastTerm := n.termAtLocked(lastIdx)
	upToDate := req.LastTerm > lastTerm || (req.LastTerm == lastTerm && req.LastIndex >= lastIdx)
	if (n.votedFor == "" || n.votedFor == req.Candidate) && upToDate {
		// A vote that is not on disk is not granted.
		if n.persistMetaLocked(n.term, req.Candidate) != nil {
			return resp
		}
		n.votedFor = req.Candidate
		n.resetDeadlineLocked(time.Now())
		resp.Granted = true
	}
	return resp
}

// HandleAppend is the append/heartbeat RPC receiver.
func (n *Node) HandleAppend(req *AppendRequest) *AppendResponse {
	n.mu.Lock()
	defer n.mu.Unlock()
	resp := &AppendResponse{Term: n.term}
	if n.closed || req.Term < n.term {
		return resp
	}
	if req.Term > n.term || n.role != Follower {
		n.becomeFollowerLocked(req.Term, req.Leader)
		resp.Term = n.term
	}
	n.leader = req.Leader
	n.lastLeaderSeen = time.Now()
	n.resetDeadlineLocked(n.lastLeaderSeen)

	if req.PrevIndex > 0 {
		if req.PrevIndex > n.lastIndexLocked() {
			resp.Hint = n.lastIndexLocked() + 1
			return resp
		}
		if n.termAtLocked(req.PrevIndex) != req.PrevTerm {
			// First index of the conflicting term: the whole term run
			// must go, so hint its start.
			hint := req.PrevIndex
			ct := n.termAtLocked(req.PrevIndex)
			for hint > 1 && n.termAtLocked(hint-1) == ct {
				hint--
			}
			resp.Hint = hint
			return resp
		}
	}
	// first is the index of this exchange's first new entry (0 = none
	// yet), from the WAL offset of its record.
	var first uint64
	var from wal.LSN
	var err error
	for i := range req.Entries {
		e := req.Entries[i]
		if e.Index <= n.lastIndexLocked() {
			if n.termAtLocked(e.Index) == e.Term {
				continue // already have it
			}
			if err = n.truncateFromLocked(e.Index); err != nil {
				break
			}
		}
		var lsn wal.LSN
		if lsn, err = n.persistEntryNoSyncLocked(e); err != nil {
			break
		}
		if first == 0 {
			first, from = e.Index, lsn
		}
		n.log = append(n.log, e)
		n.lsns = append(n.lsns, lsn)
		if e.ID != "" {
			// Followers track IDs too: whichever node is elected next
			// must dedupe retries against the entries it inherited.
			n.idIndex[e.ID] = e.Index
		}
	}
	if err == nil && first != 0 {
		// One fsync per batch: an acked entry must survive a crash —
		// the leader counts this ack toward quorum commit.
		err = n.syncEntriesLocked()
	}
	if err != nil {
		// Nothing this exchange appended is known durable: forget it
		// and refuse, leaving log and commit where they were; the
		// leader resends.
		if first != 0 {
			n.abandonLocked(first, from)
		}
		resp.NotDurable = true
		return resp
	}
	// Advance commit only over the prefix this exchange verified:
	// min(leaderCommit, prevIndex+len(entries)), the raft figure-2 rule.
	// Clamping to lastIndex instead would be wrong — after a fast-backup
	// hint walks the leader's nextIndex below our uncommitted tail, a
	// matching batch ending mid-log would mark a conflicting old-term
	// suffix committed before the leader has overwritten it.
	if c := min(req.Commit, req.PrevIndex+uint64(len(req.Entries))); c > n.commit {
		n.commit = c
		n.commitCond.Broadcast()
	}
	resp.Success = true
	return resp
}

// HandlePropose is the leader-side receiver of forwarded commands: it
// proposes cmd, waits for quorum commit and local apply, and returns
// the index (so the forwarder can wait for its own apply).
func (n *Node) HandlePropose(req *ProposeRequest) *ProposeResponse {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return &ProposeResponse{Err: ErrClosed.Error()}
	}
	if n.role != Leader {
		resp := &ProposeResponse{NotLeader: true, Leader: n.leader}
		n.mu.Unlock()
		return resp
	}
	idx, err := n.appendCmdLocked(req.ID, req.Cmd)
	if err != nil {
		n.mu.Unlock()
		return &ProposeResponse{Err: err.Error(), NotDurable: true}
	}
	n.broadcastLocked()
	n.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.SubmitTimeout)
	defer cancel()
	switch err := n.waitAcked(ctx, idx, req.ID); {
	case errors.Is(err, errOverwritten):
		// Deposed before idx committed: the forwarder proposes again.
		return &ProposeResponse{NotLeader: true, Leader: n.Leader()}
	case err != nil:
		return &ProposeResponse{Index: idx, Err: err.Error()}
	}
	return &ProposeResponse{Index: idx}
}

// Handler serves the three RPC endpoints; the server mounts it at
// /replog/.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(VotePath, func(w http.ResponseWriter, r *http.Request) {
		var req VoteRequest
		if !decodeRPC(w, r, &req) {
			return
		}
		writeRPC(w, n.HandleVote(&req))
	})
	mux.HandleFunc(AppendPath, func(w http.ResponseWriter, r *http.Request) {
		var req AppendRequest
		if !decodeRPC(w, r, &req) {
			return
		}
		writeRPC(w, n.HandleAppend(&req))
	})
	mux.HandleFunc(ProposePath, func(w http.ResponseWriter, r *http.Request) {
		var req ProposeRequest
		if !decodeRPC(w, r, &req) {
			return
		}
		writeRPC(w, n.HandlePropose(&req))
	})
	return mux
}

// maxRPCBody bounds one RPC request body (a batch of update commands
// comfortably fits; anything bigger is hostile or broken).
const maxRPCBody = 8 << 20

func decodeRPC(w http.ResponseWriter, r *http.Request, into any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, maxRPCBody)).Decode(into); err != nil {
		http.Error(w, "bad RPC body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeRPC(w http.ResponseWriter, resp any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
