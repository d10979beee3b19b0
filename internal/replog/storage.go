package replog

import (
	"encoding/json"
	"fmt"

	"kyrix/internal/wal"
)

// Persistence is two internal/wal logs per node:
//
//   - meta.kyx: (term, votedFor) records, appended and fsynced BEFORE
//     the node acts on a term change or casts a vote; last record
//     wins on replay. It lives apart from the entry log because the
//     entry log's tail can be physically truncated on conflict, and
//     a truncation must never be able to roll back a vote.
//   - replog.kyx: one record per log entry in index order. A
//     conflicting suffix is removed with TruncateAt, so replay always
//     yields a dense prefix 1..N.
//
// Records are JSON — updates are rare next to tile traffic, and the
// WAL layer already contributes the CRC framing and torn-tail
// truncation.

type metaRecord struct {
	Term     uint64 `json:"term"`
	VotedFor string `json:"votedFor,omitempty"`
}

// loadLocked replays both logs into memory on Open, which holds mu
// (nothing else can see the node yet, but the guarded fields it fills
// are machine-checked — see internal/analysis, guardedby).
func (n *Node) loadLocked() error {
	if err := n.metaWal.Replay(func(_ wal.LSN, payload []byte) error {
		var m metaRecord
		if err := json.Unmarshal(payload, &m); err != nil {
			return fmt.Errorf("replog: meta record: %w", err)
		}
		n.term, n.votedFor = m.Term, m.VotedFor
		return nil
	}); err != nil {
		return err
	}
	return n.wal.Replay(func(lsn wal.LSN, payload []byte) error {
		var e entry
		if err := json.Unmarshal(payload, &e); err != nil {
			return fmt.Errorf("replog: entry record: %w", err)
		}
		if e.Index != uint64(len(n.log))+1 {
			return fmt.Errorf("replog: entry record index %d at position %d", e.Index, len(n.log)+1)
		}
		n.log = append(n.log, e)
		n.lsns = append(n.lsns, lsn)
		if e.ID != "" {
			n.idIndex[e.ID] = e.Index
		}
		return nil
	})
}

// persistMetaLocked fsyncs the current (term, votedFor) before the
// caller acts on it — the "never vote twice in one term" invariant.
func (n *Node) persistMetaLocked() {
	payload, _ := json.Marshal(metaRecord{Term: n.term, VotedFor: n.votedFor})
	if _, err := n.metaWal.Append(payload); err == nil {
		_ = n.metaWal.Sync()
	}
}

// persistEntryNoSyncLocked appends one entry record; the caller syncs
// once per batch.
func (n *Node) persistEntryNoSyncLocked(e entry) wal.LSN {
	payload, _ := json.Marshal(e)
	lsn, _ := n.wal.Append(payload)
	return lsn
}

// persistEntryLocked appends and fsyncs one entry record (the leader's
// own append path — it acks nothing it could forget).
func (n *Node) persistEntryLocked(e entry) wal.LSN {
	lsn := n.persistEntryNoSyncLocked(e)
	_ = n.wal.Sync()
	return lsn
}

// truncateFromLocked discards entries from index on, both in memory
// and physically in the WAL. Only ever called for uncommitted suffixes
// (committed entries never conflict).
func (n *Node) truncateFromLocked(index uint64) {
	if index < 1 || index > n.lastIndexLocked() {
		return
	}
	_ = n.wal.TruncateAt(n.lsns[index-1])
	for _, e := range n.log[index-1:] {
		if e.ID != "" && n.idIndex[e.ID] == e.Index {
			delete(n.idIndex, e.ID)
		}
	}
	n.log = n.log[:index-1]
	n.lsns = n.lsns[:index-1]
}
