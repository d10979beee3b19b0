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

// persistMetaLocked fsyncs (term, votedFor) before the caller acts on
// it — the "never vote twice in one term" invariant. On an error the
// caller must not act: the record may or may not be on disk, and either
// way it only names a vote the node then never casts.
func (n *Node) persistMetaLocked(term uint64, votedFor string) error {
	payload, _ := json.Marshal(metaRecord{Term: term, VotedFor: votedFor})
	if _, err := n.metaWal.Append(payload); err != nil {
		return fmt.Errorf("%w: %w", ErrNotDurable, err)
	}
	if err := n.metaWal.Sync(); err != nil {
		return fmt.Errorf("%w: %w", ErrNotDurable, err)
	}
	return nil
}

// persistEntryNoSyncLocked appends one entry record; the caller syncs
// once per batch.
func (n *Node) persistEntryNoSyncLocked(e entry) (wal.LSN, error) {
	payload, _ := json.Marshal(e)
	lsn, err := n.wal.Append(payload)
	if err != nil {
		return 0, fmt.Errorf("%w: %w", ErrNotDurable, err)
	}
	return lsn, nil
}

// syncEntriesLocked fsyncs the entry records appended so far.
func (n *Node) syncEntriesLocked() error {
	if err := n.wal.Sync(); err != nil {
		return fmt.Errorf("%w: %w", ErrNotDurable, err)
	}
	return nil
}

// abandonLocked forgets the entries from index on, appended at WAL
// offset from but not known durable: memory drops them and the WAL cuts
// them, so the next append does not land behind a record memory never
// held.
func (n *Node) abandonLocked(index uint64, from wal.LSN) {
	// A failed cut leaves that record in front of the next append: the
	// WAL then holds its index twice, and the next Open refuses to
	// replay it (loadLocked's position check) instead of guessing.
	_ = n.wal.TruncateAt(from)
	n.forgetFromLocked(index)
}

// truncateFromLocked discards entries from index on, both in memory
// and physically in the WAL; when the WAL cut fails, memory keeps them
// too. Only ever called for uncommitted suffixes (committed entries
// never conflict).
func (n *Node) truncateFromLocked(index uint64) error {
	if index < 1 || index > n.lastIndexLocked() {
		return nil
	}
	if err := n.wal.TruncateAt(n.lsns[index-1]); err != nil {
		return fmt.Errorf("%w: %w", ErrNotDurable, err)
	}
	n.forgetFromLocked(index)
	return nil
}

// forgetFromLocked drops entries from index on from the in-memory log.
func (n *Node) forgetFromLocked(index uint64) {
	for _, e := range n.log[index-1:] {
		if e.ID != "" && n.idIndex[e.ID] == e.Index {
			delete(n.idIndex, e.ID)
		}
	}
	n.log = n.log[:index-1]
	n.lsns = n.lsns[:index-1]
}
