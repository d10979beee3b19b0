// Package walerr is an analysistest fixture for the walerr analyzer:
// errors from wal/store methods must be consumed, not silently
// dropped.
package walerr

import (
	"kyrix/internal/wal"
)

func bare(l *wal.Log) {
	l.Sync() // want `error from \(Log\)\.Sync ignored`
}

func deferred(l *wal.Log) {
	defer l.Close() // want `error from \(Log\)\.Close discarded by defer`
}

func goroutine(l *wal.Log) {
	go l.Sync() // want `error from \(Log\)\.Sync discarded by go`
}

func handled(l *wal.Log, payload []byte) error {
	if _, err := l.Append(payload); err != nil {
		return err
	}
	return l.Sync()
}

func explicitDiscard(l *wal.Log) {
	// Visible, greppable decision: durability is deferred to the next
	// commit point.
	_ = l.Sync()
	_ = l.Sync() // trailing reason: the line itself carries it
}

func uncommentedDiscard(l *wal.Log, payload []byte) {
	_ = l.Sync() // want `error from \(Log\)\.Sync assigned to _ without a comment`

	lsn, _ := l.Append(payload) // want `error from \(Log\)\.Append assigned to _ without a comment`
	_ = lsn
}

// Size returns no error, so a bare call is fine.
func statOnly(l *wal.Log) {
	l.Size()
}

func suppressed(l *wal.Log) {
	//lint:ignore-kyrix walerr fixture: crash-only teardown path
	l.Sync()
}
