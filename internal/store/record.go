package store

import (
	"fmt"

	"kyrix/internal/storage"
)

// Record layout. Each WAL record (length + CRC-32 framing supplied by
// internal/wal) carries one storage-encoded row of recordSchema:
//
//	gen  INT   generation the record belongs to (see Store.Bump)
//	kind INT   recordPut | recordGen | recordDel
//	key  TEXT  cache key (empty for recordGen markers)
//	val  TEXT  opaque payload bytes (puts only)
//
// The generation is deliberately the first field — it is the "prefix"
// of the ISSUE's generation-prefix invalidation: a bump makes every
// earlier record invisible without touching it on disk; compaction
// reclaims the space later.
const (
	recordPut = iota
	// recordGen marks a generation bump: gen is the NEW generation.
	// Replay clears the index when it crosses one, so invalidated
	// records can never be resurrected by a restart.
	recordGen
	// recordDel is one key's tombstone: the key is invisible until a
	// later put. A store written before tombstones existed has none, and
	// a binary from before them skips the kind on replay.
	recordDel
)

var recordSchema = storage.Schema{
	{Name: "gen", Type: storage.TInt64},
	{Name: "kind", Type: storage.TInt64},
	{Name: "key", Type: storage.TString},
	{Name: "val", Type: storage.TString},
}

// encodeRecord serializes one record through the shared row codec.
func encodeRecord(gen uint64, kind int, key string, val []byte) ([]byte, error) {
	return storage.EncodeRow(nil, recordSchema, storage.Row{
		storage.I64(int64(gen)),
		storage.I64(int64(kind)),
		storage.Str(key),
		storage.Bytes(val),
	})
}

// decodedRecord is the parsed form of one WAL record payload.
type decodedRecord struct {
	gen  uint64
	kind int
	key  string
	val  []byte
}

func decodeRecord(buf []byte) (decodedRecord, error) {
	row, err := storage.DecodeRow(buf, recordSchema)
	if err != nil {
		return decodedRecord{}, fmt.Errorf("store: decode record: %w", err)
	}
	return decodedRecord{
		gen:  uint64(row[0].AsInt()),
		kind: int(row[1].AsInt()),
		key:  row[2].S,
		val:  row[3].AsBytes(),
	}, nil
}
