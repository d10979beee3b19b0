// Package wal implements the append-only write-ahead log that backs the
// update model of the paper's §4 ("MGH wants an update model for Kyrix
// so they can edit and tag relevant data"), where edits must survive a
// crash of the backend server.
//
// Record framing: each record is
//
//	uint32 length | uint32 CRC-32 (IEEE) of payload | payload
//
// A record is never empty: Append refuses an empty payload. The CRC-32
// of no bytes is 0, so eight zero bytes would otherwise be a valid frame,
// and the zero-filled tail a file system can leave after a crash would
// replay as empty records.
//
// Recovery replays records in order and stops at the first torn,
// corrupt or zero-length frame, truncating the tail — the standard
// redo-log contract.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// LSN is a log sequence number: the byte offset of a record's frame.
type LSN int64

// ErrClosed is returned after Close.
var ErrClosed = errors.New("wal: closed")

// errEmptyRecord is returned by Append for an empty payload.
var errEmptyRecord = errors.New("wal: empty record")

// ErrCorrupt is returned by ReadAt when a record's stored checksum does
// not match its payload (torn write, bit rot, or a bad LSN landing
// mid-record). Random-access readers must treat it as "record absent",
// never serve the bytes.
var ErrCorrupt = errors.New("wal: corrupt record")

const frameHeader = 8

// Log is an append-only write-ahead log. Safe for concurrent appends.
type Log struct {
	mu     sync.Mutex
	f      *os.File // guarded by mu
	end    int64    // guarded by mu
	closed bool     // guarded by mu
}

// Open opens (creating if needed) the log at path and validates the
// existing contents, truncating any torn tail so appends start at a
// clean boundary.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	end, err := validate(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	return &Log{f: f, end: end}, nil
}

// validate scans the log and returns the offset after the last intact
// record; a zero-length frame ends it, as a zero-filled tail reads as
// one. A header's length is checked against the bytes the file holds
// behind it before anything is allocated for the payload, so a corrupt
// header costs nothing.
func validate(f *os.File) (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("wal: stat: %w", err)
	}
	size := fi.Size()
	var off int64
	hdr := make([]byte, frameHeader)
	for {
		if _, err := f.ReadAt(hdr, off); err != nil {
			return off, nil // EOF or short read: clean end / torn header
		}
		length := binary.LittleEndian.Uint32(hdr[0:])
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if length == 0 {
			return off, nil // zero-filled tail
		}
		if int64(length) > size-off-frameHeader {
			return off, nil // torn payload
		}
		payload := make([]byte, length)
		if _, err := f.ReadAt(payload, off+frameHeader); err != nil {
			return off, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return off, nil // corrupt payload
		}
		off += frameHeader + int64(length)
	}
}

// Append writes one non-empty record and returns its LSN. The record is
// flushed to the OS; call Sync for durability to stable storage.
func (l *Log) Append(payload []byte) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if len(payload) == 0 {
		return 0, errEmptyRecord
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	lsn := LSN(l.end)
	if _, err := l.f.WriteAt(frame, l.end); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.end += int64(len(frame))
	return lsn, nil
}

// Sync flushes the log to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.f.Sync()
}

// ReadAt reads the single record at lsn, verifying its checksum — the
// random-access counterpart of Replay, for callers that keep an
// external key→LSN index (the persistent tile store). A record whose
// stored CRC does not match, or a zero-length frame, returns
// ErrCorrupt; an LSN outside the
// validated log returns an error. The returned slice is freshly
// allocated and owned by the caller.
func (l *Log) ReadAt(lsn LSN) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	off := int64(lsn)
	if off < 0 || off+frameHeader > l.end {
		return nil, fmt.Errorf("wal: ReadAt %d: beyond log end %d", off, l.end)
	}
	hdr := make([]byte, frameHeader)
	if _, err := l.f.ReadAt(hdr, off); err != nil {
		return nil, fmt.Errorf("wal: ReadAt header at %d: %w", off, err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:])
	sum := binary.LittleEndian.Uint32(hdr[4:])
	if length == 0 {
		return nil, fmt.Errorf("wal: ReadAt %d: empty frame: %w", off, ErrCorrupt)
	}
	if off+frameHeader+int64(length) > l.end {
		return nil, fmt.Errorf("wal: ReadAt %d: record overruns log end", off)
	}
	payload := make([]byte, length)
	if _, err := l.f.ReadAt(payload, off+frameHeader); err != nil {
		return nil, fmt.Errorf("wal: ReadAt payload at %d: %w", off, err)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("wal: ReadAt %d: %w", off, ErrCorrupt)
	}
	return payload, nil
}

// Replay calls fn for every intact record in LSN order.
func (l *Log) Replay(fn func(lsn LSN, payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	var off int64
	hdr := make([]byte, frameHeader)
	for off < l.end {
		if _, err := l.f.ReadAt(hdr, off); err != nil {
			return fmt.Errorf("wal: replay header at %d: %w", off, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:])
		payload := make([]byte, length)
		if _, err := l.f.ReadAt(payload, off+frameHeader); err != nil {
			return fmt.Errorf("wal: replay payload at %d: %w", off, err)
		}
		if err := fn(LSN(off), payload); err != nil {
			return err
		}
		off += frameHeader + int64(length)
	}
	return nil
}

// TruncateAt discards the record at lsn and everything after it, so
// the next Append lands at lsn. The replicated log uses this to drop a
// conflicting suffix when a new leader's history diverges from a
// follower's (committed prefixes never conflict, so only uncommitted
// bytes are ever cut). lsn must lie on a record boundary at or before
// the current end.
func (l *Log) TruncateAt(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	off := int64(lsn)
	if off < 0 || off > l.end {
		return fmt.Errorf("wal: TruncateAt %d: outside log [0, %d]", off, l.end)
	}
	if err := l.f.Truncate(off); err != nil {
		return fmt.Errorf("wal: TruncateAt %d: %w", off, err)
	}
	l.end = off
	return nil
}

// Size returns the current log length in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.end
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
