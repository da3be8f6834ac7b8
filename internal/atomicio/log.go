package atomicio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"partitionshare/internal/faultinject"
)

// Append-only log with torn-tail-tolerant replay — the log half of a
// Journal (journal.go). Rewriting a whole file per record would be O(n²),
// so this is the one other durable write primitive the package blesses:
// length- and CRC-framed records, each fsynced before Append returns,
// with a failed append truncated back off the file.
//
// Crash contract: a record is durable iff Append returned nil. A crash —
// including kill -9 — mid-append leaves a torn final frame that ReplayLog
// discards, reporting torn=true. Records before the tail are unaffected.

// Fault points in the log path (see the WriteFile points above).
const (
	// FaultLogAppend wraps the frame write: a firing partial-write rule
	// tears the appended frame mid-record.
	FaultLogAppend = "atomicio.log.append"
	// FaultLogSync fires between the frame write and its fsync.
	FaultLogSync = "atomicio.log.sync"
)

// ErrLogBroken reports an append log whose file offset could not be
// restored after a failed append; the log refuses further appends and
// the owner must compact (rewrite snapshot, recreate the log).
var ErrLogBroken = errors.New("atomicio: append log broken")

// maxLogRecord bounds a single record's declared length (64 MiB): replay
// of a corrupt length prefix must fail fast, not allocate gigabytes.
const maxLogRecord = 1 << 26

// A Log is a durable append-only record log. Not safe for concurrent
// Append; the owner serializes writers. Construct with OpenLog.
type Log struct {
	f      *os.File
	broken bool
}

// OpenLog opens (creating if absent) the append log at path.
func OpenLog(path string) (*Log, error) {
	// The raw write-mode OpenFile is legal here and only here: this file
	// is the blessed append-log primitive, inside the one package the
	// atomicwrite analyzer exempts.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("atomicio: %w", err)
	}
	return &Log{f: f}, nil
}

// Append frames rec (uvarint length, CRC-32/IEEE, payload) onto the log
// and fsyncs. On any failure the log truncates itself back to the
// pre-append offset, so a failed append leaves no partial frame for the
// next Append to bury; if even the truncate fails, the log is marked
// broken and every later Append returns ErrLogBroken.
func (l *Log) Append(rec []byte) error {
	if l.broken {
		return ErrLogBroken
	}
	start, err := l.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	var hdr [binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], uint64(len(rec)))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.ChecksumIEEE(rec))
	frame := append(append([]byte{}, hdr[:n+4]...), rec...)

	w := faultinject.Writer(FaultLogAppend, l.f)
	if _, err := w.Write(frame); err != nil {
		return l.rollback(start, err)
	}
	if err := faultinject.Hit(FaultLogSync); err != nil {
		return l.rollback(start, err)
	}
	if err := l.f.Sync(); err != nil {
		return l.rollback(start, err)
	}
	return nil
}

// rollback truncates a failed append's partial frame back off the file.
func (l *Log) rollback(start int64, cause error) error {
	if err := l.f.Truncate(start); err != nil {
		l.broken = true
		return fmt.Errorf("%w: truncate after failed append: %v (append: %v)", ErrLogBroken, err, cause)
	}
	return fmt.Errorf("atomicio: log append: %w", cause)
}

// Close closes the log file.
func (l *Log) Close() error {
	if l == nil || l.f == nil {
		return nil
	}
	return l.f.Close()
}

// ReplayLog reads every intact record at path in append order, calling
// fn for each. A torn or corrupt tail — a truncated frame, a CRC
// mismatch, an implausible length — stops the replay and reports
// torn=true; everything before it has already been delivered. A missing
// file replays zero records. fn errors abort the replay.
func ReplayLog(path string, fn func(rec []byte) error) (torn bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("atomicio: %w", err)
	}
	defer f.Close()

	data, err := io.ReadAll(f)
	if err != nil {
		return false, fmt.Errorf("atomicio: %w", err)
	}
	off := 0
	for off < len(data) {
		length, n := binary.Uvarint(data[off:])
		if n <= 0 || length > maxLogRecord {
			return true, nil
		}
		recStart := off + n + 4
		recEnd := recStart + int(length)
		if recEnd > len(data) || recStart > len(data) {
			return true, nil
		}
		sum := binary.LittleEndian.Uint32(data[off+n:])
		rec := data[recStart:recEnd]
		if crc32.ChecksumIEEE(rec) != sum {
			return true, nil
		}
		if err := fn(rec); err != nil {
			return false, err
		}
		off = recEnd
	}
	return false, nil
}
