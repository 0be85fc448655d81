// Package wal implements a write-ahead log with group commit.
//
// Every TP technique in the paper's Table 2 pairs its concurrency control
// with "logging": MVCC+logging for the single-node engines and
// 2PC+Raft+logging for TiDB-style engines. This log is that substrate: DML
// operations append redo records; commit appends a commit record and flushes
// the accumulated buffer to the (simulated) device in a single write, which
// is the classic group-commit amortization. Replay rebuilds state after a
// simulated restart.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"htap/internal/disk"
	"htap/internal/obs"
	"htap/internal/txn"
	"htap/internal/types"
)

// RecType enumerates log record kinds.
type RecType uint8

// Log record kinds. A data record's type byte is its write's op.
const (
	RecInsert = RecType(txn.OpInsert)
	RecUpdate = RecType(txn.OpUpdate)
	RecDelete = RecType(txn.OpDelete)
	RecCommit = RecDelete + 1
	RecAbort  = RecDelete + 2
)

// String implements fmt.Stringer.
func (t RecType) String() string {
	switch t {
	case RecInsert:
		return "INSERT"
	case RecUpdate:
		return "UPDATE"
	case RecDelete:
		return "DELETE"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	default:
		return fmt.Sprintf("RecType(%d)", uint8(t))
	}
}

// Record is one redo log entry. Row is nil for DELETE/COMMIT/ABORT.
type Record struct {
	LSN   uint64
	Txn   uint64
	Type  RecType
	Table uint32
	Key   int64
	Row   types.Row
}

// Log is an append-only redo log. Records accumulate in an in-memory buffer
// and reach the device when Flush (or an auto-flush on commit) runs.
type Log struct {
	mu      sync.Mutex
	dev     *disk.Device
	name    string
	nextLSN uint64
	buf     []byte
	flushes int64
	records int64
	// failed is the sticky error after a torn flush: the device may hold a
	// partial record, so further appends could never be distinguished from
	// garbage. Only recovery (a new Log over the revived device) clears it.
	failed error
	// FlushOnCommit controls group commit: when true (default), appending a
	// COMMIT record flushes the buffer, making the transaction durable.
	FlushOnCommit bool

	// Observability (htap_wal_*, labeled by log name). Handles are resolved
	// once at New; the hot path pays only atomic adds.
	mRecords    *obs.Counter
	mAppendLat  *obs.Histogram
	mFlushLat   *obs.Histogram
	mFlushed    *obs.Counter
	mBytes      *obs.Counter
	mPoisonings *obs.Counter
}

// New returns a log writing to the named file on dev.
func New(dev *disk.Device, name string) *Log {
	l := obs.L("log", name)
	return &Log{
		dev: dev, name: name, nextLSN: 1, FlushOnCommit: true,
		mRecords:    obs.Default.Counter("htap_wal_records_total", l),
		mAppendLat:  obs.Default.Histogram("htap_wal_append_duration_ns", l),
		mFlushLat:   obs.Default.Histogram("htap_wal_flush_duration_ns", l),
		mFlushed:    obs.Default.Counter("htap_wal_flushes_total", l),
		mBytes:      obs.Default.Counter("htap_wal_flushed_bytes_total", l),
		mPoisonings: obs.Default.Counter("htap_wal_poisonings_total", l),
	}
}

// encode: uint32 length | uint32 crc | payload
// payload: uvarint lsn | uvarint txn | txn.AppendWrite of (type, table, key, row)

// Append encodes rec, assigns it the next LSN, and buffers it. It returns
// the assigned LSN. COMMIT records trigger a flush when FlushOnCommit is
// set; if that flush fails, the COMMIT record is rolled back out of the
// buffer (so a later flush cannot make the aborted transaction durable) and
// the error is returned — the caller must treat the transaction as aborted.
func (l *Log) Append(rec Record) (uint64, error) {
	appendStart := time.Now()
	defer func() { l.mAppendLat.Since(appendStart) }()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return 0, l.failed
	}
	rec.LSN = l.nextLSN
	l.nextLSN++
	// The payload is encoded in place behind a header filled in after it.
	start := len(l.buf)
	l.buf = append(l.buf, make([]byte, 8)...)
	l.buf = binary.AppendUvarint(l.buf, rec.LSN)
	l.buf = binary.AppendUvarint(l.buf, rec.Txn)
	l.buf = txn.AppendWrite(l.buf, txn.Write{Table: rec.Table, Op: txn.Op(rec.Type), Key: rec.Key, Row: rec.Row})
	payload := l.buf[start+8:]
	binary.BigEndian.PutUint32(l.buf[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(l.buf[start+4:], crc32.ChecksumIEEE(payload))
	l.records++
	if rec.Type == RecCommit && l.FlushOnCommit {
		if err := l.flushLocked(); err != nil {
			// The commit never became durable: un-buffer its record and
			// release the LSN (nothing with this LSN ever reached the
			// device).
			l.buf = l.buf[:start]
			l.records--
			l.nextLSN--
			return 0, err
		}
	}
	l.mRecords.Inc()
	return rec.LSN, nil
}

// DiscardTornTail cuts n trailing bytes off the durable log file. Recovery
// calls it with ReplayResult.DiscardedBytes after a torn-tail replay:
// appending new records after a partial one would make them unreachable to
// every future replay, so the tear must be amputated first.
func (l *Log) DiscardTornTail(n int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 {
		return nil
	}
	return l.dev.TruncateTo(l.name, l.dev.Size(l.name)-n)
}

// SetNextLSN raises the next LSN to assign; recovery calls it with one past
// the highest replayed LSN so post-recovery appends extend the history
// instead of reusing LSNs.
func (l *Log) SetNextLSN(lsn uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn > l.nextLSN {
		l.nextLSN = lsn
	}
}

// Flush writes all buffered records to the device.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

func (l *Log) flushLocked() error {
	if l.failed != nil {
		return l.failed
	}
	if len(l.buf) == 0 {
		return nil
	}
	n := len(l.buf)
	start := time.Now()
	if _, err := l.dev.Append(l.name, l.buf); err != nil {
		if errors.Is(err, disk.ErrInjected) {
			// Clean failure: nothing reached the device, the buffer is
			// intact, and a later flush may succeed.
			return err
		}
		// Torn or crashed: an unknown prefix of the buffer is on the
		// device. Re-flushing would append records after a partial one,
		// making them unreachable to replay — poison the log instead.
		l.failed = fmt.Errorf("wal: log failed: %w", err)
		l.mPoisonings.Inc()
		return l.failed
	}
	l.mFlushLat.Since(start)
	l.mFlushed.Inc()
	l.mBytes.Add(int64(n))
	l.buf = l.buf[:0]
	l.flushes++
	return nil
}

// Stats reports log activity.
type Stats struct {
	Records int64
	Flushes int64
	NextLSN uint64
}

// Stats returns a snapshot of counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Records: l.records, Flushes: l.flushes, NextLSN: l.nextLSN}
}

// ReplayResult summarizes one Replay pass.
type ReplayResult struct {
	Records        int    // complete records delivered to fn
	MaxLSN         uint64 // highest LSN replayed (0 when the log is empty)
	DiscardedBytes int64  // torn-tail bytes dropped after the last good record
}

// Replay reads the durable portion of the log from the device and calls fn
// for each record in LSN order. Buffered-but-unflushed records are lost,
// exactly as a crash would lose them.
//
// A torn tail — a record whose header or payload is cut short, or whose
// checksum fails — ends the replay (ARIES-style): everything before it is
// recovered, the tail is discarded and reported via DiscardedBytes, and no
// error is returned. A crash tears at most the final flush, so the first
// bad record provably marks the end of durable history.
func (l *Log) Replay(fn func(Record) error) (ReplayResult, error) {
	var res ReplayResult
	size := l.dev.Size(l.name)
	if size == 0 {
		return res, nil
	}
	data := make([]byte, size)
	if err := l.dev.ReadAt(l.name, data, 0); err != nil {
		return res, err
	}
	pos := 0
	for pos+8 <= len(data) {
		length := int(binary.BigEndian.Uint32(data[pos : pos+4]))
		sum := binary.BigEndian.Uint32(data[pos+4 : pos+8])
		if pos+8+length > len(data) {
			break // record cut short mid-payload
		}
		payload := data[pos+8 : pos+8+length]
		if crc32.ChecksumIEEE(payload) != sum {
			break // record torn inside a sector (or corrupted)
		}
		rec, err := decodePayload(payload)
		if err != nil {
			// The checksum passed but the payload is malformed: this is
			// not a torn tail, it is an encoding bug. Fail loudly.
			return res, fmt.Errorf("wal: record at %d: %w", pos, err)
		}
		pos += 8 + length
		if err := fn(rec); err != nil {
			return res, err
		}
		res.Records++
		if rec.LSN > res.MaxLSN {
			res.MaxLSN = rec.LSN
		}
	}
	res.DiscardedBytes = int64(len(data) - pos)
	return res, nil
}

func decodePayload(p []byte) (Record, error) {
	lsn, n := binary.Uvarint(p)
	if n <= 0 {
		return Record{}, fmt.Errorf("wal: bad lsn")
	}
	p = p[n:]
	txnID, n := binary.Uvarint(p)
	if n <= 0 {
		return Record{}, fmt.Errorf("wal: bad txn")
	}
	w, _, err := txn.DecodeWrite(p[n:])
	if err != nil {
		return Record{}, err
	}
	return Record{LSN: lsn, Txn: txnID, Type: RecType(w.Op), Table: w.Table, Key: w.Key, Row: w.Row}, nil
}
