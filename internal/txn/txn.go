// Package txn provides the transaction substrate shared by all engines:
// a timestamp oracle, snapshot-isolated transactions with buffered write
// sets, and a striped lock table for write-write conflict detection.
//
// This is the "MVCC" half of the paper's "MVCC + logging" TP technique
// (Table 2): an update "creates a new version of a row with a new lifetime
// of a begin timestamp", readers run against a consistent snapshot, and the
// first writer of a key wins. The manager is storage-agnostic — engines pass
// an apply callback to Commit that installs the buffered writes into their
// stores (row store, delta store, Raft log, …) under the commit timestamp.
package txn

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"htap/internal/types"
)

// Op is the kind of a buffered write.
type Op uint8

// Write operations.
const (
	OpInsert Op = iota + 1
	OpUpdate
	OpDelete
)

// Write is one mutation of a transaction: buffered in its write set, then,
// once committed, a WAL record, a replicated 2PC command and a delta entry.
type Write struct {
	Table uint32
	Op    Op
	Key   int64
	Row   types.Row
}

// AppendWrite appends the one byte form of a write to dst:
//
//	op byte | uvarint table | varint key | row
//
// The row is present iff the op is OpInsert or OpUpdate. A WAL record, a
// 2PC command and a log-delta entry each wrap exactly these bytes; a WAL
// COMMIT or ABORT record is a write with that op and no row.
func AppendWrite(dst []byte, w Write) []byte {
	dst = append(dst, byte(w.Op))
	dst = binary.AppendUvarint(dst, uint64(w.Table))
	dst = binary.AppendVarint(dst, w.Key)
	if w.Op == OpInsert || w.Op == OpUpdate {
		dst = types.AppendRow(dst, w.Row)
	}
	return dst
}

// DecodeWrite decodes one write produced by AppendWrite from the front of b
// and returns it with the number of bytes consumed.
func DecodeWrite(b []byte) (Write, int, error) {
	if len(b) == 0 {
		return Write{}, 0, errors.New("txn: missing write op")
	}
	w := Write{Op: Op(b[0])}
	pos := 1
	table, n := binary.Uvarint(b[pos:])
	if n <= 0 || table > math.MaxUint32 {
		return Write{}, 0, errors.New("txn: bad write table")
	}
	w.Table = uint32(table)
	pos += n
	if w.Key, n = binary.Varint(b[pos:]); n <= 0 {
		return Write{}, 0, errors.New("txn: bad write key")
	}
	pos += n
	if w.Op == OpInsert || w.Op == OpUpdate {
		row, n, err := types.DecodeRow(b[pos:])
		if err != nil {
			return Write{}, 0, err
		}
		w.Row = row
		pos += n
	}
	return w, pos, nil
}

// Common transaction errors. ErrDuplicate and ErrNotFound are the
// existence rule's (see Put); neither is a conflict, so neither is worth a
// retry.
var (
	ErrConflict  = errors.New("txn: write-write conflict")
	ErrFinished  = errors.New("txn: transaction already finished")
	ErrReadStale = errors.New("txn: key modified after snapshot")
	ErrDuplicate = errors.New("txn: duplicate key")
	ErrNotFound  = errors.New("txn: key not found")
)

// Reader is a store's committed state as the existence rule reads it.
type Reader interface {
	// Lookup returns the image of key visible at ts, whether it is live
	// there, and the commit timestamp of the key's newest version (0 if
	// none), under one lock and one index probe. It charges no I/O.
	Lookup(table uint32, key int64, ts uint64) (row types.Row, live bool, latest uint64)
}

const lockShards = 64

type lockKey struct {
	table uint32
	key   int64
}

type lockShard struct {
	mu    sync.Mutex
	locks map[lockKey]uint64 // -> holder txn id
}

// Oracle hands out monotonically increasing timestamps and tracks the read
// watermark: the highest timestamp whose transaction is fully applied.
type Oracle struct {
	ts        atomic.Uint64
	watermark atomic.Uint64
}

// Next returns the next timestamp.
func (o *Oracle) Next() uint64 { return o.ts.Add(1) }

// Current returns the most recently issued timestamp.
func (o *Oracle) Current() uint64 { return o.ts.Load() }

// Watermark returns the snapshot timestamp new readers should use.
func (o *Oracle) Watermark() uint64 { return o.watermark.Load() }

// Advance raises the read watermark to ts if it is higher.
func (o *Oracle) Advance(ts uint64) {
	for {
		cur := o.watermark.Load()
		if ts <= cur || o.watermark.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// Stats summarizes manager activity.
type Stats struct {
	Commits   int64
	Aborts    int64
	Conflicts int64
}

// Manager coordinates transactions.
type Manager struct {
	oracle  Oracle
	pins    *Pins
	nextTxn atomic.Uint64
	shards  [lockShards]lockShard

	commitMu  sync.Mutex
	commits   atomic.Int64
	aborts    atomic.Int64
	conflicts atomic.Int64
}

// NewManager returns a ready manager.
func NewManager() *Manager {
	m := &Manager{}
	m.pins = NewPins(m.oracle.Watermark)
	for i := range m.shards {
		m.shards[i].locks = make(map[lockKey]uint64)
	}
	return m
}

// Oracle exposes the manager's timestamp oracle.
func (m *Manager) Oracle() *Oracle { return &m.oracle }

// Pins exposes the read timestamps the manager's open transactions hold.
// Its clock is the read watermark.
func (m *Manager) Pins() *Pins { return m.pins }

// AdvanceTxnID ensures every future Begin hands out an id greater than id.
// Recovery calls it with the highest transaction id seen in the replayed
// log: a WAL can hold complete DML records of a transaction that never
// committed (a torn group-commit tail), and if a post-recovery transaction
// reused that id, the next replay would merge the dead records into the new
// transaction's commit.
func (m *Manager) AdvanceTxnID(id uint64) {
	for {
		cur := m.nextTxn.Load()
		if id <= cur || m.nextTxn.CompareAndSwap(cur, id) {
			return
		}
	}
}

// Quiesce runs fn with no commit in flight: every timestamp Commit has
// drawn is applied and below the watermark, and commits wait until fn
// returns. A reader that must see each commit either in a scan at the
// watermark or in a feed it registers (a columnar load) registers under it.
func (m *Manager) Quiesce(fn func()) {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	fn()
}

// Stats returns a snapshot of counters.
func (m *Manager) Stats() Stats {
	return Stats{Commits: m.commits.Load(), Aborts: m.aborts.Load(), Conflicts: m.conflicts.Load()}
}

// Txn is a snapshot-isolated transaction. Not safe for concurrent use.
type Txn struct {
	mgr    *Manager
	ID     uint64
	ReadTS uint64

	writes   []Write
	writeIdx map[lockKey]int
	locked   []lockKey
	done     bool
}

// Begin starts a transaction reading at the current watermark. The read
// timestamp stays pinned (see Pins) until the transaction commits or
// aborts.
func (m *Manager) Begin() *Txn {
	return &Txn{
		mgr:      m,
		ID:       m.nextTxn.Add(1),
		ReadTS:   m.pins.Pin(m.oracle.Watermark),
		writeIdx: make(map[lockKey]int),
	}
}

func (m *Manager) shard(k lockKey) *lockShard {
	h := (uint64(k.table)*0x9e3779b97f4a7c15 ^ uint64(k.key)) * 0xbf58476d1ce4e5b9
	return &m.shards[h%lockShards]
}

// lock acquires the write lock for k on behalf of tx. Re-acquiring a lock
// the transaction already holds succeeds.
func (m *Manager) lock(tx *Txn, k lockKey) error {
	s := m.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if holder, held := s.locks[k]; held {
		if holder == tx.ID {
			return nil
		}
		m.conflicts.Add(1)
		return ErrConflict
	}
	s.locks[k] = tx.ID
	tx.locked = append(tx.locked, k)
	return nil
}

func (m *Manager) unlockAll(tx *Txn) {
	for _, k := range tx.locked {
		s := m.shard(k)
		s.mu.Lock()
		if s.locks[k] == tx.ID {
			delete(s.locks, k)
		}
		s.mu.Unlock()
	}
	tx.locked = nil
}

// Put buffers op on (table, key) under the existence rule, written once
// for every architecture: inserting a key that is live — in tx's own write
// set, else at its snapshot in r — fails with ErrDuplicate; updating or
// deleting one that is not fails with ErrNotFound. Put takes the key's
// write lock before it reads r: while tx holds it no other transaction can
// commit a newer version, so the latest version r reports is still the
// latest when it is compared to the snapshot. A newer one than the
// snapshot is a conflict (ErrReadStale), checked before the rule, since
// existence at a stale snapshot decides nothing.
func (tx *Txn) Put(r Reader, table uint32, key int64, op Op, row types.Row) error {
	if tx.done {
		return ErrFinished
	}
	k := lockKey{table, key}
	var live bool
	var latest uint64
	if i, ok := tx.writeIdx[k]; ok {
		live = tx.writes[i].Op != OpDelete
	} else {
		if err := tx.mgr.lock(tx, k); err != nil {
			return err
		}
		_, live, latest = r.Lookup(table, key, tx.ReadTS)
	}
	if err := tx.stale(latest); err != nil {
		return err
	}
	switch {
	case op == OpInsert && live:
		return ErrDuplicate
	case op != OpInsert && !live:
		return ErrNotFound
	}
	tx.buffer(k, op, row)
	return nil
}

// Write buffers a mutation, acquiring its write lock, without the
// existence rule. latestVersion is the commit timestamp of the newest
// committed version the caller observed for the key (0 if none); a version
// newer than the snapshot aborts the transaction with ErrReadStale
// (first-committer-wins snapshot isolation).
func (tx *Txn) Write(table uint32, key int64, op Op, row types.Row, latestVersion uint64) error {
	if tx.done {
		return ErrFinished
	}
	if err := tx.stale(latestVersion); err != nil {
		return err
	}
	k := lockKey{table, key}
	if err := tx.mgr.lock(tx, k); err != nil {
		return err
	}
	tx.buffer(k, op, row)
	return nil
}

func (tx *Txn) stale(latestVersion uint64) error {
	if latestVersion > tx.ReadTS {
		tx.mgr.conflicts.Add(1)
		return ErrReadStale
	}
	return nil
}

// buffer adds a write to the write set. Repeated writes to the same key
// collapse, keeping first-op semantics: INSERT then UPDATE stays an INSERT
// of the new image.
func (tx *Txn) buffer(k lockKey, op Op, row types.Row) {
	if i, ok := tx.writeIdx[k]; ok {
		prev := tx.writes[i].Op
		tx.writes[i].Row = row
		if prev == OpInsert && op != OpDelete {
			tx.writes[i].Op = OpInsert
		} else {
			tx.writes[i].Op = op
		}
		return
	}
	tx.writeIdx[k] = len(tx.writes)
	tx.writes = append(tx.writes, Write{Table: k.table, Key: k.key, Op: op, Row: row})
}

// GetWrite returns the transaction's own buffered write for (table, key),
// so stores can serve read-your-own-writes.
func (tx *Txn) GetWrite(table uint32, key int64) (Write, bool) {
	if i, ok := tx.writeIdx[lockKey{table, key}]; ok {
		return tx.writes[i], true
	}
	return Write{}, false
}

// Writes returns the buffered write set in insertion order.
func (tx *Txn) Writes() []Write { return tx.writes }

// Pending reports the number of buffered writes.
func (tx *Txn) Pending() int { return len(tx.writes) }

// Commit assigns a commit timestamp, invokes apply with the write set, and
// advances the read watermark. The apply callback installs the writes into
// the engine's stores and logs; if it fails, the transaction aborts. Either
// way the read timestamp's pin is released once apply has returned.
//
// Commits serialize on a short critical section. This models the single
// timestamp authority of the centralized engines (architectures A/C/D); the
// distributed engine (B) pays 2PC+Raft instead and commits through
// CommitWith.
func (tx *Txn) Commit(apply func(commitTS uint64, writes []Write) error) (uint64, error) {
	m := tx.mgr
	return tx.CommitWith(func(readTS uint64, writes []Write) (uint64, error) {
		if len(writes) == 0 {
			return readTS, nil
		}
		m.commitMu.Lock()
		defer m.commitMu.Unlock()
		commitTS := m.oracle.Next()
		if apply != nil {
			if err := apply(commitTS, writes); err != nil {
				return 0, err
			}
		}
		m.oracle.Advance(commitTS)
		return commitTS, nil
	})
}

// CommitWith ends tx with a commit that draws its timestamp elsewhere:
// architecture B's 2PC coordinator takes it from the manager's oracle and
// advances the watermark itself. commit runs once, with the read timestamp
// and the write set, and returns the commit timestamp; tx's locks and its
// read pin are released after it returns, and tx counts as a commit, or as
// an abort when commit fails.
func (tx *Txn) CommitWith(commit func(readTS uint64, writes []Write) (uint64, error)) (uint64, error) {
	if tx.done {
		return 0, ErrFinished
	}
	tx.done = true
	defer tx.mgr.unlockAll(tx)
	defer tx.mgr.pins.Release(tx.ReadTS)
	ts, err := commit(tx.ReadTS, tx.writes)
	if err != nil {
		tx.mgr.aborts.Add(1)
		return 0, err
	}
	tx.mgr.commits.Add(1)
	return ts, nil
}

// Abort releases the transaction's locks and discards its writes. It reports
// whether there was anything to abort: on a transaction that already
// committed or aborted it does nothing and returns false.
func (tx *Txn) Abort() bool {
	if tx.done {
		return false
	}
	tx.done = true
	tx.mgr.unlockAll(tx)
	tx.mgr.pins.Release(tx.ReadTS)
	tx.mgr.aborts.Add(1)
	return true
}
