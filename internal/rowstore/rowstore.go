// Package rowstore implements the MVCC row store used as the OLTP side of
// every architecture in the paper's Figure 1.
//
// Rows live in version chains hung off a B+-tree primary-key index; each
// version carries a begin timestamp, matching §2.2(1): "An update creates a
// new version of a row with a new lifetime of a begin timestamp and an end
// timestamp" (the end timestamp is implicit here: a version ends where the
// next newer one begins, and deletions install tombstone versions). Old
// versions are reclaimed where they are made: the commit that installs a
// new version unlinks the ones below it that no pinned reader can see. The
// store can be memory-resident (architectures A, B, D) or disk-backed
// (architecture C's "Disk Row Store", which charges simulated I/O per row
// access).
package rowstore

import (
	"sync"

	"htap/internal/btree"
	"htap/internal/disk"
	"htap/internal/txn"
	"htap/internal/types"
)

// ErrNotFound is returned by transactional operations on a missing key:
// the existence rule's, which txn.Txn.Put applies.
var ErrNotFound = txn.ErrNotFound

type version struct {
	begin   uint64
	deleted bool
	row     types.Row
	next    *version
}

type chain struct{ head *version } // newest first

// visible returns the newest version with begin <= ts.
func (c *chain) visible(ts uint64) *version {
	for v := c.head; v != nil; v = v.next {
		if v.begin <= ts {
			return v
		}
	}
	return nil
}

// prune unlinks the versions below the newest one at or below horizon: a
// read at or above the horizon sees that version or a newer one, never an
// older one. It returns how many versions it unlinked.
func (c *chain) prune(horizon uint64) int64 {
	v := c.visible(horizon)
	if v == nil {
		return 0
	}
	n := int64(0)
	for d := v.next; d != nil; d = d.next {
		n++
	}
	v.next = nil
	return n
}

// Store is an MVCC row store for one table.
type Store struct {
	ID     uint32
	Schema *types.Schema

	mu  sync.RWMutex
	idx *btree.Tree[*chain]

	// Disk mode: when dev is non-nil every row read/written charges I/O
	// proportional to the row's estimated byte size.
	dev *disk.Device

	indexes  []*SecondaryIndex
	versions int64
	// pins bounds the read timestamps of the store's readers; Apply prunes
	// behind its horizon. A store without one keeps every version, since
	// its readers may read at any timestamp.
	pins Horizon
}

// Horizon is what a store prunes behind: no reader reads below it.
// *txn.Pins is one.
type Horizon interface{ Horizon() uint64 }

// New returns a memory-resident store.
func New(id uint32, schema *types.Schema) *Store {
	return &Store{ID: id, Schema: schema, idx: btree.New[*chain]()}
}

// NewDiskBacked returns a store whose row accesses charge I/O on dev.
func NewDiskBacked(id uint32, schema *types.Schema, dev *disk.Device) *Store {
	s := New(id, schema)
	s.dev = dev
	return s
}

// SetPins names the pin set that holds the read timestamps of every reader
// of the store. Call it before the first Apply.
func (s *Store) SetPins(p Horizon) { s.pins = p }

// horizon is the timestamp Apply prunes behind.
func (s *Store) horizon() uint64 {
	if s.pins == nil {
		return 0
	}
	return s.pins.Horizon()
}

// rowBytes estimates the stored size of a row for I/O accounting.
func (s *Store) rowBytes(r types.Row) int {
	n := 8
	for _, d := range r {
		n += 16 + len(d.S)
	}
	return n
}

func (s *Store) chargeRead(r types.Row) {
	if s.dev != nil && r != nil {
		s.dev.ChargeRead(s.rowBytes(r))
	}
}

func (s *Store) chargeWrite(r types.Row) {
	if s.dev != nil {
		s.dev.ChargeWrite(s.rowBytes(r))
	}
}

// Lookup implements txn.Reader for the store's own table: it charges no
// I/O, so the existence rule costs a disk-backed store nothing.
func (s *Store) Lookup(_ uint32, key int64, ts uint64) (row types.Row, live bool, latest uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.idx.Get(key)
	if !ok || c.head == nil {
		return nil, false, 0
	}
	if v := c.visible(ts); v != nil && !v.deleted {
		row, live = v.row, true
	}
	return row, live, c.head.begin
}

// LatestVersion returns the commit timestamp of the newest version of key
// (including tombstones), or 0 if the key was never written. Distributed
// prepare validation uses it.
func (s *Store) LatestVersion(key int64) uint64 {
	_, _, latest := s.Lookup(s.ID, key, 0)
	return latest
}

// Get returns the row visible to tx (honoring its own writes), or
// ErrNotFound.
func (s *Store) Get(tx *txn.Txn, key int64) (types.Row, error) {
	if w, ok := tx.GetWrite(s.ID, key); ok {
		if w.Op == txn.OpDelete {
			return nil, ErrNotFound
		}
		return w.Row, nil
	}
	return s.GetAt(tx.ReadTS, key)
}

// GetAt returns the row visible at snapshot ts, or ErrNotFound.
func (s *Store) GetAt(ts uint64, key int64) (types.Row, error) {
	s.mu.RLock()
	c, ok := s.idx.Get(key)
	var v *version
	if ok {
		v = c.visible(ts)
	}
	s.mu.RUnlock()
	if v == nil || v.deleted {
		return nil, ErrNotFound
	}
	s.chargeRead(v.row)
	return v.row, nil
}

// Insert buffers an insert in tx under the existence rule (txn.Txn.Put).
func (s *Store) Insert(tx *txn.Txn, row types.Row) error {
	return s.put(tx, txn.OpInsert, row)
}

// Update buffers an update of the full row image in tx.
func (s *Store) Update(tx *txn.Txn, row types.Row) error {
	return s.put(tx, txn.OpUpdate, row)
}

// Delete buffers a delete in tx.
func (s *Store) Delete(tx *txn.Txn, key int64) error {
	return tx.Put(s, s.ID, key, txn.OpDelete, nil)
}

func (s *Store) put(tx *txn.Txn, op txn.Op, row types.Row) error {
	if err := s.Schema.Validate(row); err != nil {
		return err
	}
	return tx.Put(s, s.ID, s.Schema.Key(row), op, row)
}

// Apply installs the subset of writes belonging to this table at commitTS,
// and prunes every chain it touches behind the pin set's horizon (see
// chain.prune). Engines call it from the txn.Commit apply callback, and
// recovery replays through it with nothing pinned, at the watermark.
func (s *Store) Apply(commitTS uint64, writes []txn.Write) {
	horizon := s.horizon()
	s.mu.Lock()
	for _, w := range writes {
		if w.Table != s.ID {
			continue
		}
		c, ok := s.idx.Get(w.Key)
		if !ok {
			c = &chain{}
			s.idx.Put(w.Key, c)
		}
		var oldRow types.Row
		if c.head != nil && !c.head.deleted {
			oldRow = c.head.row
		}
		v := &version{begin: commitTS, next: c.head}
		switch w.Op {
		case txn.OpDelete:
			v.deleted = true
		default:
			v.row = w.Row
		}
		c.head = v
		s.versions += 1 - c.prune(horizon)
		for _, ix := range s.indexes {
			ix.update(w.Key, oldRow, v.row)
		}
		s.chargeWrite(w.Row)
	}
	s.mu.Unlock()
}

// Load installs a row visible to every snapshot, bypassing transactions.
// Bulk loaders use it.
func (s *Store) Load(row types.Row) error {
	if err := s.Schema.Validate(row); err != nil {
		return err
	}
	key := s.Schema.Key(row)
	s.mu.Lock()
	c, ok := s.idx.Get(key)
	if !ok {
		c = &chain{}
		s.idx.Put(key, c)
	}
	var oldRow types.Row
	if c.head != nil && !c.head.deleted {
		oldRow = c.head.row
	}
	c.head = &version{begin: 0, row: row, next: c.head}
	s.versions++
	for _, ix := range s.indexes {
		ix.update(key, oldRow, row)
	}
	s.mu.Unlock()
	return nil
}

// Scan calls fn for every live row visible at ts, in key order, until fn
// returns false. Disk-backed stores charge one read per scanned row.
func (s *Store) Scan(ts uint64, fn func(key int64, row types.Row) bool) {
	s.ScanRange(ts, -1<<63, 1<<63-1, fn)
}

// ScanRange is Scan restricted to keys in [lo, hi].
func (s *Store) ScanRange(ts uint64, lo, hi int64, fn func(key int64, row types.Row) bool) {
	type hit struct {
		key int64
		row types.Row
	}
	// Collect under the read lock, invoke callbacks (which may charge
	// simulated I/O latency) outside it.
	var hits []hit
	s.mu.RLock()
	s.idx.AscendRange(lo, hi, func(k int64, c *chain) bool {
		if v := c.visible(ts); v != nil && !v.deleted {
			hits = append(hits, hit{k, v.row})
		}
		return true
	})
	s.mu.RUnlock()
	for _, h := range hits {
		s.chargeRead(h.row)
		if !fn(h.key, h.row) {
			return
		}
	}
}

// Count returns the number of live rows at snapshot ts.
func (s *Store) Count(ts uint64) int {
	n := 0
	s.mu.RLock()
	s.idx.Ascend(func(_ int64, c *chain) bool {
		if v := c.visible(ts); v != nil && !v.deleted {
			n++
		}
		return true
	})
	s.mu.RUnlock()
	return n
}

// Versions returns the number of row versions the store holds: every
// chain's head, and the older versions a pinned reader may still see.
func (s *Store) Versions() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.versions
}
