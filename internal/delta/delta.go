// Package delta implements the delta stores that bridge OLTP writes and the
// column store.
//
// The paper's Table 2 contrasts two delta designs:
//
//   - the in-memory delta store used by Oracle dual-format, SQL Server,
//     DB2 BLU, Heatwave and HANA ("in-memory delta and column scan": high
//     freshness, large memory size), implemented here by Mem; and
//   - the log-based, disk-resident delta files used by TiDB ("log-based
//     delta and column scan": high scalability, low freshness, expensive
//     reads), implemented here by Log, whose entries live on a simulated
//     disk and are "indexed by a B+-tree, thus the delta items can be
//     efficiently located with key lookups" (§2.2(3)).
//
// Both present the same Store interface: transactions append committed
// writes; analytical scans request an Overlay — the net effect of unmerged
// entries visible at a snapshot — and the data-synchronization package
// drains entries into the column store and advances the merged watermark.
package delta

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"htap/internal/btree"
	"htap/internal/disk"
	"htap/internal/txn"
	"htap/internal/types"
)

// Entry is one committed write awaiting merge into the column store.
type Entry struct {
	CommitTS uint64
	txn.Write
}

// Overlay is the net effect of unmerged delta entries visible at a
// snapshot. Analytical scans apply it on top of the column store: rows in
// Rows are added, and any column-store row whose key is in Masked is
// skipped (it was updated or deleted after the column store's watermark).
type Overlay struct {
	Rows   map[int64]types.Row
	Masked map[int64]struct{}
	MaxTS  uint64
}

// Fold is the one fold of commit-ordered delta entries into net images:
// it returns the keys in first-seen order and an overlay whose Rows hold
// each key's newest image (nil, i.e. absent, when its newest entry deletes
// it), whose Masked holds every key, and whose MaxTS is the highest commit
// timestamp. Every overlay and every merge into a column store runs it.
func Fold(entries []Entry) (keys []int64, o *Overlay) {
	o = &Overlay{Rows: make(map[int64]types.Row), Masked: make(map[int64]struct{})}
	for _, e := range entries {
		n := len(o.Masked)
		if o.Masked[e.Key] = struct{}{}; len(o.Masked) > n {
			keys = append(keys, e.Key)
		}
		if e.Op == txn.OpDelete {
			delete(o.Rows, e.Key)
		} else {
			o.Rows[e.Key] = e.Row
		}
		o.MaxTS = max(o.MaxTS, e.CommitTS)
	}
	return keys, o
}

// Len returns the number of visible net images.
func (o *Overlay) Len() int { return len(o.Rows) }

// MaskOnly returns an overlay that suppresses the same column-store keys
// but contributes no rows. Layered stores (HANA's Main+L2+L1) scan several
// column tables under one delta: the delta's images must be emitted exactly
// once, so every scan but one uses the mask-only form.
func (o *Overlay) MaskOnly() *Overlay {
	return &Overlay{Rows: nil, Masked: o.Masked, MaxTS: o.MaxTS}
}

// Store is the common delta-store interface.
type Store interface {
	// Append records the committed writes of one transaction, in commit
	// order (callers append from inside the commit critical section or the
	// replication apply loop, both of which are ordered).
	Append(commitTS uint64, ws []txn.Write)
	// Overlay returns the net unmerged effect visible at ts.
	Overlay(ts uint64) *Overlay
	// Pending returns the unmerged entries with CommitTS <= ts, in order.
	Pending(ts uint64) []Entry
	// MarkMerged advances the merged watermark to ts, discarding entries
	// it covers.
	MarkMerged(ts uint64)
	// Unmerged reports how many entries await merging.
	Unmerged() int
	// Watermark returns the highest commit timestamp appended.
	Watermark() uint64
	// Bytes estimates the delta's memory footprint (Mem) or index+cache
	// footprint (Log).
	Bytes() int
}

// --- in-memory delta store ---

// Mem is the in-memory delta store of architectures A, C and D.
type Mem struct {
	mu      sync.RWMutex
	entries []Entry
	merged  int // prefix of entries already merged
	maxTS   uint64
}

// NewMem returns an empty in-memory delta store.
func NewMem() *Mem { return &Mem{} }

// Append implements Store.
func (m *Mem) Append(commitTS uint64, ws []txn.Write) {
	m.mu.Lock()
	for _, w := range ws {
		m.entries = append(m.entries, Entry{CommitTS: commitTS, Write: w})
	}
	if commitTS > m.maxTS {
		m.maxTS = commitTS
	}
	m.mu.Unlock()
}

// Overlay implements Store. It folds the entries in place, under the read
// lock: every analytical scan of architecture A pays for it.
func (m *Mem) Overlay(ts uint64) *Overlay {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, o := Fold(m.visible(ts))
	return o
}

// Pending implements Store.
func (m *Mem) Pending(ts uint64) []Entry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]Entry(nil), m.visible(ts)...)
}

// visible returns the unmerged entries with CommitTS <= ts: a prefix, since
// entries are commit-ordered. The caller holds m.mu.
func (m *Mem) visible(ts uint64) []Entry {
	es := m.entries[m.merged:]
	return es[:sort.Search(len(es), func(i int) bool { return es[i].CommitTS > ts })]
}

// MarkMerged implements Store.
func (m *Mem) MarkMerged(ts uint64) {
	m.mu.Lock()
	i := m.merged
	for i < len(m.entries) && m.entries[i].CommitTS <= ts {
		i++
	}
	m.merged = i
	// Reclaim the merged prefix once it dominates the slice.
	if m.merged > 4096 && m.merged*2 > len(m.entries) {
		m.entries = append([]Entry(nil), m.entries[m.merged:]...)
		m.merged = 0
	}
	m.mu.Unlock()
}

// Unmerged implements Store.
func (m *Mem) Unmerged() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.entries) - m.merged
}

// Watermark implements Store.
func (m *Mem) Watermark() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.maxTS
}

// Bytes implements Store.
func (m *Mem) Bytes() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, e := range m.entries[m.merged:] {
		n += entryBytes(e)
	}
	return n
}

func entryBytes(e Entry) int {
	n := 24
	for _, d := range e.Row {
		n += 16 + len(d.S)
	}
	return n
}

// --- log-based (disk) delta store ---

// Log is the disk-resident, log-structured delta store of architecture B.
// Entries are appended to a simulated disk file; a B+-tree maps keys to the
// file offset of their newest entry. Reading the overlay pays disk I/O,
// which is exactly the paper's "more expensive due to reading the delta
// files" cost.
type Log struct {
	dev  *disk.Device
	file string

	mu       sync.RWMutex
	idx      *btree.Tree[logRef] // key -> newest entry location
	offsets  []int64             // commit-ordered entry offsets
	tsAt     []uint64            // commit TS per entry, parallel to offsets
	merged   int
	maxTS    uint64
	appended int64
}

// logRef locates a key's newest entry and caches its commit timestamp so
// version checks need no I/O.
type logRef struct {
	off int64
	ts  uint64
}

// NewLog returns a log-based delta store writing to the named file on dev.
func NewLog(dev *disk.Device, file string) *Log {
	return &Log{dev: dev, file: file, idx: btree.New[logRef]()}
}

// An entry on the device is u32 length | uvarint commitTS | txn.AppendWrite.

// Append implements Store.
func (l *Log) Append(commitTS uint64, ws []txn.Write) {
	l.mu.Lock()
	defer l.mu.Unlock()
	base := l.dev.Size(l.file)
	var buf []byte
	offs := make([]int64, len(ws))
	for i, w := range ws {
		start := len(buf)
		offs[i] = base + int64(start)
		buf = append(buf, 0, 0, 0, 0)
		buf = binary.AppendUvarint(buf, commitTS)
		buf = txn.AppendWrite(buf, w)
		binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	}
	if len(buf) > 0 {
		if _, err := l.dev.Append(l.file, buf); err != nil {
			panic(fmt.Sprintf("delta: append to simulated device failed: %v", err))
		}
	}
	for i, w := range ws {
		l.idx.Put(w.Key, logRef{off: offs[i], ts: commitTS})
		l.offsets = append(l.offsets, offs[i])
		l.tsAt = append(l.tsAt, commitTS)
	}
	l.maxTS = max(l.maxTS, commitTS)
	l.appended += int64(len(ws))
}

// parseEntry decodes one entry's bytes after its length prefix.
func parseEntry(p []byte) (Entry, error) {
	ts, n := binary.Uvarint(p)
	if n <= 0 {
		return Entry{}, errors.New("delta: bad commit ts")
	}
	w, _, err := txn.DecodeWrite(p[n:])
	return Entry{CommitTS: ts, Write: w}, err
}

// readEntry reads and decodes the entry at off, paying device I/O.
func (l *Log) readEntry(off int64) (Entry, error) {
	var hdr [4]byte
	if err := l.dev.ReadAt(l.file, hdr[:], off); err != nil {
		return Entry{}, err
	}
	length := binary.BigEndian.Uint32(hdr[:])
	payload := make([]byte, length)
	if err := l.dev.ReadAt(l.file, payload, off+4); err != nil {
		return Entry{}, err
	}
	return parseEntry(payload)
}

// readRange reads and decodes the unmerged entries with CommitTS <= ts.
// The delta file is log-structured, so these entries occupy one contiguous
// byte range, fetched with a single sequential read — the realistic access
// pattern, and one that keeps simulated I/O charges proportional to bytes
// rather than entry count.
func (l *Log) readRange(ts uint64) []Entry {
	l.mu.RLock()
	first, count := -1, 0
	for i := l.merged; i < len(l.offsets); i++ {
		if l.tsAt[i] > ts {
			break
		}
		if first < 0 {
			first = i
		}
		count++
	}
	var start, end int64
	if first >= 0 {
		start = l.offsets[first]
		if next := first + count; next < len(l.offsets) {
			end = l.offsets[next]
		} else {
			end = l.dev.Size(l.file)
		}
	}
	l.mu.RUnlock()
	if count == 0 {
		return nil
	}
	buf := make([]byte, end-start)
	if err := l.dev.ReadAt(l.file, buf, start); err != nil {
		panic(fmt.Sprintf("delta: reading log delta: %v", err))
	}
	out := make([]Entry, 0, count)
	pos := 0
	for len(out) < count {
		if pos+4 > len(buf) {
			panic("delta: truncated log delta")
		}
		length := int(binary.BigEndian.Uint32(buf[pos : pos+4]))
		pos += 4
		e, err := parseEntry(buf[pos : pos+length])
		if err != nil {
			panic(fmt.Sprintf("delta: corrupt log delta: %v", err))
		}
		pos += length
		out = append(out, e)
	}
	return out
}

// Overlay implements Store; it reads the unmerged entries from the
// simulated disk in one sequential pass.
func (l *Log) Overlay(ts uint64) *Overlay {
	_, o := Fold(l.readRange(ts))
	return o
}

// Lookup returns the newest entry for key, reading it from disk via the
// B+-tree index (the key-lookup fast path of §2.2(3)(ii)).
func (l *Log) Lookup(key int64) (Entry, bool) {
	l.mu.RLock()
	ref, ok := l.idx.Get(key)
	l.mu.RUnlock()
	if !ok {
		return Entry{}, false
	}
	e, err := l.readEntry(ref.off)
	if err != nil {
		return Entry{}, false
	}
	return e, true
}

// LatestTS returns the commit timestamp of the newest entry for key (0 if
// absent) without touching the device; distributed prepare validation uses
// it on learner replicas.
func (l *Log) LatestTS(key int64) uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	ref, ok := l.idx.Get(key)
	if !ok {
		return 0
	}
	return ref.ts
}

// Pending implements Store.
func (l *Log) Pending(ts uint64) []Entry {
	return l.readRange(ts)
}

// MarkMerged implements Store.
func (l *Log) MarkMerged(ts uint64) {
	l.mu.Lock()
	i := l.merged
	for i < len(l.tsAt) && l.tsAt[i] <= ts {
		i++
	}
	l.merged = i
	l.mu.Unlock()
}

// Unmerged implements Store.
func (l *Log) Unmerged() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.offsets) - l.merged
}

// Watermark implements Store.
func (l *Log) Watermark() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.maxTS
}

// Bytes implements Store: only the index and offset arrays live in memory;
// entry payloads are on disk.
func (l *Log) Bytes() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return 16*(len(l.offsets)-l.merged) + 24*l.idx.Len()
}

var (
	_ Store = (*Mem)(nil)
	_ Store = (*Log)(nil)
)
