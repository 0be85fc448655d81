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

// View is the unmerged entries of a delta store captured at one instant.
// Entries appended or merged later do not change it.
type View interface {
	// Overlay returns the net effect of the captured entries with
	// CommitTS <= ts.
	Overlay(ts uint64) *Overlay
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
	// Publish runs publish — a merge making the column versions that now
	// hold the entries with CommitTS <= ts current — and discards those
	// entries, as one step: a View sees both or neither. publish may be
	// nil.
	Publish(ts uint64, publish func())
	// View runs load — which reads the column versions the delta feeds —
	// and captures the unmerged entries as one step with respect to
	// Publish, so the pair is one state: every entry is either in the
	// view or in what load read. load may be nil.
	View(load func()) View
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

// Overlay implements Store: every analytical scan of architecture A pays
// for the fold.
func (m *Mem) Overlay(ts uint64) *Overlay { return m.View(nil).Overlay(ts) }

// memView is a Mem's unmerged entries at one instant. Entries are only
// ever appended past a captured slice's end or copied away from it, never
// written inside it, so the view needs no lock.
type memView []Entry

// Overlay implements View.
func (v memView) Overlay(ts uint64) *Overlay {
	_, o := Fold(upTo(v, ts))
	return o
}

// View implements Store.
func (m *Mem) View(load func()) View {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if load != nil {
		load()
	}
	return memView(m.entries[m.merged:len(m.entries):len(m.entries)])
}

// Pending implements Store.
func (m *Mem) Pending(ts uint64) []Entry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]Entry(nil), m.visible(ts)...)
}

// visible returns the unmerged entries with CommitTS <= ts. The caller
// holds m.mu.
func (m *Mem) visible(ts uint64) []Entry { return upTo(m.entries[m.merged:], ts) }

// upTo returns the prefix of commit-ordered entries with CommitTS <= ts.
func upTo(es []Entry, ts uint64) []Entry {
	return es[:sort.Search(len(es), func(i int) bool { return es[i].CommitTS > ts })]
}

// Publish implements Store.
func (m *Mem) Publish(ts uint64, publish func()) {
	m.mu.Lock()
	if publish != nil {
		publish()
	}
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

	mu      sync.RWMutex
	idx     *btree.Tree[logRef] // key -> newest entry location
	offsets []int64             // entry offsets, in append order
	tsAt    []uint64            // commit TS per entry, parallel to offsets
	merged  int
	// pended is how far Pending has read: entries past it may have been
	// appended after a merge folded its batch, so Publish keeps them.
	pended   int
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

// logView is a Log's unmerged entries at one instant: their offsets and
// commit timestamps, and the end of the last one. The file is append-only,
// so the view stays readable after later appends and merges.
type logView struct {
	l    *Log
	offs []int64
	tss  []uint64
	end  int64
}

// view captures the unmerged entries. The caller holds l.mu.
func (l *Log) view() logView {
	n := len(l.offsets)
	return logView{l: l, offs: l.offsets[l.merged:n:n], tss: l.tsAt[l.merged:n:n], end: l.dev.Size(l.file)}
}

// entries reads and decodes the view's entries with CommitTS <= ts. A
// learner appends in its Raft log's order, which is not always commit
// order, so entries are filtered rather than cut at the first later one.
// They occupy one contiguous byte range, fetched with a single sequential
// read — the realistic access pattern, and one that keeps simulated I/O
// charges proportional to bytes rather than entry count.
func (v logView) entries(ts uint64) []Entry {
	last, count := -1, 0
	for i, t := range v.tss {
		if t <= ts {
			last, count = i, count+1
		}
	}
	if last < 0 {
		return nil
	}
	end := v.end
	if last+1 < len(v.offs) {
		end = v.offs[last+1]
	}
	buf := make([]byte, end-v.offs[0])
	if err := v.l.dev.ReadAt(v.l.file, buf, v.offs[0]); err != nil {
		panic(fmt.Sprintf("delta: reading log delta: %v", err))
	}
	out := make([]Entry, 0, count)
	pos := 0
	for i := 0; i <= last; i++ {
		if pos+4 > len(buf) {
			panic("delta: truncated log delta")
		}
		length := int(binary.BigEndian.Uint32(buf[pos : pos+4]))
		pos += 4
		if v.tss[i] <= ts {
			e, err := parseEntry(buf[pos : pos+length])
			if err != nil {
				panic(fmt.Sprintf("delta: corrupt log delta: %v", err))
			}
			out = append(out, e)
		}
		pos += length
	}
	return out
}

// Overlay implements View.
func (v logView) Overlay(ts uint64) *Overlay {
	_, o := Fold(v.entries(ts))
	return o
}

// View implements Store.
func (l *Log) View(load func()) View {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if load != nil {
		load()
	}
	return l.view()
}

// Overlay implements Store; it reads the unmerged entries from the
// simulated disk in one sequential pass.
func (l *Log) Overlay(ts uint64) *Overlay { return l.View(nil).Overlay(ts) }

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
	l.mu.Lock()
	v := l.view()
	l.pended = len(l.offsets)
	l.mu.Unlock()
	return v.entries(ts)
}

// Publish implements Store. Entries stay on the device. The merged prefix
// ends at the first entry newer than ts, so an older one applied after it
// is merged again next time, which re-applies the same image; and it never
// passes what the last Pending returned, so an older entry appended since
// is not discarded unmerged.
func (l *Log) Publish(ts uint64, publish func()) {
	l.mu.Lock()
	if publish != nil {
		publish()
	}
	i := l.merged
	for i < l.pended && l.tsAt[i] <= ts {
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
