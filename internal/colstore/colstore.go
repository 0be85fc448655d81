package colstore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"htap/internal/bitmap"
	"htap/internal/types"
)

// SegmentRows is the target number of rows per sealed segment.
const SegmentRows = 4096

// ZoneMap holds per-column min/max statistics for one segment; scans use it
// to prune segments that cannot match a range predicate.
type ZoneMap struct {
	MinInt, MaxInt     int64
	MinFloat, MaxFloat float64
	MinStr, MaxStr     string
	valid              bool
}

// PruneInt reports whether the segment can be skipped for a predicate
// requiring the column to intersect [lo, hi].
func (z *ZoneMap) PruneInt(lo, hi int64) bool {
	return z.valid && (hi < z.MinInt || lo > z.MaxInt)
}

// PruneFloat reports whether the segment can be skipped for a predicate
// requiring the float column to intersect [lo, hi]. Unbounded ends are
// expressed with ±Inf.
func (z *ZoneMap) PruneFloat(lo, hi float64) bool {
	return z.valid && (hi < z.MinFloat || lo > z.MaxFloat)
}

// PruneStr reports whether the segment can be skipped for a predicate
// requiring the string column to intersect [lo, hi]. hiBounded false means
// the range is [lo, +inf); lo's natural zero "" is already unbounded below.
func (z *ZoneMap) PruneStr(lo, hi string, hiBounded bool) bool {
	return z.valid && ((hiBounded && hi < z.MinStr) || lo > z.MaxStr)
}

// PruneStrPrefix reports whether no value in the segment can start with
// prefix, using only the string min/max bounds.
func (z *ZoneMap) PruneStrPrefix(prefix string) bool {
	if !z.valid {
		return false
	}
	if z.MaxStr < prefix {
		return true
	}
	if succ, ok := PrefixSucc(prefix); ok && z.MinStr >= succ {
		return true
	}
	return false
}

// PrefixSucc returns the smallest string ordered after every string with
// the given prefix, and false when no such string exists (the prefix is
// empty or all 0xff bytes).
func PrefixSucc(p string) (string, bool) {
	b := []byte(p)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xff {
			b[i]++
			return string(b[:i+1]), true
		}
	}
	return "", false
}

// Segment is an immutable block of encoded column vectors. Deletes never
// touch it: they are bits in the delete bitmaps of the Version that
// publishes it, so concurrent scans need no row locks — the classic
// read-optimized main store.
type Segment struct {
	N     int
	Cols  []Vector
	Keys  []int64 // decoded primary keys, parallel to rows
	Zones []ZoneMap
}

// Bytes estimates the encoded size of the segment.
func (s *Segment) Bytes() int {
	n := 8 * len(s.Keys)
	for _, c := range s.Cols {
		n += c.Bytes()
	}
	return n
}

// Row materializes row i as a types.Row.
func (s *Segment) Row(i int) types.Row {
	r := make(types.Row, len(s.Cols))
	for c, v := range s.Cols {
		r[c] = v.Datum(i)
	}
	return r
}

// Morsel is a contiguous run of rows [Lo, Hi) within one segment: the unit
// of work morsel-driven parallel scans hand to worker goroutines. Segments
// and the delete bitmap of the version the morsel was cut from are both
// immutable, so a morsel can be scanned without coordination.
type Morsel struct {
	Seg    *Segment
	Del    *bitmap.Bitmap
	Lo, Hi int
}

// Version is one published state of a table: its sealed segments, each
// segment's delete bitmap as of publication, and the commit watermark they
// cover. Nothing in a version changes once it is published. Writers build
// the next one copy-on-write — new slices, clones of only the bitmaps they
// touch — and publish it through one atomic pointer, so a reader holding a
// version reads one state of the table for as long as it holds it.
type Version struct {
	Schema  *types.Schema
	Segs    []*Segment
	Dels    []*bitmap.Bitmap // parallel to Segs
	Applied uint64           // commit watermark the segments cover
	t       *Table
}

// Morsels cuts the version's segments into morsels of at most rows rows
// each, in segment-then-offset order. The cut depends only on segment sizes
// — never on timing — so a scan partitioned over the same version yields
// the same morsel list every time.
func (v *Version) Morsels(rows int) []Morsel {
	if rows <= 0 {
		rows = SegmentRows
	}
	var ms []Morsel
	for i, seg := range v.Segs {
		for lo := 0; lo < seg.N; lo += rows {
			ms = append(ms, Morsel{Seg: seg, Del: v.Dels[i], Lo: lo, Hi: min(lo+rows, seg.N)})
		}
	}
	return ms
}

// LiveRows returns the number of live rows in the version.
func (v *Version) LiveRows() int {
	n := 0
	for i, s := range v.Segs {
		n += s.N - v.Dels[i].Count()
	}
	return n
}

// Bytes estimates the memory footprint of the version's segments.
func (v *Version) Bytes() int {
	n := 0
	for _, s := range v.Segs {
		n += s.Bytes()
	}
	return n
}

// SelObserver returns the selection-density observer registered on the
// version's table, or nil.
func (v *Version) SelObserver() func(sel float64) {
	if f := v.t.selObs.Load(); f != nil {
		return *f
	}
	return nil
}

type loc struct {
	seg int
	idx int
}

// Table is a columnar table: the published Version readers scan, plus the
// writer-side state that builds the next one — the buffered load tail and
// the key locator used to propagate updates and deletes from the row side
// during data synchronization.
type Table struct {
	Schema *types.Schema

	cur atomic.Pointer[Version]
	// mu serializes writers; readers never take it (GetKey excepted, which
	// resolves a key through the writer-side locator).
	mu       sync.Mutex
	buf      []types.Row // loaded rows awaiting their segment (see Append)
	buffered atomic.Bool // len(buf) > 0
	locator  map[int64]loc
	rebuild  atomic.Int64 // count of full rebuilds (DS technique iii)
	merges   atomic.Int64 // count of delta merges (DS techniques i/ii)
	selObs   atomic.Pointer[func(sel float64)]
}

// SetSelObserver registers a callback invoked with the observed selection
// density (selected / scanned rows) each time a scan evaluates pushed-down
// predicates over one of this table's segments. Engines use it to feed the
// planner's selectivity feedback. fn must be safe for concurrent calls.
func (t *Table) SetSelObserver(fn func(sel float64)) { t.selObs.Store(&fn) }

// NewTable returns an empty columnar table.
func NewTable(schema *types.Schema) *Table {
	t := &Table{Schema: schema, locator: make(map[int64]loc)}
	t.cur.Store(&Version{Schema: schema, t: t})
	return t
}

// Version returns the published version. Rows buffered by Append are not
// in it until Flush seals them.
func (t *Table) Version() *Version { return t.cur.Load() }

// Edit is the next version of a table under construction. It holds the
// table's writer lock from Table.Edit until Publish; readers keep scanning
// the published version meanwhile and never see a half-built one. A merge
// builds its edit first and publishes it inside the delta's lock
// (delta.Store.Publish), so commits appending to that delta wait for a
// pointer store, not for the merge's bookkeeping.
type Edit struct {
	t     *Table
	v     *Version
	owned []bool // Dels[i] is this edit's own copy
}

// Edit starts the next version of t, sealing any buffered loads into it.
// Callers seal large row sets with Seal before calling Edit, so the writer
// lock covers bookkeeping only, never encoding.
func (t *Table) Edit() *Edit {
	t.mu.Lock()
	cur := t.cur.Load()
	e := &Edit{t: t, v: &Version{
		Schema:  t.Schema,
		Segs:    cur.Segs[:len(cur.Segs):len(cur.Segs)],
		Dels:    append([]*bitmap.Bitmap(nil), cur.Dels...),
		Applied: cur.Applied,
		t:       t,
	}, owned: make([]bool, len(cur.Segs))}
	if len(t.buf) > 0 {
		e.Add(buildSegment(t.Schema, t.buf))
		t.buf = nil
		t.buffered.Store(false)
	}
	return e
}

// Delete marks the live image of key deleted in the next version,
// reporting whether there was one.
func (e *Edit) Delete(key int64) bool {
	l, ok := e.t.locator[key]
	if ok {
		delete(e.t.locator, key)
		e.del(l)
	}
	return ok
}

func (e *Edit) del(l loc) {
	if !e.owned[l.seg] {
		e.v.Dels[l.seg] = e.v.Dels[l.seg].Clone()
		e.owned[l.seg] = true
	}
	e.v.Dels[l.seg].Set(l.idx)
}

// Add appends sealed segments to the next version. Every key they hold
// supersedes its older image (upsert).
func (e *Edit) Add(segs ...*Segment) {
	for _, seg := range segs {
		si := len(e.v.Segs)
		e.v.Segs = append(e.v.Segs, seg)
		e.v.Dels = append(e.v.Dels, bitmap.New(seg.N))
		e.owned = append(e.owned, true)
		for i, k := range seg.Keys {
			if old, ok := e.t.locator[k]; ok {
				e.del(old)
			}
			e.t.locator[k] = loc{si, i}
		}
	}
}

// SetApplied raises the next version's applied watermark.
func (e *Edit) SetApplied(ts uint64) { e.v.Applied = max(e.v.Applied, ts) }

// Reset empties the next version: rebuild-from-row-store starts from it.
func (e *Edit) Reset() {
	e.v.Segs, e.v.Dels, e.owned, e.v.Applied = nil, nil, nil, 0
	e.t.locator = make(map[int64]loc)
	e.t.rebuild.Add(1)
}

// Publish makes the next version the table's published one and releases
// the writer lock.
func (e *Edit) Publish() {
	e.t.cur.Store(e.v)
	e.t.mu.Unlock()
}

// Seal encodes rows into segments of at most SegmentRows rows without
// touching the table; Edit.Add publishes them.
func (t *Table) Seal(rows []types.Row) []*Segment {
	var segs []*Segment
	for len(rows) > 0 {
		n := min(len(rows), SegmentRows)
		segs = append(segs, buildSegment(t.Schema, rows[:n]))
		rows = rows[n:]
	}
	return segs
}

func buildSegment(schema *types.Schema, rows []types.Row) *Segment {
	n := len(rows)
	seg := &Segment{
		N:     n,
		Cols:  make([]Vector, len(schema.Cols)),
		Keys:  make([]int64, n),
		Zones: make([]ZoneMap, len(schema.Cols)),
	}
	for i, r := range rows {
		seg.Keys[i] = schema.Key(r)
	}
	for c, col := range schema.Cols {
		switch col.Type {
		case types.Int:
			vals := make([]int64, n)
			z := &seg.Zones[c]
			for i, r := range rows {
				v := r[c].Int()
				vals[i] = v
				if i == 0 || v < z.MinInt {
					z.MinInt = v
				}
				if i == 0 || v > z.MaxInt {
					z.MaxInt = v
				}
			}
			z.valid = true
			seg.Cols[c] = EncodeInts(vals)
		case types.Float:
			vals := make([]float64, n)
			z := &seg.Zones[c]
			for i, r := range rows {
				v := r[c].Float()
				vals[i] = v
				if i == 0 || v < z.MinFloat {
					z.MinFloat = v
				}
				if i == 0 || v > z.MaxFloat {
					z.MaxFloat = v
				}
			}
			z.valid = true
			seg.Cols[c] = EncodeFloats(vals)
		case types.String:
			vals := make([]string, n)
			z := &seg.Zones[c]
			for i, r := range rows {
				v := r[c].Str()
				vals[i] = v
				if i == 0 || v < z.MinStr {
					z.MinStr = v
				}
				if i == 0 || v > z.MaxStr {
					z.MaxStr = v
				}
			}
			z.valid = true
			seg.Cols[c] = EncodeStrings(vals)
		default:
			panic(fmt.Sprintf("colstore: unsupported column type %v", col.Type))
		}
	}
	return seg
}

// Append buffers one row, sealing a full segment every SegmentRows rows.
// Bulk loaders call it per row; the buffered tail becomes visible to scans
// and key lookups at the next Flush (GetKey, Edit and the table statistics
// flush implicitly).
func (t *Table) Append(row types.Row) {
	t.mu.Lock()
	t.buf = append(t.buf, row)
	t.buffered.Store(true)
	full := len(t.buf) >= SegmentRows
	t.mu.Unlock()
	if full {
		t.Flush()
	}
}

// Flush seals any buffered rows into a segment.
func (t *Table) Flush() {
	if t.buffered.Load() {
		t.Edit().Publish()
	}
}

// AppendRows seals rows into one or more segments and publishes them; any
// buffered loads are sealed first. The upsert resolves supersession
// through the key locator, which only indexes sealed segments — a stale
// image still sitting in the buffer would otherwise dodge the tombstone
// and, once flushed, supersede the newer image.
func (t *Table) AppendRows(rows []types.Row) {
	segs := t.Seal(rows)
	e := t.Edit()
	e.Add(segs...)
	e.Publish()
}

// DeleteKey marks the live image of key deleted, reporting whether it was
// present.
func (t *Table) DeleteKey(key int64) bool {
	e := t.Edit()
	ok := e.Delete(key)
	e.Publish()
	return ok
}

// GetKey materializes the live image of key in the published version.
func (t *Table) GetKey(key int64) (types.Row, bool) {
	t.Flush()
	t.mu.Lock()
	l, ok := t.locator[key]
	v := t.cur.Load()
	t.mu.Unlock()
	if !ok || v.Dels[l.seg].Get(l.idx) {
		return nil, false
	}
	return v.Segs[l.seg].Row(l.idx), true
}

// LiveRows returns the number of live rows across all segments.
func (t *Table) LiveRows() int { return t.Stats().LiveRows }

// Bytes estimates the memory footprint of all segments.
func (t *Table) Bytes() int { return t.Stats().Bytes }

// Applied returns the commit watermark the published segments cover; rows
// committed after it are only visible through a delta store. This is the
// freshness boundary of §2.2(2).
func (t *Table) Applied() uint64 { return t.cur.Load().Applied }

// SetApplied raises the applied watermark.
func (t *Table) SetApplied(ts uint64) {
	e := t.Edit()
	e.SetApplied(ts)
	e.Publish()
}

// NoteMerge bumps the merge counter (stats only).
func (t *Table) NoteMerge() { t.merges.Add(1) }

// Stats describes a table's physical state.
type Stats struct {
	Segments int
	LiveRows int
	Bytes    int
	Merges   int64
	Rebuilds int64
	Applied  uint64
}

// Stats returns a snapshot of table statistics.
func (t *Table) Stats() Stats {
	t.Flush()
	v := t.Version()
	return Stats{Segments: len(v.Segs), LiveRows: v.LiveRows(), Bytes: v.Bytes(),
		Merges: t.merges.Load(), Rebuilds: t.rebuild.Load(), Applied: v.Applied}
}
