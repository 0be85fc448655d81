// Spill I/O for bounded-memory operators.
//
// Spill files live on the governor's simulated disk device as append-only
// files of length-framed row blocks:
//
//	frame: 4-byte little-endian payload length, then payload
//	payload: concatenated types.AppendRow encodings
//
// The row encoding stores float bits verbatim, so a spilled row reloads
// bit-identically — the property every spilling operator's equivalence
// argument rests on. Writers buffer rows until flushAt bytes and retry
// clean injected write errors (disk.ErrInjected is a transient EIO) a few
// times; torn writes and crashes are not retried — the query fails cleanly
// through QueryMem.Fail. Readers stream one frame at a time, so reloading
// a spill file needs memory bounded by the frame size, not the file size.
package exec

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"htap/internal/disk"
	"htap/internal/types"
)

// coopYield yields the processor at morsel (batch) boundaries inside
// memory-governed operator loops — the spilling counterpart of
// sched.workerSet's per-unit Gosched. A grace join or external sort is a
// long CPU-bound loop; without these yields it monopolizes a core for
// whole scheduler slices on GOMAXPROCS=1 hosts and concurrent OLTP p99
// collapses (the memory gate in internal/chaos measures exactly this).
func coopYield() { runtime.Gosched() }

// spillFlushAt is the writer's buffered-bytes flush threshold; it bounds
// both writer memory and the reader's per-frame allocation.
const spillFlushAt = 64 << 10

// spillRetries bounds retries of clean injected write errors.
const spillRetries = 4

// spillTap, when non-nil, sees every frame a spill writer lands, in write
// order; tests pin the spill file bytes through it.
var spillTap func(name string, frame []byte)

// spillWriter appends framed rows to one spill file.
type spillWriter struct {
	qm   *QueryMem
	name string
	buf  []byte
	row  types.Row // addFrom's scratch row
}

func newSpillWriter(qm *QueryMem, kind string) *spillWriter {
	return &spillWriter{qm: qm, name: qm.newFile(kind)}
}

func (w *spillWriter) add(r types.Row) error {
	if len(w.buf) == 0 {
		w.buf = append(w.buf, 0, 0, 0, 0) // frame length placeholder
	}
	w.buf = types.AppendRow(w.buf, r)
	if len(w.buf) >= spillFlushAt {
		return w.flush()
	}
	return nil
}

// addFrom writes row i of b through the writer's scratch row: the same
// bytes add writes for the materialized row.
func (w *spillWriter) addFrom(b *Batch, i int) error {
	w.row = w.row[:0]
	for _, c := range b.Cols {
		w.row = append(w.row, c.Datum(i))
	}
	return w.add(w.row)
}

func (w *spillWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(w.buf, uint32(len(w.buf)-4))
	var err error
	for attempt := 0; attempt <= spillRetries; attempt++ {
		if attempt > 0 {
			spillRetryTotal.Inc()
		}
		start := time.Now()
		_, err = w.qm.g.dev.Append(w.name, w.buf)
		if err == nil {
			if spillTap != nil {
				spillTap(w.name, w.buf)
			}
			w.qm.noteSpillIO(int64(len(w.buf)), time.Since(start).Nanoseconds())
			w.qm.g.spillBytes.Add(int64(len(w.buf)))
			spillBytesTotal.Add(int64(len(w.buf)))
			w.buf = w.buf[:0]
			return nil
		}
		if err != disk.ErrInjected {
			break
		}
	}
	err = fmt.Errorf("exec: spill write %s: %w", w.name, err)
	w.qm.Fail(err)
	return err
}

// close flushes buffered rows; the file stays on disk for reading.
func (w *spillWriter) close() error { return w.flush() }

// spillCursor streams rows back from one spill file, one frame in memory
// at a time.
type spillCursor struct {
	qm   *QueryMem
	name string
	off  int64
	size int64
	rows []types.Row
	pos  int
}

func newSpillCursor(qm *QueryMem, name string) *spillCursor {
	return &spillCursor{qm: qm, name: name, size: qm.g.dev.Size(name)}
}

// next returns the next row; ok is false at end of file or on error (check
// err). Read failures also fail the query via QueryMem.Fail.
func (c *spillCursor) next() (types.Row, bool, error) {
	for c.pos >= len(c.rows) {
		if c.off >= c.size {
			return nil, false, nil
		}
		if err := c.readFrame(); err != nil {
			return nil, false, err
		}
	}
	r := c.rows[c.pos]
	c.pos++
	return r, true, nil
}

func (c *spillCursor) readFrame() error {
	var hdr [4]byte
	if err := c.fill(hdr[:]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || c.off+int64(n) > c.size {
		return c.fail(fmt.Errorf("exec: corrupt spill frame in %s", c.name))
	}
	payload := make([]byte, n)
	if err := c.fill(payload); err != nil {
		return err
	}
	c.rows = c.rows[:0]
	c.pos = 0
	for len(payload) > 0 {
		r, sz, err := types.DecodeRow(payload)
		if err != nil {
			return c.fail(fmt.Errorf("exec: corrupt spill row in %s: %w", c.name, err))
		}
		payload = payload[sz:]
		c.rows = append(c.rows, r)
	}
	return nil
}

func (c *spillCursor) fill(p []byte) error {
	start := time.Now()
	if err := c.qm.g.dev.ReadAt(c.name, p, c.off); err != nil {
		return c.fail(fmt.Errorf("exec: spill read %s: %w", c.name, err))
	}
	c.qm.noteSpillIO(0, time.Since(start).Nanoseconds())
	c.off += int64(len(p))
	c.qm.g.spillRead.Add(int64(len(p)))
	spillReadTotal.Add(int64(len(p)))
	return nil
}

func (c *spillCursor) fail(err error) error {
	c.qm.Fail(err)
	return err
}

// nextBatch reads up to BatchSize rows into a batch of schema; nil at end
// of file.
func (c *spillCursor) nextBatch(schema []types.Column) (*Batch, error) {
	b := NewBatch(schema, BatchSize)
	for b.N < BatchSize {
		r, ok, err := c.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		b.AppendRow(r)
	}
	if b.N == 0 {
		return nil, nil
	}
	return b, nil
}

// scatterRest scatters the rest of the file's rows, read as batches of
// schema, like scatter does.
func (c *spillCursor) scatterRest(ws []*spillWriter, schema []types.Column, keys []int, depth int) error {
	for {
		b, err := c.nextBatch(schema)
		if b == nil || err != nil {
			return err
		}
		if err := scatter(ws, keys, depth, b); err != nil {
			return err
		}
	}
}

// --- tagged rows ---

// A tagged row carries its original ordinal as an Int datum in column 0.
// Operators that partition a stream (grace join probe rows, aggregate
// input rows) tag rows before scattering; ordinals within each partition
// file stay ascending and are disjoint across files, so a k-way merge on
// the leading tag (sortMerge with tagOrder) reassembles the original order.

// tagSchema is schema behind a leading tag column.
func tagSchema(schema []types.Column) []types.Column {
	return append([]types.Column{{Name: "tag", Type: types.Int}}, schema...)
}

// tagged is b behind a tag column numbering its rows from first; it shares
// b's columns, and schema is tagSchema(b.Schema).
func tagged(schema []types.Column, b *Batch, first int64) *Batch {
	tags := make([]int64, b.N)
	for i := range tags {
		tags[i] = first + int64(i)
	}
	return &Batch{Schema: schema, Cols: append([]*Col{{Kind: types.Int, Ints: tags}}, b.Cols...), N: b.N}
}

// untag splits a tagged batch into its rows, sharing their columns, and
// their tags.
func untag(b *Batch) (*Batch, []int64) {
	return &Batch{Schema: b.Schema[1:], Cols: b.Cols[1:], N: b.N}, b.Cols[0].Ints
}

// --- partitioning ---

// spillFanout is the hash-partition fan-out of spilling operators.
const spillFanout = 8

// spillMaxDepth caps recursive re-partitioning; beyond it an operator
// processes the partition in memory and counts the over-budget event
// (pathological inputs: every row sharing one key).
const spillMaxDepth = 3

// partOf assigns a key hash to one of spillFanout partitions at the given
// recursion depth. Each depth remixes with a distinct odd multiplier so a
// partition that defeated one level's hash splits at the next.
func partOf(h uint64, depth int) int {
	h ^= uint64(depth+1) * 0x9E3779B97F4A7C15
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return int(h % spillFanout)
}

// newSpillWriters opens one writer per partition at depth.
func newSpillWriters(qm *QueryMem, kind string, depth int) []*spillWriter {
	ws := make([]*spillWriter, spillFanout)
	for i := range ws {
		ws[i] = newSpillWriter(qm, fmt.Sprintf("%s-d%d-p%d", kind, depth, i))
	}
	return ws
}

// scatter writes each row of bs, in order, to the writer its key hash
// selects at depth.
func scatter(ws []*spillWriter, keys []int, depth int, bs ...*Batch) error {
	var hs []uint64
	for _, b := range bs {
		hs = hashBatch(b, keys, hs[:0])
		for i, h := range hs {
			if err := ws[partOf(h, depth)].addFrom(b, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// closeAll closes writers, returning the first error.
func closeAll(ws []*spillWriter) error {
	var first error
	for _, w := range ws {
		if err := w.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
