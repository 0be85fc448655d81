package exec

import (
	"container/heap"
	"context"
	"slices"

	"htap/internal/types"
)

// --- sort ---

// SortKey orders output by the named column.
type SortKey struct {
	Col  string
	Desc bool
}

// sortOp sorts its whole input. It holds the input batches and
// stable-sorts references to their rows, so no row is materialized; this
// relies on no operator reusing a batch it has returned. With a memory
// accountant over budget it becomes an external merge sort: consecutive
// input chunks are stable-sorted and spilled as runs, and a k-way merge
// with run-index tie-breaking streams them back. Because runs are
// consecutive input chunks and ties resolve to the earlier run, the merged
// order equals the in-memory stable sort bit-for-bit, whatever the
// (load-dependent, nondeterministic) spill points were.
type sortOp struct {
	in   Source
	keys []SortKey
	ctx  context.Context
	mem  *QueryMem
	st   *OpStats // profiling; nil when disabled

	done     bool
	rows     sortedRows // the buffered chunk
	curBytes int64
	runs     []string // spilled sorted runs, in input-chunk order
	merge    *sortMerge
	failed   bool
}

// rowRef is row i of batch b of a sortedRows.
type rowRef struct{ b, i int32 }

// sortedRows is an order over buffered batch rows: perm lists them in
// output order, pos the next one to emit.
type sortedRows struct {
	batches []*Batch
	perm    []rowRef
	pos     int
}

// add buffers b, its rows in input order.
func (s *sortedRows) add(b *Batch) {
	bi := int32(len(s.batches))
	s.batches = append(s.batches, b)
	for i := 0; i < b.N; i++ {
		s.perm = append(s.perm, rowRef{bi, int32(i)})
	}
}

// sort stable-sorts the buffered rows by ord.
func (s *sortedRows) sort(ord rowOrder) {
	slices.SortStableFunc(s.perm, func(x, y rowRef) int {
		return ord.compare(s.batches[x.b], int(x.i), s.batches[y.b], int(y.i))
	})
}

// next returns the position of the next row, or a nil batch when none is
// left; it never fails.
func (s *sortedRows) next() (*Batch, int, error) {
	if s.pos >= len(s.perm) {
		return nil, 0, nil
	}
	r := s.perm[s.pos]
	s.pos++
	return s.batches[r.b], int(r.i), nil
}

func (o *sortOp) attachStats(st *OpStats) { o.st = st }

func (o *sortOp) Schema() []types.Column { return o.in.Schema() }

func (o *sortOp) run() {
	ord := newRowOrder(o.in.Schema(), o.keys, false)
	for {
		if o.ctx != nil && o.ctx.Err() != nil {
			break
		}
		if o.mem.Err() != nil {
			o.failed = true
			o.done = true
			return
		}
		b := o.in.Next()
		if b == nil {
			break
		}
		o.rows.add(b)
		sz := rowsBytes(b)
		o.mem.Grow(sz)
		o.curBytes += sz
		if o.mem.Over() && len(o.rows.perm) > 0 {
			o.flushRun(ord)
		}
		if o.mem != nil {
			coopYield()
		}
	}
	o.rows.sort(ord)
	if len(o.runs) > 0 && !o.failed {
		var err error
		if o.merge, err = newSortMerge(o.mem, o.runs, o.Schema(), &o.rows, ord); err != nil {
			o.failed = true
		}
	}
	o.done = true
}

// flushRun stable-sorts the buffered chunk and spills it as one run.
func (o *sortOp) flushRun(ord rowOrder) {
	o.rows.sort(ord)
	if len(o.runs) == 0 {
		o.mem.noteSpill(spillsSort, 0)
	}
	spillPartsTotal.Add(1)
	o.mem.addSpillParts(1)
	o.st.addSpillParts(1)
	w := newSpillWriter(o.mem, "sort-run")
	for b, i, _ := o.rows.next(); b != nil; b, i, _ = o.rows.next() {
		if w.addFrom(b, i) != nil {
			o.failed = true
			break
		}
	}
	if !o.failed && w.close() != nil {
		o.failed = true
	}
	o.runs = append(o.runs, w.name)
	o.mem.Shrink(o.curBytes)
	o.curBytes = 0
	clear(o.rows.batches)
	o.rows = sortedRows{batches: o.rows.batches[:0], perm: o.rows.perm[:0]}
}

func (o *sortOp) Next() *Batch {
	if !o.done {
		o.run()
	}
	if o.failed || o.mem.Err() != nil {
		return nil
	}
	next := o.rows.next
	if o.merge != nil {
		next = o.merge.next
	}
	out, err := gatherRows(o.Schema(), 0, next)
	o.failed = err != nil
	return out
}

// sortRun is one merge input: a spilled run read a batch at a time, or
// the final in-memory chunk. Its head is row i of batch b.
type sortRun struct {
	cur    *spillCursor // nil for the in-memory tail
	schema []types.Column
	tail   *sortedRows
	b      *Batch
	i      int
	idx    int // input-chunk order, the stability tie-break
}

func (r *sortRun) advance() (ok bool, err error) {
	if r.cur == nil {
		r.b, r.i, _ = r.tail.next()
		return r.b != nil, nil
	}
	if r.i++; r.b != nil && r.i < r.b.N {
		return true, nil
	}
	r.b, err = r.cur.nextBatch(r.schema)
	r.i = 0
	return r.b != nil, err
}

// sortMerge streams the runs in row order: the one k-way merge. Ties
// between runs resolve to the lower run index — an external sort's runs
// are consecutive input chunks, so this reproduces the stability of a
// whole-input stable sort. Grace joins merge tagged file runs by
// tagOrder, with no in-memory tail. Consumed run files are removed
// eagerly.
type sortMerge struct {
	qm *QueryMem
	h  sortRunHeap
}

type sortRunHeap struct {
	runs []*sortRun
	ord  rowOrder
}

func (h sortRunHeap) Len() int { return len(h.runs) }
func (h sortRunHeap) Less(i, j int) bool {
	a, b := h.runs[i], h.runs[j]
	if c := h.ord.compare(a.b, a.i, b.b, b.i); c != 0 {
		return c < 0
	}
	return a.idx < b.idx
}
func (h sortRunHeap) Swap(i, j int)       { h.runs[i], h.runs[j] = h.runs[j], h.runs[i] }
func (h *sortRunHeap) Push(x interface{}) { h.runs = append(h.runs, x.(*sortRun)) }
func (h *sortRunHeap) Pop() interface{} {
	old := h.runs
	n := len(old)
	x := old[n-1]
	h.runs = old[:n-1]
	return x
}

// newSortMerge merges the spilled runs, whose rows have schema, and the
// in-memory tail (nil for none) after them.
func newSortMerge(qm *QueryMem, runs []string, schema []types.Column, tail *sortedRows, ord rowOrder) (*sortMerge, error) {
	m := &sortMerge{qm: qm}
	m.h.ord = ord
	for i, name := range runs {
		r := &sortRun{cur: newSpillCursor(qm, name), schema: schema, idx: i}
		if ok, err := r.advance(); err != nil {
			return nil, err
		} else if ok {
			m.h.runs = append(m.h.runs, r)
		} else {
			qm.removeFile(name)
		}
	}
	if tail != nil {
		r := &sortRun{tail: tail, idx: len(runs)}
		if ok, _ := r.advance(); ok {
			m.h.runs = append(m.h.runs, r)
		}
	}
	heap.Init(&m.h)
	return m, nil
}

// next returns the position of the next row, or a nil batch at the end.
// The batch stays valid after later calls.
func (m *sortMerge) next() (*Batch, int, error) {
	if err := m.qm.Err(); err != nil {
		return nil, 0, err
	}
	if len(m.h.runs) == 0 {
		return nil, 0, nil
	}
	top := m.h.runs[0]
	b, i := top.b, top.i
	ok, err := top.advance()
	if err != nil {
		return nil, 0, err
	}
	if ok {
		heap.Fix(&m.h, 0)
	} else {
		if top.cur != nil {
			m.qm.removeFile(top.cur.name)
		}
		heap.Pop(&m.h)
	}
	return b, i, nil
}
