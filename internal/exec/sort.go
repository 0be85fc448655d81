package exec

import (
	"container/heap"
	"context"
	"sort"

	"htap/internal/types"
)

// --- sort ---

// SortKey orders output by the named column.
type SortKey struct {
	Col  string
	Desc bool
}

// sortOp sorts its whole input. In-memory it is a stable slice sort; with
// a memory accountant over budget it becomes an external merge sort:
// consecutive input chunks are stable-sorted and spilled as runs, and a
// k-way merge with run-index tie-breaking streams them back. Because runs
// are consecutive input chunks and ties resolve to the earlier run, the
// merged order equals the in-memory stable sort bit-for-bit, whatever the
// (load-dependent, nondeterministic) spill points were.
type sortOp struct {
	in   Source
	keys []SortKey
	ctx  context.Context
	mem  *QueryMem
	st   *OpStats // profiling; nil when disabled

	done     bool
	rows     []types.Row
	pos      int
	curBytes int64
	runs     []string // spilled sorted runs, in input-chunk order
	merge    *sortMerge
	failed   bool
}

func (o *sortOp) attachStats(st *OpStats) { o.st = st }

func (o *sortOp) Schema() []types.Column { return o.in.Schema() }

// lessFn builds the row comparator for the sort keys.
func (o *sortOp) lessFn() func(a, b types.Row) bool {
	idxs := make([]int, len(o.keys))
	for i, k := range o.keys {
		idxs[i] = colIndex(o.in.Schema(), k.Col)
	}
	return func(a, b types.Row) bool {
		for ki, idx := range idxs {
			c := a[idx].Compare(b[idx])
			if c == 0 {
				continue
			}
			if o.keys[ki].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	}
}

func (o *sortOp) run() {
	less := o.lessFn()
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
		var sz int64
		for i := 0; i < b.N; i++ {
			r := b.Row(i)
			o.rows = append(o.rows, r)
			sz += rowBytes(r)
		}
		o.mem.Grow(sz)
		o.curBytes += sz
		if o.mem.Over() && len(o.rows) > 0 {
			o.flushRun(less)
		}
		if o.mem != nil {
			coopYield()
		}
	}
	sort.SliceStable(o.rows, func(a, b int) bool { return less(o.rows[a], o.rows[b]) })
	if len(o.runs) > 0 && !o.failed {
		var err error
		if o.merge, err = newSortMerge(o.mem, o.runs, o.rows, less); err != nil {
			o.failed = true
		}
	}
	o.done = true
}

// flushRun stable-sorts the buffered chunk and spills it as one run.
func (o *sortOp) flushRun(less func(a, b types.Row) bool) {
	sort.SliceStable(o.rows, func(a, b int) bool { return less(o.rows[a], o.rows[b]) })
	if len(o.runs) == 0 {
		o.mem.noteSpill(spillsSort, 0)
	}
	spillPartsTotal.Add(1)
	o.mem.addSpillParts(1)
	o.st.addSpillParts(1)
	w := newSpillWriter(o.mem, "sort-run")
	for _, r := range o.rows {
		if w.add(r) != nil {
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
	o.rows = nil
}

func (o *sortOp) Next() *Batch {
	if !o.done {
		o.run()
	}
	if o.failed || o.mem.Err() != nil {
		return nil
	}
	if o.merge != nil {
		b := NewBatch(o.Schema())
		for b.N < BatchSize {
			r, ok, err := o.merge.next()
			if err != nil {
				o.failed = true
				return nil
			}
			if !ok {
				break
			}
			b.AppendRow(r)
		}
		if b.N == 0 {
			return nil
		}
		return b
	}
	if o.pos >= len(o.rows) {
		return nil
	}
	b := NewBatch(o.Schema())
	for o.pos < len(o.rows) && b.N < BatchSize {
		b.AppendRow(o.rows[o.pos])
		o.pos++
	}
	return b
}

// sortRun is one merge input: a spilled run or the final in-memory chunk.
type sortRun struct {
	cur  *spillCursor // nil for the in-memory tail
	rows []types.Row
	pos  int
	head types.Row
	idx  int // input-chunk order, the stability tie-break
}

func (r *sortRun) advance() (ok bool, err error) {
	if r.cur != nil {
		r.head, ok, err = r.cur.next()
		return ok, err
	}
	if r.pos >= len(r.rows) {
		return false, nil
	}
	r.head = r.rows[r.pos]
	r.pos++
	return true, nil
}

// sortMerge streams the runs in less order: the one k-way merge. Ties
// between runs resolve to the lower run index — an external sort's runs
// are consecutive input chunks, so this reproduces the stability of a
// whole-input stable sort. Grace joins merge tagged file runs by tagLess,
// with no in-memory tail. Consumed run files are removed eagerly.
type sortMerge struct {
	qm *QueryMem
	h  sortRunHeap
}

type sortRunHeap struct {
	runs []*sortRun
	less func(a, b types.Row) bool
}

func (h sortRunHeap) Len() int { return len(h.runs) }
func (h sortRunHeap) Less(i, j int) bool {
	a, b := h.runs[i], h.runs[j]
	if h.less(a.head, b.head) {
		return true
	}
	if h.less(b.head, a.head) {
		return false
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

func newSortMerge(qm *QueryMem, runs []string, tail []types.Row, less func(a, b types.Row) bool) (*sortMerge, error) {
	m := &sortMerge{qm: qm}
	m.h.less = less
	for i, name := range runs {
		r := &sortRun{cur: newSpillCursor(qm, name), idx: i}
		if ok, err := r.advance(); err != nil {
			return nil, err
		} else if ok {
			m.h.runs = append(m.h.runs, r)
		} else {
			qm.removeFile(name)
		}
	}
	if len(tail) > 0 {
		r := &sortRun{rows: tail, idx: len(runs)}
		_, _ = r.advance()
		m.h.runs = append(m.h.runs, r)
	}
	heap.Init(&m.h)
	return m, nil
}

func (m *sortMerge) next() (types.Row, bool, error) {
	if err := m.qm.Err(); err != nil {
		return nil, false, err
	}
	if len(m.h.runs) == 0 {
		return nil, false, nil
	}
	top := m.h.runs[0]
	out := top.head
	ok, err := top.advance()
	if err != nil {
		return nil, false, err
	}
	if ok {
		heap.Fix(&m.h, 0)
	} else {
		if top.cur != nil {
			m.qm.removeFile(top.cur.name)
		}
		heap.Pop(&m.h)
	}
	return out, true, nil
}
