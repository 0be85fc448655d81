package exec

import (
	"container/heap"

	"htap/internal/types"
)

// topKOp keeps only the k smallest rows under the sort keys, using a
// bounded max-heap instead of materializing and sorting the whole input —
// the standard optimization for the ORDER BY ... LIMIT k shape every "top
// customers/items" CH query has. The retained rows live in a k-row batch
// of the operator's own; an evicted row's slot is overwritten in place, so
// no input batch is held.
//
// Rows compare under a TOTAL order: the sort keys first, then every
// column ascending. The tie-break matters for distributed pushdown: with
// a keys-only comparator, which of two key-equal rows survives a shard's
// local top-k depends on heap layout, so a pushed plan could retain a
// different key-equal row than an unpushed one. Under a total order every
// top-k over the same multiset retains the same rows, wherever the
// k-boundary ties fall.
type topKOp struct {
	in   Source
	keys []SortKey
	k    int

	done bool
	rows sortedRows
}

// topKHeap is a heap of slots of kept. Less inverts the order: the root
// is the WORST retained row, so it is the one a better candidate evicts.
type topKHeap struct {
	kept  *Batch
	slots []int32
	ord   rowOrder
}

func (h *topKHeap) Len() int { return len(h.slots) }
func (h *topKHeap) Less(i, j int) bool {
	return h.ord.compare(h.kept, int(h.slots[j]), h.kept, int(h.slots[i])) < 0
}
func (h *topKHeap) Swap(i, j int) { h.slots[i], h.slots[j] = h.slots[j], h.slots[i] }
func (h *topKHeap) Push(any)      { panic("exec: topKHeap grows in place") }
func (h *topKHeap) Pop() any      { panic("exec: topKHeap shrinks in place") }

func (o *topKOp) Schema() []types.Column { return o.in.Schema() }

func (o *topKOp) run() {
	h := &topKHeap{kept: NewBatch(o.in.Schema(), 0), ord: newRowOrder(o.in.Schema(), o.keys, true)}
	for b := o.in.Next(); b != nil; b = o.in.Next() {
		for i := 0; i < b.N; i++ {
			if h.Len() < o.k {
				h.slots = append(h.slots, int32(h.kept.N))
				h.kept.appendFrom(b.Cols, i)
				heap.Fix(h, h.Len()-1)
			} else if root := int(h.slots[0]); h.ord.compare(b, i, h.kept, root) < 0 {
				for c, col := range h.kept.Cols {
					col.setFrom(root, b.Cols[c], i)
				}
				heap.Fix(h, 0)
			}
		}
	}
	// Pop the worst row to the end until the heap is empty: the slots end
	// in ascending order.
	all := h.slots
	for n := len(all) - 1; n > 0; n-- {
		h.Swap(0, n)
		h.slots = all[:n]
		heap.Fix(h, 0)
	}
	o.rows = sortedRows{batches: []*Batch{h.kept}, perm: make([]rowRef, len(all))}
	for i, slot := range all {
		o.rows.perm[i] = rowRef{0, slot}
	}
	o.done = true
}

func (o *topKOp) Next() *Batch {
	if !o.done {
		o.run()
	}
	out, _ := gatherRows(o.Schema(), 0, o.rows.next)
	return out
}

// NewTopK wraps in with a bounded top-k operator — the shard-side half
// of top-k pushdown uses it to cap each member's output at k rows.
func NewTopK(in Source, k int, keys []SortKey) Source {
	return &topKOp{in: in, keys: keys, k: k}
}

// TopK is Sort(keys...).Limit(k) with a bounded heap: equivalent output,
// O(n log k) time and O(k) memory instead of materializing the input.
// A source that can bound its own output (the dist scatter union) is
// offered the top-k first; the plan's own operator still runs over
// whatever comes back, so the pushdown only shrinks the stream.
func (p *Plan) TopK(k int, keys ...SortKey) *Plan {
	if p.err != nil {
		return p
	}
	if k <= 0 {
		return p.Limit(0)
	}
	src := p.src
	if so, ok := src.(*statsOp); ok {
		if _, ok := so.inner.(TopKPusher); ok {
			src = so.inner
		}
	}
	if tp, ok := src.(TopKPusher); ok {
		tp.PushTopK(k, keys)
	}
	// TopK is already O(k) memory; it needs no accountant, but the chain
	// keeps carrying the plan's context and accountants forward.
	return p.derive(&topKOp{in: p.src, keys: keys, k: k})
}
