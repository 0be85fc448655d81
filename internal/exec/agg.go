package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"htap/internal/types"
)

// --- hash aggregate ---

// AggKind is an aggregate function.
type AggKind uint8

// Aggregate functions.
const (
	Sum AggKind = iota + 1
	Count
	Avg
	Min
	Max
)

// Agg is one aggregate output: Kind over Expr, named Name. Count ignores
// Expr (COUNT(*)).
type Agg struct {
	Kind AggKind
	Expr Expr
	Name string
}

type aggState struct {
	sum   exactSum
	isum  int64
	count int64
	min   types.Datum
	max   types.Datum
}

type hashAggOp struct {
	in       Source
	keyCols  []int // group-by column ordinals in the input
	aggs     []Agg
	aggExprs []Expr
	schema   []types.Column
	intSum   []bool
	par      int
	ctx      context.Context
	mem      *QueryMem

	// Spilled input rows are tagged with their ordinal (column 0): tagIn
	// is their schema, tagCols the group-by columns within them.
	tagIn   []types.Column
	tagCols []int

	done bool
	out  []types.Row
	pos  int

	st *OpStats // profiling; nil when disabled
}

func (o *hashAggOp) attachStats(st *OpStats) { o.st = st }

func newHashAgg(in Source, groupBy []string, aggs []Agg, par int, ctx context.Context, mem *QueryMem) *hashAggOp {
	o := &hashAggOp{in: in, aggs: aggs, par: par, ctx: orBackground(ctx), mem: mem}
	ins := in.Schema()
	o.tagIn = tagSchema(ins)
	for _, g := range groupBy {
		i := colIndex(ins, g)
		o.schema = append(o.schema, ins[i])
		o.keyCols = append(o.keyCols, i)
		o.tagCols = append(o.tagCols, i+1)
	}
	o.intSum = make([]bool, len(aggs))
	for i, a := range aggs {
		var kind types.ColType
		switch a.Kind {
		case Count:
			kind = types.Int
		case Sum:
			if a.Expr.Type(ins) == types.Int {
				kind = types.Int
				o.intSum[i] = true
			} else {
				kind = types.Float
			}
		case Avg:
			kind = types.Float
		default:
			kind = a.Expr.Type(ins)
		}
		o.schema = append(o.schema, types.Column{Name: a.Name, Type: kind})
		if a.Expr != nil {
			o.aggExprs = append(o.aggExprs, a.Expr.Bind(ins))
		} else {
			o.aggExprs = append(o.aggExprs, nil)
		}
	}
	return o
}

func (o *hashAggOp) Schema() []types.Column { return o.schema }

// aggGroup is one group's key and accumulator states, both cut from its
// table's slabs. ord is the group's position in a single per-stream
// ordinal space shared with spilled raw rows: groups created before a
// spill take creation ordinals, groups created during replay take their
// creating row's tag. Sorting recovered groups by ord therefore
// reproduces exact first-seen output order. next chains the groups whose
// keys share a hash, oldest first.
type aggGroup struct {
	key    types.Row
	states []aggState
	ord    int64
	next   *aggGroup
}

// aggStateBytes approximates one accumulator's in-memory footprint for the
// accountant (sum+isum+count plus two Datums).
const aggStateBytes = 96

// Slab chunks start at minSlabGroups groups and double up to
// maxSlabGroups, so slab allocations grow with groups, not rows.
const (
	minSlabGroups = 16
	maxSlabGroups = 1024
)

// aggTable is one hash-aggregation table. The sequential path uses a
// single table; the parallel path gives each worker its own table over a
// disjoint partition of the input and merges them afterwards. Under a
// memory accountant the table spills: dump group states + remaining raw
// rows to hash partitions, recurse per partition, and reassemble
// (spillRest / aggPartition).
type aggTable struct {
	o        *hashAggOp
	index    map[uint64]*aggGroup // key hash → the first group of its chain
	order    []*aggGroup          // first-seen order, the output order
	ordSeq   int64                // next ordinal (groups and spilled rows share it)
	bytes    int64                // bytes charged to the accountant
	newBytes int64                // bytes added since the last charge
	hs       []uint64             // the consumed batch's key hashes

	// The slab chunks groups, their states and their key datums are cut
	// from. A chunk is never moved, so pointers into it stay valid.
	groups []aggGroup
	states []aggState
	keys   []types.Datum
}

func newAggTable(o *hashAggOp) *aggTable {
	return &aggTable{o: o, index: make(map[uint64]*aggGroup)}
}

// newGroup cuts a zeroed group from the slabs and links it behind last,
// the tail of the chain for hash h (nil when there is none).
func (t *aggTable) newGroup(h uint64, last *aggGroup) *aggGroup {
	na, nk := len(t.o.aggs), len(t.o.keyCols)
	if len(t.groups) == cap(t.groups) {
		n := min(max(2*cap(t.groups), minSlabGroups), maxSlabGroups)
		t.groups = make([]aggGroup, 0, n)
		t.states = make([]aggState, n*na)
		t.keys = make([]types.Datum, n*nk)
	}
	t.groups = t.groups[:len(t.groups)+1]
	g := &t.groups[len(t.groups)-1]
	g.states, t.states = t.states[:na:na], t.states[na:]
	g.key, t.keys = t.keys[:nk:nk], t.keys[nk:]
	if last == nil {
		t.index[h] = g
	} else {
		last.next = g
	}
	t.order = append(t.order, g)
	return g
}

// created charges a new group once its key is set: the materialized
// key row plus aggStateBytes per state.
func (t *aggTable) created(g *aggGroup) {
	t.newBytes += rowBytes(g.key) + int64(len(g.states))*aggStateBytes
}

// lookup finds or creates the group for key (pre-hashed to h), copying
// key into the table on creation. The caller assigns ord on creation.
func (t *aggTable) lookup(key types.Row, h uint64) (*aggGroup, bool) {
	var last *aggGroup
next:
	for g := t.index[h]; g != nil; g = g.next {
		for gi := range key {
			if !g.key[gi].Equal(key[gi]) {
				last = g
				continue next
			}
		}
		return g, false
	}
	g := t.newGroup(h, last)
	copy(g.key, key)
	t.created(g)
	return g, true
}

// find is lookup for row i of b, whose key hash is h, probing from the
// key columns in place: the key is materialized only when the group is
// created.
func (t *aggTable) find(b *Batch, i int, h uint64) (*aggGroup, bool) {
	keys := t.o.keyCols
	var last *aggGroup
next:
	for g := t.index[h]; g != nil; g = g.next {
		for gi, k := range keys {
			if !keyEqual(g.key[gi], b.Cols[k], i) {
				last = g
				continue next
			}
		}
		return g, false
	}
	g := t.newGroup(h, last)
	for gi, k := range keys {
		g.key[gi] = b.Cols[k].Datum(i)
	}
	t.created(g)
	return g, true
}

// keyEqual reports whether group key datum d equals row i of c, as
// types.Datum.Equal does; an Int or String key meets a column of its own
// kind without building a datum.
func keyEqual(d types.Datum, c *Col, i int) bool {
	switch {
	case d.Kind == types.Int && c.Kind == types.Int:
		return d.I == c.Ints[i]
	case d.Kind == types.String && c.Kind == types.String:
		return d.S == c.Strs[i]
	}
	return d.Equal(c.Datum(i))
}

// accumulate folds row i of b into g. Shared by first-pass consumption and
// spilled-row replay, so a replayed fold is the same code — and the same
// float operation order — as an unspilled one.
func (t *aggTable) accumulate(g *aggGroup, b *Batch, i int) {
	o := t.o
	for ai, a := range o.aggs {
		st := &g.states[ai]
		st.count++
		if a.Kind == Count {
			continue
		}
		d := o.aggExprs[ai].Eval(b, i)
		switch a.Kind {
		case Sum, Avg:
			// An integer SUM renders isum alone: its exact sum stays empty.
			if !o.intSum[ai] {
				st.sum.add(d.Float())
			}
			if d.Kind == types.Int {
				st.isum += d.I
			}
		case Min:
			if st.count == 1 || d.Compare(st.min) < 0 {
				st.min = d
			}
		case Max:
			if st.count == 1 || d.Compare(st.max) > 0 {
				st.max = d
			}
		}
	}
}

func (t *aggTable) consume(b *Batch) {
	t.hs = hashBatch(b, t.o.keyCols, t.hs[:0])
	for i, h := range t.hs {
		g, created := t.find(b, i, h)
		if created {
			g.ord = t.ordSeq
			t.ordSeq++
		}
		t.accumulate(g, b, i)
	}
}

func (t *aggTable) drain(src Source) {
	for {
		b := src.Next()
		if b == nil {
			return
		}
		t.consume(b)
	}
}

// charge pushes newly accounted bytes to the accountant.
func (t *aggTable) charge() {
	if t.newBytes > 0 {
		t.o.mem.Grow(t.newBytes)
		t.bytes += t.newBytes
		t.newBytes = 0
	}
}

// drainBounded is drain under the memory accountant: when the table goes
// over budget with more than one group, the rest of the input spills and
// the aggregation finishes partition by partition. The reassembled table
// is bit-identical to an unbounded drain of the same stream.
func (t *aggTable) drainBounded(src Source) {
	o := t.o
	for {
		if o.ctx.Err() != nil || o.mem.Err() != nil {
			return
		}
		b := src.Next()
		if b == nil {
			return
		}
		t.consume(b)
		t.charge()
		if o.mem.Over() && len(t.order) > 1 {
			t.spillRest(src)
			return
		}
		coopYield()
	}
}

// merge folds other into t, visiting other's groups in their first-seen
// order. Merging part tables in part order makes both the group output
// order and the float summation order a pure function of the input order
// and the part boundaries — never of worker timing.
func (t *aggTable) merge(other *aggTable) {
	for _, og := range other.order {
		t.fold(og.key, og.states)
	}
}

// fold merges one partial group — a part table's, or a shard's shipped
// over the wire — into its group, created in first-seen order.
func (t *aggTable) fold(key types.Row, states []aggState) {
	g, created := t.lookup(key, key.Hash())
	if created {
		g.ord = t.ordSeq
		t.ordSeq++
	}
	for ai := range t.o.aggs {
		mergeAggState(&g.states[ai], &states[ai], t.o.aggs[ai].Kind)
	}
}

// spillRest spills the current groups' states plus the remainder of the
// input stream, rows tagged with their ordinals, to hash partitions,
// finishes each partition (spillPartitions), and reassembles the table in
// ord order. Group states encode sums exactly and replay continues each
// group's fold with the same accumulate code in the same row order, so
// the reassembled table matches an unbounded aggregation bit for bit. The
// reassembled table is complete: only its order is read afterwards.
func (t *aggTable) spillRest(src Source) {
	o := t.o
	all, charged, err := o.spillPartitions(t.order, t.bytes, func() (*Batch, error) {
		if o.ctx.Err() != nil || o.mem.Err() != nil {
			return nil, nil
		}
		b := src.Next()
		if b == nil {
			return nil, nil
		}
		tb := tagged(o.tagIn, b, t.ordSeq)
		t.ordSeq += int64(b.N)
		coopYield()
		return tb, nil
	}, 0)
	*t = aggTable{o: o, bytes: charged}
	if err != nil {
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ord < all[j].ord })
	t.order = all
}

// consumeTagged replays spilled rows: b holds the stripped rows, tags
// their original ordinals. A group created during replay takes its
// creating row's tag as its ord.
func (t *aggTable) consumeTagged(b *Batch, tags []int64) {
	t.hs = hashBatch(b, t.o.keyCols, t.hs[:0])
	for i, h := range t.hs {
		g, created := t.find(b, i, h)
		if created {
			g.ord = tags[i]
		}
		t.accumulate(g, b, i)
	}
}

// spillPartitions writes groups' states, then the tagged input batches
// rows yields (until nil), to spillFanout hash partitions at depth;
// releases the groups' charge of bytes; and finishes every partition
// (aggPartition). It returns the partitions' groups with their charge,
// which the caller owns. A group's state record is [ord] followed by its
// wire encoding (EncodePartial), so spill and wire share one record and
// its validation on the way back in.
func (o *hashAggOp) spillPartitions(groups []*aggGroup, bytes int64, rows func() (*Batch, error), depth int) ([]*aggGroup, int64, error) {
	qm := o.mem
	qm.noteSpill(spillsAgg, spillFanout)
	o.st.addSpillParts(spillFanout)
	sw := newSpillWriters(qm, "agg-state", depth)
	rw := newSpillWriters(qm, "agg-rows", depth)
	var err error
	for _, g := range groups {
		r := append(types.Row{types.NewInt(g.ord)}, EncodePartial(&PartialGroup{Key: g.key, States: g.states}, o.aggs)...)
		if err = sw[partOf(g.key.Hash(), depth)].add(r); err != nil {
			break
		}
	}
	qm.Shrink(bytes)
	for err == nil {
		var b *Batch
		if b, err = rows(); b == nil {
			break
		}
		err = scatter(rw, o.tagCols, depth, b)
	}
	if err == nil {
		err = closeAll(sw)
	}
	if err == nil {
		err = closeAll(rw)
	}
	if err != nil || qm.Err() != nil || o.ctx.Err() != nil {
		return nil, 0, errors.Join(err, qm.Err(), o.ctx.Err())
	}
	var all []*aggGroup
	var charged int64
	for p := 0; p < spillFanout; p++ {
		groups, c, err := o.aggPartition(sw[p].name, rw[p].name, depth)
		charged += c
		if err != nil {
			return nil, charged, err
		}
		all = append(all, groups...)
	}
	return all, charged, nil
}

// aggPartition finishes one spilled partition: load its group states,
// replay its raw rows, and return the completed groups (with their
// accountant charge still outstanding — the caller owns it). If the
// partition alone exceeds the budget and depth permits, states and
// remaining rows re-scatter under the next depth's salt and the
// aggregation recurses.
func (o *hashAggOp) aggPartition(stateFile, rowFile string, depth int) ([]*aggGroup, int64, error) {
	qm := o.mem
	sub := newAggTable(o)
	sc := newSpillCursor(qm, stateFile)
	for {
		r, ok, err := sc.next()
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			break
		}
		pg, err := DecodePartial(r[1:], len(o.keyCols), o.aggs)
		if err != nil {
			return nil, 0, sc.fail(fmt.Errorf("exec: corrupt agg spill record in %s: %w", stateFile, err))
		}
		g, _ := sub.lookup(pg.Key, pg.Key.Hash())
		copy(g.states, pg.States)
		g.ord = r[0].I
	}
	sub.charge()
	qm.removeFile(stateFile)
	rc := newSpillCursor(qm, rowFile)
	overNoted := false
	for {
		if err := o.ctx.Err(); err != nil {
			return nil, sub.bytes, err
		}
		b, err := rc.nextBatch(o.tagIn)
		if err != nil {
			return nil, sub.bytes, err
		}
		if b == nil {
			break
		}
		sub.consumeTagged(untag(b))
		sub.charge()
		coopYield()
		// A short batch ended the file: nothing is left to re-scatter.
		if b.N == BatchSize && qm.Over() {
			if depth < spillMaxDepth && len(sub.order) > 1 {
				// Re-scatter states and the remaining rows (original tags
				// preserved) under the next depth's salt, and recurse.
				groups, charged, err := o.spillPartitions(sub.order, sub.bytes, func() (*Batch, error) {
					return rc.nextBatch(o.tagIn)
				}, depth+1)
				qm.removeFile(rowFile)
				return groups, charged, err
			}
			// Depth cap (or a single dominant group): finish in memory.
			if !overNoted {
				overNoted = true
				qm.noteOver()
			}
		}
	}
	qm.removeFile(rowFile)
	return sub.order, sub.bytes, nil
}

// mergeAggState folds src into dst for one aggregate.
func mergeAggState(dst, src *aggState, kind AggKind) {
	if src.count == 0 {
		return
	}
	if dst.count == 0 {
		*dst = *src
		// A promoted exact sum owns its register; aliasing it between two
		// states would corrupt both.
		dst.sum = src.sum.clone()
		return
	}
	dst.sum.merge(&src.sum)
	dst.isum += src.isum
	dst.count += src.count
	switch kind {
	case Min:
		if src.min.Compare(dst.min) < 0 {
			dst.min = src.min
		}
	case Max:
		if src.max.Compare(dst.max) > 0 {
			dst.max = src.max
		}
	}
}

// buildTable drains the input into a hash table: split into per-worker
// part tables merged in part order when the source parallelizes, a
// single sequential drain otherwise.
func (o *hashAggOp) buildTable() *aggTable {
	drainInto := func(t *aggTable, src Source) {
		if o.mem != nil {
			t.drainBounded(src)
		} else {
			t.drain(src)
		}
	}
	t := newAggTable(o)
	if parts := trySplit(o.in, o.par); parts != nil {
		parallelPlans.Inc()
		tables := make([]*aggTable, len(parts))
		tasks := make([]func(), len(parts))
		for w := range parts {
			w := w
			tasks[w] = func() {
				pt := newAggTable(o)
				drainInto(pt, parts[w])
				tables[w] = pt
			}
		}
		SharedPool().Run(tasks)
		start := time.Now()
		for _, pt := range tables {
			t.merge(pt)
		}
		mergeNS.Add(time.Since(start).Nanoseconds())
	} else {
		drainInto(t, o.in)
	}
	return t
}

// render finalizes groups to output rows, cut from one datum slab: the
// one place accumulators collapse to their rendered values. Shared by the
// in-engine aggregate and the coordinator-side combine of pushed-down
// partials.
func (o *hashAggOp) render(order []*aggGroup) []types.Row {
	// A global aggregate over zero rows still yields one row of zeros.
	if len(order) == 0 && len(o.keyCols) == 0 {
		order = append(order, &aggGroup{states: make([]aggState, len(o.aggs))})
	}
	w := len(o.schema)
	out := make([]types.Row, len(order))
	slab := make([]types.Datum, len(order)*w)
	for gi, g := range order {
		row := slab[gi*w : gi*w : (gi+1)*w]
		row = append(row, g.key...)
		for ai, a := range o.aggs {
			st := g.states[ai]
			switch a.Kind {
			case Count:
				row = append(row, types.NewInt(st.count))
			case Sum:
				if o.intSum[ai] {
					row = append(row, types.NewInt(st.isum))
				} else {
					row = append(row, types.NewFloat(st.sum.round()))
				}
			case Avg:
				if st.count == 0 {
					row = append(row, types.NewFloat(0))
				} else {
					row = append(row, types.NewFloat(st.sum.round()/float64(st.count)))
				}
			case Min:
				row = append(row, st.min)
			case Max:
				row = append(row, st.max)
			}
		}
		out[gi] = row
	}
	return out
}

// run builds the table and renders its groups; after a spill failure it
// renders none, so partial groups never escape.
func (o *hashAggOp) run() {
	if t := o.buildTable(); o.mem.Err() == nil {
		o.out = o.render(t.order)
	}
	o.done = true
}

func (o *hashAggOp) Next() *Batch {
	if !o.done {
		o.run()
	}
	return nextRows(o.schema, o.out, &o.pos)
}
