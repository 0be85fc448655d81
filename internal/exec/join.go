package exec

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"htap/internal/types"
)

// --- hash join ---

// JoinType selects join semantics.
type JoinType uint8

// Join types: inner produces matched pairs; semi/anti produce left rows
// with (no) matches, used for EXISTS / NOT EXISTS subqueries.
const (
	InnerJoin JoinType = iota + 1
	LeftSemiJoin
	LeftAntiJoin
)

type hashJoinOp struct {
	typ       JoinType
	left      Source
	schema    []types.Column
	leftKeys  []int
	rightKeys []int
	tbl       *joinTable
	buildOnce sync.Once
	buildSrc  Source
	par       int
	ctx       context.Context
	mem       *QueryMem
	out       *hashJoinProbe // the unsplit probe stream, lazily built

	// Grace-mode state (memory-governed builds that went over budget): the
	// build side lives hash-partitioned in spill files instead of one
	// in-memory table, and probing proceeds partition by partition over
	// probe rows tagged with their stream ordinal in column 0 — tagLeft is
	// that probe schema, tagOut the tagged output schema, tagKeys the left
	// keys shifted past the tag.
	grace      bool
	buildW     []*spillWriter // one per partition, nil until toGrace
	buildBytes int64          // charged bytes of the in-memory build table
	tagLeft    []types.Column
	tagOut     []types.Column
	tagKeys    []int

	st *OpStats // profiling; nil when disabled
}

func (o *hashJoinOp) attachStats(st *OpStats) { o.st = st }

func newHashJoin(typ JoinType, left, right Source, leftCols, rightCols []string, par int, ctx context.Context, mem *QueryMem) *hashJoinOp {
	if len(leftCols) != len(rightCols) || len(leftCols) == 0 {
		panic("exec: join key arity mismatch")
	}
	lk := make([]int, len(leftCols))
	for i, c := range leftCols {
		lk[i] = colIndex(left.Schema(), c)
	}
	rk := make([]int, len(rightCols))
	for i, c := range rightCols {
		rk[i] = colIndex(right.Schema(), c)
	}
	var schema []types.Column
	schema = append(schema, left.Schema()...)
	if typ == InnerJoin {
		for _, c := range right.Schema() {
			for _, l := range left.Schema() {
				if l.Name == c.Name {
					panic(fmt.Sprintf("exec: join output column %q is ambiguous", c.Name))
				}
			}
		}
		schema = append(schema, right.Schema()...)
	}
	return &hashJoinOp{
		typ: typ, left: left, schema: schema,
		leftKeys: lk, rightKeys: rk,
		buildSrc: right, par: par,
		ctx: orBackground(ctx), mem: mem,
	}
}

func (o *hashJoinOp) Schema() []types.Column { return o.schema }

func keysEqual(lb *Batch, li int, lk []int, rb *Batch, ri int, rk []int) bool {
	for i := range lk {
		if !lb.Cols[lk[i]].equal(li, rb.Cols[rk[i]], ri) {
			return false
		}
	}
	return true
}

// joinTable is a hash join's build side; the in-memory build and every
// grace partition build one. add holds the build batches as they arrive
// (relying, as the sort does, on no operator reusing a batch it returned)
// with their key hashes; seal, run once when the build input ends,
// concatenates both and chains rows by bucket: head[b] is the first row
// + 1 of bucket b (of a power-of-two array indexed by the folded key
// hash), next[r] row r's successor + 1, and 0 ends a chain.
type joinTable struct {
	held []*Batch
	n    int      // rows held
	hash []uint64 // the key hash of each row
	rows *Batch
	head []int32
	next []int32
	mask uint64
}

// add holds b and appends its key hashes. The hashes double their room
// when they run out of it, so a large build copies them O(1) times per
// row, not the 1.25× steps of append.
func (t *joinTable) add(b *Batch, keys []int) {
	t.held = append(t.held, b)
	if cap(t.hash)-len(t.hash) < b.N {
		t.hash = slices.Grow(t.hash, max(b.N, len(t.hash)))
	}
	t.hash = hashBatch(b, keys, t.hash)
	t.n += b.N
}

// absorb holds p's batches and hashes behind t's.
func (t *joinTable) absorb(p *joinTable) {
	t.held = append(t.held, p.held...)
	t.hash = append(t.hash, p.hash...)
	t.n += p.n
}

// bucket folds the hash's high half into the bits the mask keeps: the
// low k bits of a key hash depend only on the low k bits of each key byte.
func (t *joinTable) bucket(h uint64) uint64 { return (h ^ h>>32) & t.mask }

// seal fills next back to front, so each chain is in build order: the
// order multi-match probe output follows.
func (t *joinTable) seal(schema []types.Column) {
	t.rows = NewBatch(schema, t.n)
	for _, b := range t.held {
		for c, col := range t.rows.Cols {
			col.appendN(b.Cols[c], b.N)
		}
	}
	t.rows.N, t.held = t.n, nil
	size := 1
	for size < t.n {
		size <<= 1
	}
	t.head = make([]int32, size)
	t.mask = uint64(size - 1)
	t.next = make([]int32, t.n)
	for r := t.n - 1; r >= 0; r-- {
		bk := t.bucket(t.hash[r])
		t.next[r] = t.head[bk]
		t.head[bk] = int32(r + 1)
	}
}

// build materializes the right side into the join table. The ungoverned
// build drains the build source's parts (one part when it cannot split),
// each holding and hashing its batches on its own worker; in part order
// they are the sequential build order, and seal only concatenates. Every
// build loop polls ctx per batch, so a cancelled query abandons the build
// promptly. Memory-governed builds (mem != nil) run
// sequentially and turn into a grace (partitioned, spilled) build when
// they go over budget.
func (o *hashJoinOp) build() {
	if o.mem != nil {
		o.tbl = &joinTable{}
		o.buildGoverned()
		return
	}
	parts := trySplit(o.buildSrc, o.par)
	if parts == nil {
		parts = []Source{o.buildSrc}
	}
	held := make([]joinTable, len(parts))
	drain(o.ctx, parts, func(w int, b *Batch) { held[w].add(b, o.rightKeys) })
	o.tbl = &held[0]
	for w := 1; w < len(held); w++ {
		o.tbl.absorb(&held[w])
	}
	o.tbl.seal(o.buildSrc.Schema())
}

// buildGoverned drains the build side sequentially under the memory
// accountant, so the accountant sees the build grow batch by batch and
// the overflow lands at the batch that crosses the budget; a governed
// build trades the build-side speedup for an accurately enforced budget.
// On overflow the held batches scatter to hash partitions on disk
// (toGrace) and the remainder of the stream follows them.
func (o *hashJoinOp) buildGoverned() {
	for {
		if o.ctx.Err() != nil || o.mem.Err() != nil {
			return
		}
		b := o.buildSrc.Next()
		if b == nil {
			break
		}
		if o.grace {
			_ = scatter(o.buildW, o.rightKeys, 0, b)
		} else {
			o.tbl.add(b, o.rightKeys)
			sz := batchAppendBytes(b)
			o.mem.Grow(sz)
			o.buildBytes += sz
			if o.mem.Over() && o.tbl.n > 0 {
				o.toGrace()
			}
		}
		coopYield()
	}
	if o.grace {
		_ = closeAll(o.buildW)
	} else {
		o.tbl.seal(o.buildSrc.Schema())
	}
}

// toGrace converts the held build batches into spillFanout disk
// partitions. Rows scatter in build order, so each partition file holds
// its rows in global build order — reloading a partition reproduces the
// chain order of an in-memory build restricted to it, which keeps
// multi-match probe output order bit-identical.
func (o *hashJoinOp) toGrace() {
	o.grace = true
	o.mem.noteSpill(spillsJoin, spillFanout)
	o.st.addSpillParts(spillFanout)
	o.tagLeft, o.tagOut = tagSchema(o.left.Schema()), tagSchema(o.schema)
	for _, k := range o.leftKeys {
		o.tagKeys = append(o.tagKeys, k+1)
	}
	o.buildW = newSpillWriters(o.mem, "join-build", 0)
	_ = scatter(o.buildW, o.rightKeys, 0, o.tbl.held...)
	o.mem.Shrink(o.buildBytes)
	o.buildBytes = 0
	o.tbl = nil
}

// probeScratch is one probe stream's reused buffers: the probe batch's
// key hashes and the matched (probe row, build row) index pairs. Each
// stream owns one, since split parts probe concurrently.
type probeScratch struct {
	hs     []uint64
	li, ri []int32
}

// probe matches batch b, keyed by lk, against t into a batch of schema:
// b's columns, then the build columns for an inner join; nil when no row
// of b is output. The grace path probes tagged batches through it, so its
// inner output is [tag, left…, right…] and its semi/anti output the
// tagged probe rows. The matches are collected as index pairs first, then
// each output column is gathered once; when the output is b's rows in
// order, each once, it shares b's columns. Safe for concurrent use once t
// is sealed: it only reads the table.
func (o *hashJoinOp) probe(t *joinTable, schema []types.Column, b *Batch, lk []int, sc *probeScratch) *Batch {
	sc.hs = hashBatch(b, lk, sc.hs[:0])
	li, ri := sc.li[:0], sc.ri[:0]
	inner := o.typ == InnerJoin
	for i, h := range sc.hs {
		matched := false
		for next := t.head[t.bucket(h)]; next != 0; next = t.next[next-1] {
			r := next - 1
			if t.hash[r] != h || !keysEqual(b, i, lk, t.rows, int(r), o.rightKeys) {
				continue
			}
			matched = true
			if !inner {
				break
			}
			li, ri = append(li, int32(i)), append(ri, r)
		}
		if !inner && matched == (o.typ == LeftSemiJoin) {
			li = append(li, int32(i))
		}
	}
	sc.li, sc.ri = li, ri
	if len(li) == 0 {
		return nil
	}
	out := gathered(schema, len(li))
	if isIdentity(li) {
		copy(out.Cols, b.Cols)
	} else {
		for c, col := range b.Cols {
			out.Cols[c].gather(col, li)
		}
	}
	if inner {
		nl := len(b.Cols)
		for c, col := range t.rows.Cols {
			out.Cols[nl+c].gather(col, ri)
		}
	}
	return out
}

// isIdentity reports whether idx is 0, 1, …, len(idx)-1.
func isIdentity(idx []int32) bool {
	for j, i := range idx {
		if int(i) != j {
			return false
		}
	}
	return true
}

func (o *hashJoinOp) Next() *Batch {
	if o.out == nil {
		o.out = &hashJoinProbe{op: o, left: o.left}
	}
	return o.out.Next()
}

// Split partitions the probe side; every part probes the one shared hash
// table, whose construction is serialized by buildOnce (the first part to
// run builds it, in parallel when the build source splits).
func (o *hashJoinOp) Split(n int) []Source {
	parts := trySplit(o.left, n)
	if parts == nil {
		return nil
	}
	out := make([]Source, len(parts))
	for i, p := range parts {
		out[i] = &hashJoinProbe{op: o, left: p}
	}
	return out
}

// hashJoinProbe is a probe stream over the shared build: the operator's
// own over its whole left input, or one split part's. Under a grace build
// each stream joins its left input partition by partition (graceMerge),
// sharing only the depth-0 build partition files, and streams the merged
// output — so part outputs concatenate to the rows of the unsplit probe,
// in the order an in-memory probe emits them.
type hashJoinProbe struct {
	op     *hashJoinOp
	left   Source
	merge  *sortMerge // grace: the partitions' tagged outputs in probe order
	failed bool
	sc     probeScratch
}

func (p *hashJoinProbe) Schema() []types.Column { return p.op.schema }

func (p *hashJoinProbe) Next() *Batch {
	o := p.op
	o.buildOnce.Do(o.build)
	if p.failed || o.mem.Err() != nil {
		return nil
	}
	if !o.grace {
		for o.ctx.Err() == nil {
			b := p.left.Next()
			if b == nil {
				return nil
			}
			if out := o.probe(o.tbl, o.schema, b, o.leftKeys, &p.sc); out != nil {
				return out
			}
		}
		return nil
	}
	if p.merge == nil {
		m, err := o.graceMerge(p.left)
		if err != nil {
			p.failed = true
			return nil
		}
		p.merge = m
	}
	out, err := gatherRows(o.schema, 1, p.merge.next) // drop the tag
	if err != nil {
		p.failed = true
		return nil
	}
	if out != nil {
		coopYield()
	}
	return out
}

// graceMerge runs one probe stream's grace join: its rows, tagged with
// their stream ordinal, scatter to per-partition spill files; each probe
// partition joins its build partition (partitionOut); and the tagged
// outputs merge back into probe order.
func (o *hashJoinOp) graceMerge(left Source) (*sortMerge, error) {
	qm := o.mem
	pw := newSpillWriters(qm, "join-probe", 0)
	var tag int64
	for o.ctx.Err() == nil && qm.Err() == nil {
		b := left.Next()
		if b == nil {
			break
		}
		if err := scatter(pw, o.tagKeys, 0, tagged(o.tagLeft, b, tag)); err != nil {
			return nil, err
		}
		tag += int64(b.N)
		coopYield()
	}
	if err := closeAll(pw); err != nil {
		return nil, err
	}
	if err := qm.Err(); err != nil {
		return nil, err
	}
	if err := o.ctx.Err(); err != nil {
		return nil, err
	}
	return o.joinPartitions(o.buildW, pw, 0, false)
}

// joinPartitions joins every build/probe partition pair at depth and
// merges their tagged outputs by tag.
func (o *hashJoinOp) joinPartitions(bw, pw []*spillWriter, depth int, ownBuild bool) (*sortMerge, error) {
	outs := make([]string, 0, spillFanout)
	for p := range bw {
		out, err := o.partitionOut(bw[p].name, pw[p].name, depth, ownBuild)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}
	return newSortMerge(o.mem, outs, o.tagOut, nil, tagOrder)
}

// partitionOut joins one build partition file against one tagged probe
// partition file and returns a spill file of tagged output rows in
// ascending probe order. The build partition loads into a joinTable and
// the probe batches run through the in-memory probe; if the build alone
// exceeds the budget and depth permits, both files re-scatter under the
// next depth's hash salt and the join recurses per sub-partition
// (repartition). On success the probe file is removed eagerly, and the
// build file too when ownBuild (sub-partition files are private; depth-0
// build files are shared across probe streams and live until
// QueryMem.Finish). Error paths lean on Finish for file cleanup — every
// spill file is tracked by the accountant.
func (o *hashJoinOp) partitionOut(bf, pf string, depth int, ownBuild bool) (string, error) {
	qm := o.mem
	tbl := &joinTable{}
	var charged int64
	bc := newSpillCursor(qm, bf)
	for {
		b, err := bc.nextBatch(o.buildSrc.Schema())
		if err != nil {
			return "", err
		}
		if b == nil {
			break
		}
		tbl.add(b, o.rightKeys)
		// Charged as materialized rows, not as columns: the smaller
		// partitions this yields bound the probe work between yields,
		// which is what keeps concurrent TP latency within the memory
		// gate's allowance while a self-join spills.
		sz := rowsBytes(b)
		qm.Grow(sz)
		charged += sz
		if qm.Over() && depth < spillMaxDepth && tbl.n > 1 {
			return o.repartition(bf, pf, bc, tbl.held, charged, depth, ownBuild)
		}
		coopYield()
	}
	tbl.seal(o.buildSrc.Schema())
	defer qm.Shrink(charged)
	if qm.Over() {
		// Depth cap (or a partition of indivisible duplicates): degrade to
		// an in-memory join of this partition and record the overshoot.
		qm.noteOver()
	}
	w := newSpillWriter(qm, "join-out")
	pc := newSpillCursor(qm, pf)
	var sc probeScratch
	for {
		if err := o.ctx.Err(); err != nil {
			return "", err
		}
		b, err := pc.nextBatch(o.tagLeft)
		if err != nil {
			return "", err
		}
		if b == nil {
			break
		}
		out := o.probe(tbl, o.tagOut, b, o.tagKeys, &sc)
		for i := 0; out != nil && i < out.N; i++ {
			if err := w.addFrom(out, i); err != nil {
				return "", err
			}
		}
		coopYield()
	}
	if err := w.close(); err != nil {
		return "", err
	}
	qm.removeFile(pf)
	if ownBuild {
		qm.removeFile(bf)
	}
	return w.name, nil
}

// repartition re-scatters one oversized partition pair under the next
// depth's hash salt, recurses per sub-partition, and merges the tagged
// sub-outputs into a single output run. held holds the build batches
// loaded so far (written out first, in order, so build order is
// preserved); bc is the partly-consumed build cursor.
func (o *hashJoinOp) repartition(bf, pf string, bc *spillCursor, held []*Batch, charged int64, depth int, ownBuild bool) (string, error) {
	qm := o.mem
	qm.noteSpill(spillsJoin, spillFanout)
	o.st.addSpillParts(spillFanout)
	bw := newSpillWriters(qm, "join-build", depth+1)
	pw := newSpillWriters(qm, "join-probe", depth+1)
	err := scatter(bw, o.rightKeys, depth+1, held...)
	qm.Shrink(charged)
	if err == nil {
		err = bc.scatterRest(bw, o.buildSrc.Schema(), o.rightKeys, depth+1)
	}
	if err == nil {
		err = newSpillCursor(qm, pf).scatterRest(pw, o.tagLeft, o.tagKeys, depth+1)
	}
	if err == nil {
		err = closeAll(bw)
	}
	if err == nil {
		err = closeAll(pw)
	}
	if err != nil {
		return "", err
	}
	qm.removeFile(pf)
	if ownBuild {
		qm.removeFile(bf)
	}
	m, err := o.joinPartitions(bw, pw, depth+1, true)
	if err != nil {
		return "", err
	}
	w := newSpillWriter(qm, "join-out")
	for {
		b, i, err := m.next()
		if err != nil {
			return "", err
		}
		if b == nil {
			break
		}
		if err := w.addFrom(b, i); err != nil {
			return "", err
		}
	}
	if err := w.close(); err != nil {
		return "", err
	}
	return w.name, nil
}
