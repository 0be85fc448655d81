package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"htap/internal/bitmap"
	"htap/internal/btree"
	"htap/internal/ch"
	"htap/internal/colstore"
	"htap/internal/core"
	"htap/internal/datasync"
	"htap/internal/delta"
	"htap/internal/disk"
	"htap/internal/exec"
	"htap/internal/rowstore"
	"htap/internal/txn"
	"htap/internal/types"
	"htap/internal/wal"
	"htap/internal/wire"
)

// The micro-calls price single layers through their public functions, on one
// goroutine and with fixed iteration counts, so their work repeats exactly
// from run to run. They run after the load window has closed, so what they
// add to the htap_* counters is not in any per-layer number.

// perCall runs fn n times and returns the mean nanoseconds per call.
func perCall(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// lcg is a fixed pseudo-random sequence for micro-call keys and values.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l >> 33)
}

var microSchema = types.NewSchema("micro", 0,
	types.Column{Name: "k", Type: types.Int}, types.Column{Name: "a", Type: types.Int},
	types.Column{Name: "f", Type: types.Float}, types.Column{Name: "s", Type: types.String})

func microRow(k int64) types.Row {
	return types.Row{types.NewInt(k), types.NewInt(k % 97), types.NewFloat(float64(k) / 8), types.NewString("micro-row")}
}

func runMicros(ctx context.Context, r *rig, ls layerSet) {
	microTxn(ls)
	microRowstore(ls)
	microBtree(ls)
	microWAL(ls)
	microDelta(ls)
	microColstore(ctx, r, ls)
	microExec(ctx, r, ls)
	microWire(ctx, r, ls)
	if r.spec.remote {
		microService(ctx, r, ls)
	}
	if r.spec.shards > 0 {
		microScatter(ctx, r, ls)
	}
}

func microTxn(ls layerSet) {
	const n = 20000
	mgr := txn.NewManager()
	row := microRow(1)
	m0 := mallocs()
	ns := perCall(n, func(i int) {
		tx := mgr.Begin()
		_ = tx.Write(1, int64(i), txn.OpInsert, row, 0) // a fresh key cannot conflict
		_, _ = tx.Commit(nil)
	})
	ls.setN("txn.begin_commit_ns", ns, n)
	ls.set("txn.allocs_per_commit", float64(mallocs()-m0)/n)
}

func microRowstore(ls layerSet) {
	const n, batch = 20000, 100
	mgr := txn.NewManager()
	st := rowstore.New(1, microSchema)
	apply := func(ts uint64, ws []txn.Write) error { st.Apply(ts, ws); return nil }
	// Inserts and updates commit in batches of 100 rows, so the numbers are
	// the store's cost per row with the commit's spread over the batch.
	write := func(op func(tx *txn.Txn, row types.Row) error) float64 {
		return perCall(n/batch, func(b int) {
			tx := mgr.Begin()
			for i := 0; i < batch; i++ {
				_ = op(tx, microRow(int64(b*batch+i))) // keys are disjoint: no conflict to handle
			}
			_, _ = tx.Commit(apply)
		}) / batch
	}
	ls.setN("rowstore.insert_ns", write(st.Insert), n)
	ls.setN("rowstore.update_ns", write(st.Update), n)
	ts := mgr.Oracle().Watermark()
	seq := lcg(1)
	ls.setN("rowstore.get_ns", perCall(n, func(int) {
		_, _ = st.GetAt(ts, int64(seq.next()%n))
	}), n)
	start := time.Now()
	rows := 0
	st.Scan(ts, func(int64, types.Row) bool { rows++; return true })
	ls.setN("rowstore.scan_ns_per_row", ratio(float64(time.Since(start)), float64(rows)), rows)
}

func microBtree(ls layerSet) {
	const n = 100000
	t := btree.New[int64]()
	seq := lcg(2)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(seq.next())
	}
	ls.setN("btree.put_ns", perCall(n, func(i int) { t.Put(keys[i], int64(i)) }), n)
	ls.setN("btree.get_ns", perCall(n, func(i int) { t.Get(keys[n-1-i]) }), n)
}

func microWAL(ls layerSet) {
	const n, flushes, perFlush = 20000, 200, 10
	// The engines' logs sit on the default simulated device, whose write
	// latency is a sleep: flush_us is the simulator's, not a disk's.
	l := wal.New(disk.New(disk.DefaultConfig()), "bench-micro")
	l.FlushOnCommit = false
	rec := wal.Record{Txn: 1, Type: wal.RecInsert, Table: 1, Key: 1, Row: microRow(1)}
	ls.setN("wal.append_ns", perCall(n, func(int) { _, _ = l.Append(rec) }), n)
	_ = l.Flush()
	var flushNS time.Duration
	for i := 0; i < flushes; i++ {
		for j := 0; j < perFlush; j++ {
			_, _ = l.Append(rec)
		}
		start := time.Now()
		_ = l.Flush() // the device has no fault plan: Flush cannot fail
		flushNS += time.Since(start)
	}
	ls.setN("wal.flush_us", us(float64(flushNS)/flushes), flushes)
}

func microDelta(ls layerSet) {
	const pending, overlays, rounds = 10000, 20, 5
	fill := func(d *delta.Mem, base int) {
		for i := 0; i < pending; i++ {
			k := int64(base + i)
			d.Append(uint64(base+i+1), []txn.Write{{Table: 1, Key: k, Op: txn.OpInsert, Row: microRow(k)}})
		}
	}
	d := delta.NewMem()
	start := time.Now()
	fill(d, 0)
	ls.setN("delta.append_ns", float64(time.Since(start))/pending, pending)
	ls.setN("delta.overlay_us", us(perCall(overlays, func(int) { d.Overlay(pending) })), overlays)

	tbl := colstore.NewTable(microSchema)
	var mergeNS time.Duration
	for round := 0; round < rounds; round++ {
		dm := delta.NewMem()
		fill(dm, round*pending)
		start := time.Now()
		datasync.MergeDelta(tbl, dm, uint64((round+1)*pending))
		mergeNS += time.Since(start)
	}
	ls.setN("datasync.merge_us_per_krow", us(float64(mergeNS))/(rounds*pending/1000), rounds*pending)
}

// countRows runs a full scan of one column of table and returns the rows
// counted and the time taken.
func countRows(ctx context.Context, e core.Engine, table, col string) (int, time.Duration) {
	start := time.Now()
	n, err := e.Query(ctx, table, []string{col}, nil).CountCtx(ctx)
	if err != nil {
		return 0, 0
	}
	return n, time.Since(start)
}

func microColstore(ctx context.Context, r *rig, ls layerSet) {
	const reps = 5
	var rows int
	var scanNS time.Duration
	for i := 0; i < reps; i++ {
		n, d := countRows(ctx, r.local, ch.TOrderLine, "ol_key")
		rows += n
		scanNS += d
	}
	ls.setN("colstore.scan_ns_per_row", ratio(float64(scanNS), float64(rows)), rows)

	live := 0
	for _, sch := range r.local.Tables() {
		n, _ := countRows(ctx, r.local, sch.Name, sch.Cols[sch.KeyCol].Name)
		live += n
	}
	ls.setN("colstore.bytes_per_row", ratio(float64(r.engineStats().ColBytes), float64(live)), live)

	// One vector per encoding, as a segment holds them: floats stay raw,
	// ints with long runs become RLE, strings a sorted dictionary.
	const n, filterReps = 1 << 16, 50
	seq := lcg(3)
	floats, runs, strs := make([]float64, n), make([]int64, n), make([]string, n)
	for i := 0; i < n; i++ {
		floats[i] = float64(seq.next()%10000) / 100
		runs[i] = int64(i / 512)
		strs[i] = fmt.Sprintf("dist-%d", seq.next()%64)
	}
	start := time.Now()
	raw, rle, dict := colstore.EncodeFloats(floats), colstore.EncodeInts(runs), colstore.EncodeStrings(strs)
	ls.setN("colstore.encode_ns_per_row", float64(time.Since(start))/n, n)
	sel := bitmap.New(n)
	filter := func(v colstore.Vector, op colstore.PredOp, d types.Datum) float64 {
		return perCall(filterReps, func(int) {
			sel.Fill(n)
			colstore.FilterVec(v, op, d, sel)
		}) / n
	}
	ls.setN("colstore.filter_raw_ns_per_row", filter(raw, colstore.PredLT, types.NewFloat(50)), n*filterReps)
	ls.setN("colstore.filter_rle_ns_per_row", filter(rle, colstore.PredLT, types.NewInt(64)), n*filterReps)
	ls.setN("colstore.filter_dict_ns_per_row", filter(dict, colstore.PredEQ, types.NewString("dist-7")), n*filterReps)

	const appended = 50000
	batch := make([]types.Row, appended)
	for i := range batch {
		batch[i] = microRow(int64(i))
	}
	tbl := colstore.NewTable(microSchema)
	start = time.Now()
	tbl.AppendRows(batch)
	ls.setN("colstore.appendrows_ns_per_row", float64(time.Since(start))/appended, appended)
}

func c(name string) exec.Expr { return exec.ColName(name) }

func microExec(ctx context.Context, r *rig, ls layerSet) {
	e := r.local
	lines := func(cols ...string) *exec.Plan { return e.Query(ctx, ch.TOrderLine, cols, nil) }
	sum := exec.Agg{Kind: exec.Sum, Expr: c("ol_amount"), Name: "s"}
	n, _ := countRows(ctx, e, ch.TOrderLine, "ol_key")
	rows := float64(n)

	// timed runs a plan built by mk and returns ns and allocations per
	// order line, the input of every plan here.
	timed := func(mk func() *exec.Plan, count bool) (ns, allocs float64) {
		p := mk()
		m0 := mallocs()
		start := time.Now()
		var err error
		if count {
			_, err = p.CountCtx(ctx)
		} else {
			_, err = p.RunCtx(ctx)
		}
		if err != nil {
			return 0, 0
		}
		return ratio(float64(time.Since(start)), rows), ratio(float64(mallocs()-m0), rows)
	}
	// The filter multiplies two columns, which no scan can evaluate on
	// encoded data: the rows reach the filter operator.
	filter := func() *exec.Plan {
		return lines("ol_amount", "ol_quantity").Filter(exec.Cmp(exec.GT,
			exec.Arith(exec.Mul, c("ol_amount"), c("ol_quantity")), exec.ConstFloat(250)))
	}
	agg := func() *exec.Plan { return lines("ol_o_key", "ol_amount").Agg([]string{"ol_o_key"}, sum) }
	join := func() *exec.Plan {
		return lines("ol_o_key", "ol_amount").Join(
			e.Query(ctx, ch.TOrders, []string{"o_key", "o_ol_cnt"}, nil), []string{"ol_o_key"}, []string{"o_key"})
	}
	sortAll := func() *exec.Plan { return lines("ol_key", "ol_amount").Sort(exec.SortKey{Col: "ol_amount"}) }
	topk := func() *exec.Plan {
		return lines("ol_key", "ol_amount").TopK(100, exec.SortKey{Col: "ol_amount", Desc: true})
	}

	ns, _ := timed(filter, true)
	ls.setN("exec.filter_ns_per_row", ns, n)
	ns, allocs := timed(agg, false)
	ls.setN("exec.agg_ns_per_row", ns, n)
	ls.set("exec.agg_allocs_per_row", allocs)
	ns, allocs = timed(join, true)
	ls.setN("exec.join_ns_per_row", ns, n)
	ls.set("exec.join_allocs_per_row", allocs)
	ns, _ = timed(sortAll, false)
	ls.setN("exec.sort_ns_per_row", ns, n)
	ns, _ = timed(topk, false)
	ls.setN("exec.topk_ns_per_row", ns, n)

	// The same three operators under a 16 KB budget per query, which makes
	// each degrade to its spilling algorithm on the simulated device.
	if mg, ok := e.(core.MemGoverned); ok {
		gov := exec.NewGovernor(1<<30, disk.New(disk.DefaultConfig()))
		gov.SetQueryLimit(16 << 10)
		mg.SetMemGovernor(gov)
		ns, _ = timed(agg, false)
		ls.setN("exec.agg_spill_ns_per_row", ns, n)
		ns, _ = timed(join, true)
		ls.setN("exec.join_spill_ns_per_row", ns, n)
		ns, _ = timed(sortAll, false)
		ls.setN("exec.sort_spill_ns_per_row", ns, n)
		ls.set("exec.spill_bytes_per_query", float64(gov.SpillBytes())/3)
		mg.SetMemGovernor(nil)
	}

	// Q1 at DOP 1 against DOP 2, the fastest of five each: Q1 allocates per
	// row, and whether a collection runs beside it doubles its time.
	if p, ok := e.(core.Paralleler); ok {
		q1 := func(dop int) float64 {
			p.SetParallelism(dop)
			best := math.Inf(1)
			for i := 0; i < 5; i++ {
				start := time.Now()
				if _, err := ch.RunQuery(ctx, e, 1); err != nil {
					return 0
				}
				best = math.Min(best, float64(time.Since(start)))
			}
			return best
		}
		ls.set("exec.q01_dop2_speedup", ratio(q1(1), q1(2)))
		p.SetParallelism(apDOP)
	}
}

func microWire(ctx context.Context, r *rig, ls layerSet) {
	const n = 100000
	payload := bytes.Repeat([]byte{7}, 64) // about one point read's request or reply
	var buf bytes.Buffer
	buf.Grow(n * (len(payload) + 5))
	m0 := mallocs()
	ls.setN("wire.frame_write_ns", perCall(n, func(int) { _ = wire.WriteFrame(&buf, wire.MsgOK, payload) }), n)
	ls.setN("wire.frame_read_ns", perCall(n, func(int) { _, _, _ = wire.ReadFrame(&buf) }), n)
	ls.set("wire.frame_allocs", float64(mallocs()-m0)/n)

	// Q9 has the widest result, the one whose shipping the service
	// workload's ap_q09_ms pays for.
	rows, err := ch.RunQuery(ctx, r.local, 9)
	if err != nil || len(rows) == 0 {
		return
	}
	start := time.Now()
	enc := wire.Batch{Rows: rows}.Encode(nil)
	ls.setN("wire.batch_encode_ns_per_row", float64(time.Since(start))/float64(len(rows)), len(rows))
	start = time.Now()
	if _, err := wire.DecodeBatch(enc); err != nil {
		return
	}
	ls.setN("wire.batch_decode_ns_per_row", float64(time.Since(start))/float64(len(rows)), len(rows))
	ls.set("wire.bytes_per_row", float64(len(enc))/float64(len(rows)))
}

// microService prices the service path of an analytical query by running
// each query through the client and directly on the served engine, turn by
// turn on the same quiescent data: what the remote run takes beyond the
// local one is spent outside exec.
func microService(ctx context.Context, r *rig, ls layerSet) {
	var local, remote float64
	var q9 float64
	for q := 1; q <= 22; q++ {
		start := time.Now()
		if _, err := r.runQuery(ctx, q); err != nil {
			return
		}
		rem := float64(time.Since(start))
		start = time.Now()
		if _, err := ch.RunQuery(ctx, r.local, q); err != nil {
			return
		}
		loc := float64(time.Since(start))
		remote += rem
		local += loc
		if q == 9 {
			q9 = rem - loc
		}
	}
	ls.set("service.overhead_ms_q09", ms(q9))
	ls.set("service.outside_exec_share", 1-ratio(local, remote))
}

// microScatter prices scatter-gather on a full scan of the order lines: the
// coordinator's scan against the same scan on each shard alone. The
// gather's own time is what the coordinator takes beyond its slowest shard.
func microScatter(ctx context.Context, r *rig, ls layerSet) {
	const reps = 3
	var coord, slowest float64
	for i := 0; i < reps; i++ {
		_, d := countRows(ctx, r.local, ch.TOrderLine, "ol_key")
		coord += float64(d)
		var worst time.Duration
		for _, sh := range r.engines {
			if _, d := countRows(ctx, sh, ch.TOrderLine, "ol_key"); d > worst {
				worst = d
			}
		}
		slowest += float64(worst)
	}
	ls.set("dist.scatter_self_ms_per_query", ms((coord-slowest)/reps))
	ls.set("dist.slowest_shard_share", ratio(slowest, coord))
}
