package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"htap/internal/ch"
	"htap/internal/core"
)

// perLayerSpec lists the per-layer metrics in reporting order. A name is
// <module>.<what>, the module being a directory under internal/. Every
// traced run prints all of them; one a workload does not exercise reads 0.
var perLayerSpec = func() []struct{ name, unit string } {
	var s []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			s = append(s, struct{ name, unit string }{n, unit})
		}
	}
	for q := 1; q <= 22; q++ {
		add("ms", fmt.Sprintf("ch.q%02d_p50_ms", q))
	}
	add("us", "ch.neworder_p50_us", "ch.payment_p50_us", "ch.orderstatus_p50_us", "ch.delivery_p50_us", "ch.stocklevel_p50_us")
	add("us", "core.begin_us", "core.get_us", "core.insert_us", "core.update_us", "core.delete_us", "core.commit_us")
	add("count", "core.ops_per_txn")
	add("ratio", "core.commit_share")
	add("count", "core.aborts_per_ktxn", "core.conflicts_per_ktxn")
	add("ms", "core.sync_ms")
	add("ratio", "core.sync_busy_share")
	add("ns", "txn.begin_commit_ns")
	add("count", "txn.allocs_per_commit")
	add("ns", "rowstore.get_ns", "rowstore.insert_ns", "rowstore.update_ns", "rowstore.scan_ns_per_row", "btree.put_ns", "btree.get_ns")
	add("ns", "wal.append_ns")
	add("us", "wal.flush_us")
	add("count", "wal.records_per_txn")
	add("B", "wal.bytes_per_txn")
	add("count", "wal.records_per_flush", "disk.write_ops_per_txn")
	add("B", "disk.write_bytes_per_txn")
	add("count", "disk.read_ops_per_query")
	add("ns", "delta.append_ns")
	add("us", "delta.overlay_us")
	add("rows", "delta.unmerged_rows_mean")
	add("us", "datasync.merge_us_per_krow")
	add("count", "datasync.batches", "datasync.entries_per_batch")
	add("ratio", "datasync.busy_share")
	add("ms", "datasync.fresh_lag_mean_ms", "datasync.fresh_lag_max_ms")
	add("ns", "colstore.scan_ns_per_row", "colstore.filter_raw_ns_per_row", "colstore.filter_rle_ns_per_row",
		"colstore.filter_dict_ns_per_row", "colstore.encode_ns_per_row", "colstore.appendrows_ns_per_row")
	add("B", "colstore.bytes_per_row")
	add("ns", "exec.filter_ns_per_row", "exec.agg_ns_per_row", "exec.join_ns_per_row", "exec.sort_ns_per_row", "exec.topk_ns_per_row")
	add("count", "exec.agg_allocs_per_row", "exec.join_allocs_per_row")
	add("ns", "exec.agg_spill_ns_per_row", "exec.join_spill_ns_per_row", "exec.sort_spill_ns_per_row")
	add("B", "exec.spill_bytes_per_query")
	add("rows", "exec.rows_scanned_per_query", "exec.rows_materialized_per_query")
	add("ratio", "exec.materialized_share")
	add("count", "exec.segments_pruned_per_query", "exec.morsels_per_query")
	add("ratio", "exec.q01_dop2_speedup")
	add("ns", "wire.frame_write_ns", "wire.frame_read_ns")
	add("count", "wire.frame_allocs")
	add("ns", "wire.batch_encode_ns_per_row", "wire.batch_decode_ns_per_row")
	add("B", "wire.bytes_per_row")
	add("count", "server.requests_per_txn")
	add("us", "server.admit_wait_us_mean")
	add("count", "server.shed_total")
	add("ratio", "server.engine_share")
	add("us", "client.roundtrip_us")
	add("count", "client.retries_per_kreq")
	add("us", "service.overhead_us_per_txn")
	add("ms", "service.overhead_ms_q09")
	add("ratio", "service.outside_exec_share")
	add("ratio", "dist.cross_shard_share")
	add("count", "dist.fragments_per_query")
	add("rows", "dist.merge_rows_per_query")
	add("count", "dist.partial_groups_per_query")
	add("us", "dist.self_us_per_txn")
	add("ms", "dist.scatter_self_ms_per_query")
	add("ratio", "dist.slowest_shard_share")
	add("us", "twopc.commit_p50_us", "twopc.single_shard_commit_p50_us")
	add("count", "go.gc_cycles")
	add("us", "go.gc_pause_p99_us")
	add("MB", "go.heap_live_mb")
	add("ratio", "gen.late_share")
	add("ms", "gen.max_late_ms")
	add("%", "trace.overhead_pct")
	// Measured like end-to-end metrics but too unsteady on the sizing host to
	// be gated as such (see README, "Comparing and calibrating").
	add("ms", "bench.ap_q01_ms", "bench.mix_neworder_p50_ms")
	return s
}()

var queryNames = func() [23]string {
	var n [23]string
	for q := 1; q <= 22; q++ {
		n[q] = fmt.Sprintf("ch.q%02d", q)
	}
	return n
}()

// layerSet collects per-layer values against perLayerSpec.
type layerSet map[string]metric

func newLayerSet() layerSet {
	ls := make(layerSet, len(perLayerSpec))
	for _, m := range perLayerSpec {
		ls[m.name] = metric{Unit: m.unit}
	}
	return ls
}

// set stores a value under a declared name; an undeclared name is a bug in
// the bench.
func (ls layerSet) set(name string, v float64) {
	m, ok := ls[name]
	if !ok {
		panic("bench: undeclared per-layer metric " + name)
	}
	m.Value = v
	ls[name] = m
}

func (ls layerSet) setN(name string, v float64, n int) {
	ls.set(name, v)
	m := ls[name]
	m.N = n
	ls[name] = m
}

// engineStats sums core.Stats over the rig's architecture-A engines (dist's
// own Stats leaves the devices out).
func (r *rig) engineStats() core.Stats {
	var sum core.Stats
	for _, e := range r.engines {
		st := e.Stats()
		sum.Commits += st.Commits
		sum.Aborts += st.Aborts
		sum.Conflicts += st.Conflicts
		sum.ColBytes += st.ColBytes
		sum.DeltaRows += st.DeltaRows
		sum.Disk.ReadOps += st.Disk.ReadOps
		sum.Disk.WriteOps += st.Disk.WriteOps
		sum.Disk.WriteBytes += st.Disk.WriteBytes
	}
	return sum
}

// window is the before/after state around the load phases: the htap_*
// counters, the engines' own statistics and the Go runtime's.
type window struct {
	counters counters
	stats    core.Stats
	gc       gcState
	start    time.Time
	wall     time.Duration
}

func openWindow(r *rig) *window {
	return &window{counters: readCounters(), stats: r.engineStats(), gc: readGC(), start: time.Now()}
}

// close turns the window into deltas.
func (w *window) close(r *rig) {
	w.wall = time.Since(w.start)
	w.counters = w.counters.delta(readCounters())
	st := r.engineStats()
	w.stats.Commits = st.Commits - w.stats.Commits
	w.stats.Aborts = st.Aborts - w.stats.Aborts
	w.stats.Conflicts = st.Conflicts - w.stats.Conflicts
	w.stats.Disk.ReadOps = st.Disk.ReadOps - w.stats.Disk.ReadOps
	w.stats.Disk.WriteOps = st.Disk.WriteOps - w.stats.Disk.WriteOps
	w.stats.Disk.WriteBytes = st.Disk.WriteBytes - w.stats.Disk.WriteBytes
	w.stats.ColBytes = st.ColBytes
	w.gc = w.gc.since()
}

// gcState is the Go runtime's garbage-collection state: cycles and the
// cumulative pause histogram.
type gcState struct {
	cycles uint64
	pauses *metrics.Float64Histogram
}

func readGC() gcState {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/pauses:seconds"}}
	metrics.Read(s)
	g := gcState{}
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[1].Value.Float64Histogram()
		g.pauses = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	return g
}

func (g gcState) since() gcState {
	n := readGC()
	n.cycles -= g.cycles
	if n.pauses != nil && g.pauses != nil && len(n.pauses.Counts) == len(g.pauses.Counts) {
		for i := range n.pauses.Counts {
			n.pauses.Counts[i] -= g.pauses.Counts[i]
		}
	}
	return n
}

// pauseP99US is the upper bound of the bucket holding the 99th percentile
// pause, in microseconds.
func (g gcState) pauseP99US() float64 {
	if g.pauses == nil {
		return 0
	}
	var total uint64
	for _, c := range g.pauses.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(float64(total)*0.99 + 0.5)
	var seen uint64
	for i, c := range g.pauses.Counts {
		seen += c
		if seen >= want {
			return g.pauses.Buckets[i+1] * 1e6
		}
	}
	return 0
}

// probeResult is what the 5 ms sampler saw while TP ran: the freshness lag
// the engine reports and the rows waiting in its delta.
type probeResult struct {
	lagSumMS, lagMaxMS float64
	lagN               int
	deltaSum           float64
	deltaN             int
}

// startProbe samples Engine.Freshness every 5 ms and Stats().DeltaRows
// every 50 ms until stop closes.
func startProbe(r *rig, stop <-chan struct{}, wg *sync.WaitGroup) *probeResult {
	p := &probeResult{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			lag := ms(float64(r.local.Freshness().LagTime))
			p.lagSumMS += lag
			p.lagN++
			if lag > p.lagMaxMS {
				p.lagMaxMS = lag
			}
			if i%10 == 0 {
				p.deltaSum += float64(r.local.Stats().DeltaRows)
				p.deltaN++
			}
		}
	}()
	return p
}

// queryMedians returns the median latency of each query in ms (index
// 1..22; 0 where a query never completed).
func queryMedians(ap *apResult) [23]float64 {
	var med [23]float64
	for q := 1; q <= 22; q++ {
		med[q] = ms(percentile(ap.lat[q].sorted(), 50))
	}
	return med
}

var txnMetric = map[ch.TxnType]string{
	ch.NewOrderTxn: "ch.neworder_p50_us", ch.PaymentTxn: "ch.payment_p50_us",
	ch.OrderStatusTxn: "ch.orderstatus_p50_us", ch.DeliveryTxn: "ch.delivery_p50_us",
	ch.StockLevelTxn: "ch.stocklevel_p50_us",
}

// perLayerMetrics derives the per-layer table of a traced run: from the
// spans, from the counter deltas of the load window, from the sampler, and
// from direct micro-calls made now.
func perLayerMetrics(ctx context.Context, r *rig, m *measured, tr *tracer, w *window) map[string]metric {
	ls := newLayerSet()
	txns, queries := float64(m.txns()), float64(m.queries())
	c := w.counters

	// ch: the 22 queries and the five transactions, as the generator saw them.
	med := queryMedians(m.ap)
	for q := 1; q <= 22; q++ {
		ls.setN(fmt.Sprintf("ch.q%02d_p50_ms", q), med[q], len(m.ap.lat[q]))
	}
	for class, name := range txnMetric {
		s := m.tp.svc[class].sorted()
		ls.setN(name, us(percentile(s, 50)), len(s))
	}

	ls.setN("bench.ap_q01_ms", queryBest(m.ap)[1], len(m.ap.lat[1]))
	ls.setN("bench.mix_neworder_p50_ms", lowest(m.mix, newOrderLatency(50)), len(m.mix.lat[ch.NewOrderTxn]))

	// core: the engine boundary, from the recorded slice.
	tr.mu.Lock()
	ops, opNS, layerNS := float64(tr.ops), float64(tr.opNS), tr.layerNS
	commit1, commit2 := tr.commit1.sorted(), tr.commit2.sorted()
	syncs := append([]span(nil), tr.syncs...)
	tr.mu.Unlock()
	var calls float64
	for call, name := range map[string]string{
		"core.begin": "core.begin_us", "core.get": "core.get_us", "core.insert": "core.insert_us",
		"core.update": "core.update_us", "core.delete": "core.delete_us", "core.commit": "core.commit_us",
	} {
		a := tr.call(call)
		ls.setN(name, us(ratio(float64(a.dur), float64(a.count))), int(a.count))
		if call != "core.begin" && call != "core.commit" {
			calls += float64(a.count)
		}
	}
	ls.set("core.ops_per_txn", ratio(calls, ops))
	ls.set("core.commit_share", ratio(float64(tr.call("core.commit").dur), opNS))
	ls.set("core.aborts_per_ktxn", 1000*ratio(float64(w.stats.Aborts), txns))
	ls.set("core.conflicts_per_ktxn", 1000*ratio(float64(w.stats.Conflicts), txns))
	var syncNS float64
	for _, s := range syncs {
		syncNS += float64(s.end - s.start)
	}
	ls.setN("core.sync_ms", ms(ratio(syncNS, float64(len(syncs)))), len(syncs))
	ls.set("core.sync_busy_share", ratio(syncNS, float64(m.tp.wall)))

	// wal, disk, datasync, exec, dist: deltas of the program's own counters
	// over the load window.
	ls.set("wal.records_per_txn", ratio(c["htap_wal_records_total"], txns))
	ls.set("wal.bytes_per_txn", ratio(c["htap_wal_flushed_bytes_total"], txns))
	ls.set("wal.records_per_flush", ratio(c["htap_wal_records_total"], c["htap_wal_flushes_total"]))
	ls.set("disk.write_ops_per_txn", ratio(float64(w.stats.Disk.WriteOps), txns))
	ls.set("disk.write_bytes_per_txn", ratio(float64(w.stats.Disk.WriteBytes), txns))
	ls.set("disk.read_ops_per_query", ratio(float64(w.stats.Disk.ReadOps), queries))
	ls.set("datasync.batches", c["htap_datasync_batches_total"])
	ls.set("datasync.entries_per_batch", ratio(c["htap_datasync_batch_entries_sum"], c["htap_datasync_batch_entries_count"]))
	ls.set("datasync.busy_share", ratio(c["htap_datasync_duration_ns_sum"], float64(w.wall)))
	ls.set("exec.rows_scanned_per_query", ratio(c["htap_exec_pushdown_rows_scanned_total"], queries))
	ls.set("exec.rows_materialized_per_query", ratio(c["htap_exec_pushdown_rows_materialized_total"], queries))
	ls.set("exec.materialized_share", ratio(c["htap_exec_pushdown_rows_materialized_total"], c["htap_exec_pushdown_rows_scanned_total"]))
	ls.set("exec.segments_pruned_per_query", ratio(c["htap_exec_pushdown_segments_pruned_total"], queries))
	ls.set("exec.morsels_per_query", ratio(c["htap_exec_morsels_total"], queries))
	ls.set("server.admit_wait_us_mean", us(ratio(c["htap_server_admission_wait_ns_sum"], c["htap_server_admission_wait_ns_count"])))
	ls.set("server.shed_total", c["htap_server_shed_total"])
	ls.set("client.retries_per_kreq", 1000*ratio(c["htap_client_retries_total"], c["htap_client_requests_total"]))
	ls.set("dist.cross_shard_share", ratio(c["htap_dist_txn_cross_shard_total"], c["htap_dist_txn_cross_shard_total"]+c["htap_dist_txn_routed_total"]))
	ls.set("dist.fragments_per_query", ratio(c["htap_dist_scatter_fragments_total"], queries))
	ls.set("dist.merge_rows_per_query", ratio(c["htap_dist_merge_rows_total"], queries))
	ls.set("dist.partial_groups_per_query", ratio(c["htap_dist_partial_groups_total"], queries))

	// delta, freshness: the sampler.
	if p := m.probe; p != nil {
		ls.setN("delta.unmerged_rows_mean", ratio(p.deltaSum, float64(p.deltaN)), p.deltaN)
		ls.setN("datasync.fresh_lag_mean_ms", ratio(p.lagSumMS, float64(p.lagN)), p.lagN)
		ls.setN("datasync.fresh_lag_max_ms", p.lagMaxMS, p.lagN)
	}

	// server, client, dist, twopc: self time of the layer-1 boundary, which
	// is its spans minus what the layer-2 spans inside them cover.
	switch {
	case r.spec.remote:
		var trips int64
		for _, call := range []string{"begin", "get", "insert", "update", "delete", "commit", "abort"} {
			trips += tr.call("client." + call).count
		}
		get := tr.call("client.get")
		ls.set("server.requests_per_txn", ratio(float64(trips), ops))
		ls.set("server.engine_share", ratio(float64(layerNS[layInner]), float64(layerNS[layOuter]+layerNS[layInner])))
		ls.setN("client.roundtrip_us", us(ratio(float64(get.self), float64(get.count))), int(get.count))
		ls.set("service.overhead_us_per_txn", us(ratio(float64(layerNS[layOuter]), ops)))
	case r.spec.shards > 0:
		ls.set("dist.self_us_per_txn", us(ratio(float64(layerNS[layOuter]), ops)))
		ls.setN("twopc.commit_p50_us", us(percentile(commit2, 50)), len(commit2))
		ls.setN("twopc.single_shard_commit_p50_us", us(percentile(commit1, 50)), len(commit1))
	}

	// The generator itself and the price of recording.
	ls.set("gen.late_share", ratio(float64(m.mix.late), float64(m.mix.txns)))
	ls.set("gen.max_late_ms", ms(float64(m.mix.maxLate)))
	ls.set("trace.overhead_pct", 100*(ratio(m.tp.svcMeanNS(), m.tpOff.svcMeanNS())-1))

	runMicros(ctx, r, ls)

	ls.set("go.gc_cycles", float64(w.gc.cycles))
	ls.set("go.gc_pause_p99_us", w.gc.pauseP99US())
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	ls.set("go.heap_live_mb", float64(mem.HeapAlloc)/(1<<20))
	return ls
}
