// Package datasync implements the data-synchronization (DS) techniques of
// the paper's Table 2: the machinery that moves committed OLTP writes into
// the read-optimized column store.
//
//   - MergeDelta covers both "in-memory delta merge" (Oracle, SQL Server,
//     DB2 BLU, Heatwave, HANA) and "log-based delta merge" (TiDB): the cost
//     difference comes entirely from the delta.Store implementation behind
//     it — a Mem delta serves entries from memory, a Log delta pays
//     simulated disk I/O to read its files.
//   - Rebuild covers "rebuild from primary row store" (SingleStore, Oracle):
//     discard the column store and re-extract it from a row-store snapshot,
//     which has a small steady-state memory footprint but a high load cost.
//   - Layered implements SAP HANA's three-layer store (§2.1(d)): a row-wise
//     L1-delta, a columnar L2-delta, and the Main store, with the
//     dictionary-encoded sorting merge between layers.
package datasync

import (
	"time"

	"htap/internal/colstore"
	"htap/internal/delta"
	"htap/internal/obs"
	"htap/internal/rowstore"
	"htap/internal/txn"
	"htap/internal/types"
)

// syncMetrics bundles the per-technique observability series
// (htap_datasync_*, labeled by technique). Handles resolve once at package
// init; the merge paths pay only atomic updates.
type syncMetrics struct {
	batches *obs.Counter   // htap_datasync_batches_total
	entries *obs.Histogram // htap_datasync_batch_entries: delta entries (or rows) per batch
	dur     *obs.Histogram // htap_datasync_duration_ns: propagation latency
}

func newSyncMetrics(technique string) syncMetrics {
	l := obs.L("technique", technique)
	return syncMetrics{
		batches: obs.Default.Counter("htap_datasync_batches_total", l),
		entries: obs.Default.Histogram("htap_datasync_batch_entries", l),
		dur:     obs.Default.Histogram("htap_datasync_duration_ns", l),
	}
}

var (
	mMerge     = newSyncMetrics("merge")
	mRebuild   = newSyncMetrics("rebuild")
	mPromoteL1 = newSyncMetrics("promote_l1")
	mMergeL2   = newSyncMetrics("merge_l2")
)

// note records one completed batch of size n.
func (m syncMetrics) note(n int, d time.Duration) {
	m.batches.Inc()
	m.entries.Observe(int64(n))
	m.dur.ObserveDuration(d)
}

// Result describes one synchronization action.
type Result struct {
	Entries  int           // delta entries consumed
	Inserted int           // rows added to the column store
	Deleted  int           // keys tombstoned in the column store
	Duration time.Duration // wall time of the merge
}

// MergeDelta folds all delta entries with CommitTS <= upTo into tbl,
// advances the table's applied watermark, and marks the entries merged.
func MergeDelta(tbl *colstore.Table, d delta.Store, upTo uint64) Result {
	return MergeShards([]*colstore.Table{tbl}, nil, d, upTo)
}

// MergeShards is MergeDelta over a table spread across shards that hold
// disjoint keys: shardOf routes a key to its shard (nil for one shard).
// The shards' next versions are built outside the delta's lock, then
// published together with its merged watermark, so a reader sees the
// entries either in the delta or in the shards, never in both or neither.
func MergeShards(shards []*colstore.Table, shardOf func(key int64) int, d delta.Store, upTo uint64) Result {
	start := time.Now()
	entries := d.Pending(upTo)
	res := Result{Entries: len(entries)}
	keys, net := delta.Fold(entries)
	dels := make([][]int64, len(shards))
	rows := make([][]types.Row, len(shards))
	for _, k := range keys {
		sh := 0
		if shardOf != nil {
			sh = shardOf(k)
		}
		if img := net.Rows[k]; img != nil {
			rows[sh] = append(rows[sh], img)
		} else {
			dels[sh] = append(dels[sh], k)
		}
	}
	edits := make([]*colstore.Edit, len(shards))
	for i, t := range shards {
		segs := t.Seal(rows[i])
		res.Inserted += len(rows[i])
		e := t.Edit()
		for _, k := range dels[i] {
			if e.Delete(k) {
				res.Deleted++
			}
		}
		e.Add(segs...) // upserts tombstone superseded images
		e.SetApplied(max(upTo, net.MaxTS))
		edits[i] = e
	}
	d.Publish(upTo, func() {
		for _, e := range edits {
			e.Publish()
		}
	})
	if len(entries) == 0 {
		return res
	}
	for _, t := range shards {
		t.NoteMerge()
	}
	res.Duration = time.Since(start)
	mMerge.note(res.Entries, res.Duration)
	return res
}

// Rebuild discards tbl and re-extracts every live row from the row store at
// snapshot ts (DS technique iii). The paper notes this "is typical for the
// case that the delta updates exceed a certain threshold, thus it is more
// efficient to rebuild the column store than merging these updates". The
// new version is built aside and replaces the old one in one publish.
func Rebuild(tbl *colstore.Table, rs *rowstore.Store, d delta.Store, ts uint64) Result {
	start := time.Now()
	var rows []types.Row
	rs.Scan(ts, func(_ int64, row types.Row) bool {
		rows = append(rows, row)
		return true
	})
	segs := tbl.Seal(rows)
	e := tbl.Edit()
	e.Reset()
	e.Add(segs...)
	e.SetApplied(ts)
	if d != nil {
		d.Publish(ts, e.Publish) // the rebuild subsumes all earlier delta entries
	} else {
		e.Publish()
	}
	res := Result{Inserted: len(rows), Duration: time.Since(start)}
	mRebuild.note(res.Inserted, res.Duration)
	return res
}

// Layered is SAP HANA's delta-main hierarchy (§2.1(d)): "The L1-delta keeps
// data updates in a row-wise format. When the threshold is reached, the
// data in L1-delta is appended to L2-delta. The L2-delta transforms the
// data into columnar data, then merges the data into the main column
// store." Main and L2 are one layer set: both promotions publish their
// next versions together under L1 (see delta.Store.Publish), so a reader
// that loads them inside L1.View never sees a row in both layers or in
// neither. Callers serialize promotions.
type Layered struct {
	Schema *types.Schema
	L1     *delta.Mem
	L2     *colstore.Table
	Main   *colstore.Table

	// L1Rows and L2Rows are the promotion thresholds.
	L1Rows int
	L2Rows int
}

// NewLayered returns a layered store with the given promotion thresholds.
func NewLayered(schema *types.Schema, l1Rows, l2Rows int) *Layered {
	return &Layered{
		Schema: schema,
		L1:     delta.NewMem(),
		L2:     colstore.NewTable(schema),
		Main:   colstore.NewTable(schema),
		L1Rows: l1Rows,
		L2Rows: l2Rows,
	}
}

// Append records committed writes into L1 (the row-wise delta).
func (l *Layered) Append(commitTS uint64, ws []txn.Write) {
	l.L1.Append(commitTS, ws)
}

// Maintain promotes L1 to L2 and L2 to Main when thresholds are exceeded;
// engines call it after commits or from a background loop. promoting, if
// not nil, runs just before L1 promotes up to current.
func (l *Layered) Maintain(current uint64, promoting func()) {
	if l.L1.Unmerged() >= l.L1Rows {
		if promoting != nil {
			promoting()
		}
		l.PromoteL1(current)
	}
	if l.L2.LiveRows() >= l.L2Rows {
		l.MergeL2()
	}
}

// PromoteL1 moves all L1 entries with CommitTS <= upTo into the columnar
// L2-delta. Every promoted key tombstones its shadowed image in Main (and,
// for deletes, in L2), so scans never see two versions of a row.
func (l *Layered) PromoteL1(upTo uint64) Result {
	start := time.Now()
	entries := l.L1.Pending(upTo)
	res := Result{Entries: len(entries)}
	keys, net := delta.Fold(entries)
	rows := make([]types.Row, 0, len(net.Rows))
	for _, k := range keys {
		if img := net.Rows[k]; img != nil {
			rows = append(rows, img)
		}
	}
	segs := l.L2.Seal(rows)
	res.Inserted = len(rows)
	main, l2 := l.Main.Edit(), l.L2.Edit()
	for _, k := range keys {
		if main.Delete(k) {
			res.Deleted++
		}
		if net.Rows[k] == nil && l2.Delete(k) {
			res.Deleted++
		}
	}
	l2.Add(segs...)
	l2.SetApplied(max(upTo, net.MaxTS))
	l.L1.Publish(upTo, func() {
		main.Publish()
		l2.Publish()
	})
	res.Duration = time.Since(start)
	mPromoteL1.note(res.Entries, res.Duration)
	return res
}

// MergeL2 performs the dictionary-encoded sorting merge: live L2 rows are
// re-encoded into Main segments (string dictionaries are rebuilt sorted by
// the column-store encoder) and L2 is cleared.
func (l *Layered) MergeL2() Result {
	start := time.Now()
	v := l.L2.Version() // promotions are serialized: v stays L2's version
	var rows []types.Row
	for si, seg := range v.Segs {
		for i := 0; i < seg.N; i++ {
			if !v.Dels[si].Get(i) {
				rows = append(rows, seg.Row(i))
			}
		}
	}
	segs := l.Main.Seal(rows)
	main, l2 := l.Main.Edit(), l.L2.Edit()
	main.Add(segs...)
	main.SetApplied(v.Applied)
	l2.Reset()
	l.L1.Publish(0, func() {
		main.Publish()
		l2.Publish()
	})
	l.Main.NoteMerge()
	res := Result{Inserted: len(rows), Duration: time.Since(start)}
	mMergeL2.note(res.Inserted, res.Duration)
	return res
}

// Applied returns the watermark covered by Main and L2 together.
func (l *Layered) Applied() uint64 {
	if a := l.L2.Applied(); a > l.Main.Applied() {
		return a
	}
	return l.Main.Applied()
}

// Bytes estimates the memory footprint across layers.
func (l *Layered) Bytes() int {
	return l.L1.Bytes() + l.L2.Bytes() + l.Main.Bytes()
}
