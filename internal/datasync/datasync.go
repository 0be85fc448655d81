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
//   - Threshold implements the threshold-based change propagation of
//     §2.2(3): merge when the unmerged backlog or the freshness lag crosses
//     a bound.
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
	start := time.Now()
	entries := d.Pending(upTo)
	res := Result{Entries: len(entries)}
	if len(entries) == 0 {
		if upTo > tbl.Applied() {
			tbl.SetApplied(upTo)
		}
		d.MarkMerged(upTo)
		return res
	}
	keys, net := delta.Fold(entries)
	rows := make([]types.Row, 0, len(net.Rows))
	for _, k := range keys {
		img := net.Rows[k]
		if img == nil {
			if tbl.DeleteKey(k) {
				res.Deleted++
			}
			continue
		}
		rows = append(rows, img)
	}
	tbl.AppendRows(rows) // upserts tombstone superseded images internally
	res.Inserted = len(rows)
	tbl.SetApplied(max(upTo, net.MaxTS))
	tbl.NoteMerge()
	d.MarkMerged(upTo)
	res.Duration = time.Since(start)
	mMerge.note(res.Entries, res.Duration)
	return res
}

// Rebuild discards tbl and re-extracts every live row from the row store at
// snapshot ts (DS technique iii). The paper notes this "is typical for the
// case that the delta updates exceed a certain threshold, thus it is more
// efficient to rebuild the column store than merging these updates".
func Rebuild(tbl *colstore.Table, rs *rowstore.Store, d delta.Store, ts uint64) Result {
	start := time.Now()
	tbl.Reset()
	b := tbl.NewBuilder()
	n := 0
	rs.Scan(ts, func(_ int64, row types.Row) bool {
		b.Add(row)
		n++
		return true
	})
	b.Flush()
	tbl.SetApplied(ts)
	if d != nil {
		d.MarkMerged(ts) // the rebuild subsumes all earlier delta entries
	}
	res := Result{Inserted: n, Duration: time.Since(start)}
	mRebuild.note(res.Inserted, res.Duration)
	return res
}

// Threshold is the threshold-based change-propagation policy of §2.2(3):
// synchronize when the unmerged backlog exceeds MaxEntries or the watermark
// lag exceeds MaxLag timestamps.
type Threshold struct {
	MaxEntries int
	MaxLag     uint64
}

// ShouldSync reports whether the policy asks for a merge, given the delta
// backlog and the current and applied watermarks.
func (t Threshold) ShouldSync(unmerged int, current, applied uint64) bool {
	if t.MaxEntries > 0 && unmerged >= t.MaxEntries {
		return true
	}
	if t.MaxLag > 0 && current > applied && current-applied >= t.MaxLag {
		return true
	}
	return false
}

// Layered is SAP HANA's delta-main hierarchy (§2.1(d)): "The L1-delta keeps
// data updates in a row-wise format. When the threshold is reached, the
// data in L1-delta is appended to L2-delta. The L2-delta transforms the
// data into columnar data, then merges the data into the main column
// store."
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
// engines call it after commits or from a background loop.
func (l *Layered) Maintain(current uint64) {
	if l.L1.Unmerged() >= l.L1Rows {
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
		if l.Main.DeleteKey(k) {
			res.Deleted++
		}
		img := net.Rows[k]
		if img == nil {
			if l.L2.DeleteKey(k) {
				res.Deleted++
			}
			continue
		}
		rows = append(rows, img)
	}
	l.L2.AppendRows(rows)
	res.Inserted = len(rows)
	l.L2.SetApplied(max(upTo, net.MaxTS))
	l.L1.MarkMerged(upTo)
	res.Duration = time.Since(start)
	mPromoteL1.note(res.Entries, res.Duration)
	return res
}

// MergeL2 performs the dictionary-encoded sorting merge: live L2 rows are
// re-encoded into Main segments (string dictionaries are rebuilt sorted by
// the column-store encoder) and L2 is cleared.
func (l *Layered) MergeL2() Result {
	start := time.Now()
	var rows []types.Row
	for _, seg := range l.L2.Segments() {
		mask := seg.DeleteMask()
		for i := 0; i < seg.N; i++ {
			if !mask.Get(i) {
				rows = append(rows, seg.Row(i))
			}
		}
	}
	applied := l.L2.Applied()
	l.L2.Reset()
	l.Main.AppendRows(rows)
	if applied > l.Main.Applied() {
		l.Main.SetApplied(applied)
	}
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
