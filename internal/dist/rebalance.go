package dist

import (
	"context"
	"errors"
	"fmt"
	"time"

	"htap/internal/core"
	"htap/internal/twopc"
	"htap/internal/types"
)

// Online shard rebalancing: move a warehouse range between shard
// engines while transactions and queries keep running.
//
// The move is a fenced copy–catchup–cutover:
//
//  1. Fuzzy snapshot (unfenced): scan the source shard for every row
//     owned by the moving range while writes continue. The snapshot is
//     only a baseline for measuring catch-up volume — it is never what
//     gets installed.
//  2. Fence + drain: a fence blocks NEW transactions from routing into
//     the range (they park on the fence channel until cutover, or their
//     context dies); transactions that already touched the range before
//     the fence rose pass through and the drain loop waits for them to
//     finish. After the drain no in-flight transaction can write the
//     range.
//  3. Catch-up: sync the source engine so every committed write is
//     scan-visible, then rescan under the fence. This fenced rescan is
//     the authoritative row set; its diff against the snapshot is the
//     catch-up volume (htap_dist_rebalance_catchup_rows_total).
//  4. Cutover: one transaction on the destination inserts every row,
//     one on the source deletes every key, and both commit atomically
//     through twopc.CommitAll. A clean failure aborts both branches —
//     nothing moved, the move is retryable. An indeterminate commit
//     (lost acknowledgement) is repaired by re-checking both shards
//     row by row and completing whatever half survived.
//  5. Flip + unfence: install a new routing table (version+1) with one
//     atomic store, then release the fence. Parked transactions wake,
//     re-read the table, and route to the new owner.
//
// Scatter queries running concurrently with the cutover commit window
// can transiently observe the moving rows on both shards or on neither
// (the 2PC commit phase delivers the two branch commits concurrently).
// The window is one in-process commit wide; the equivalence gate queries outside it
// and asserts bit-exact results, and the concurrent-load test asserts
// convergence after the move.

// moveFence marks warehouses [lo, hi] as moving. done closes when the
// move finishes (either way), releasing parked transactions.
type moveFence struct {
	lo, hi int64
	done   chan struct{}
}

// movedRow is one row image captured by the fenced rescan.
type movedRow struct {
	table string
	key   int64
	row   types.Row
}

// MoveRange moves warehouses [lo, hi] from their current owner to shard
// dest, returning the number of rows cut over and the routing-table
// version now in effect. The range must currently be owned by a single
// shard, and all shards must be in-process (remote shard stores are
// preloaded per server; moving them needs a data plane the wire
// protocol doesn't have).
func (d *Engine) MoveRange(ctx context.Context, lo, hi, dest int) (int64, int64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if lo < 1 || hi > d.rt.warehouses || lo > hi {
		return 0, 0, fmt.Errorf("dist: warehouse range [%d, %d] outside [1, %d]", lo, hi, d.rt.warehouses)
	}
	if dest < 0 || dest >= len(d.shards) {
		return 0, 0, fmt.Errorf("dist: destination shard %d out of range", dest)
	}
	for _, s := range d.shards {
		if s.local == nil {
			return 0, 0, fmt.Errorf("dist: rebalance requires in-process shards (%s is remote)", s.name)
		}
	}

	d.moveMu.Lock()
	defer d.moveMu.Unlock()

	rt := d.rtab.Load()
	src := rt.owners[lo-1]
	for w := lo; w <= hi; w++ {
		if rt.owners[w-1] != src {
			return 0, 0, fmt.Errorf("dist: range [%d, %d] spans shards %d and %d; move one owner's range at a time",
				lo, hi, src, rt.owners[w-1])
		}
	}
	if src == dest {
		return 0, rt.version, nil
	}
	rebalanceMoves.Inc()

	// Phase 1: fuzzy snapshot.
	d.shards[src].local.Sync()
	snap, err := d.rangeRows(ctx, src, int64(lo), int64(hi))
	if err != nil {
		rebalanceFailures.Inc()
		return 0, rt.version, err
	}
	if d.afterCopy != nil {
		d.afterCopy()
	}

	// Phase 2: fence + drain.
	f := &moveFence{lo: int64(lo), hi: int64(hi), done: make(chan struct{})}
	d.fence.Store(f)
	unfenced := false
	unfence := func() {
		if !unfenced {
			unfenced = true
			d.fence.Store(nil)
			close(f.done)
		}
	}
	defer unfence()
	if err := d.drainTouchers(ctx, f.lo, f.hi); err != nil {
		rebalanceFailures.Inc()
		return 0, rt.version, err
	}

	// Phase 3: catch-up — the fenced rescan is authoritative.
	d.shards[src].local.Sync()
	final, err := d.rangeRows(ctx, src, int64(lo), int64(hi))
	if err != nil {
		rebalanceFailures.Inc()
		return 0, rt.version, err
	}
	rebalanceCatchup.Add(diffRows(snap, final))

	// Phase 4: cutover.
	moved, err := d.cutover(ctx, src, dest, final)
	if err != nil {
		rebalanceFailures.Inc()
		return 0, rt.version, err
	}

	// Phase 5: flip, then unfence.
	nt := rt.moved(lo, hi, dest)
	d.rtab.Store(nt)
	unfence()
	d.shards[src].local.Sync()
	d.shards[dest].local.Sync()
	rebalanceRows.Add(moved)
	return moved, nt.version, nil
}

// rangeRows scans every non-replicated table on shard si for rows owned
// by warehouses [lo, hi], in table catalog order and shard scan order.
func (d *Engine) rangeRows(ctx context.Context, si int, lo, hi int64) ([]movedRow, error) {
	e := d.shards[si].local
	var out []movedRow
	for _, sch := range d.ts {
		if replicated(sch.Name) {
			continue
		}
		rows, err := e.Query(ctx, sch.Name, nil, nil).RunCtx(ctx)
		if err != nil {
			return nil, fmt.Errorf("dist: rebalance scan of %s: %w", sch.Name, err)
		}
		for _, r := range rows {
			key := sch.Key(r)
			w, ok := rowWarehouse(sch.Name, key, r)
			if ok && w >= lo && w <= hi {
				out = append(out, movedRow{table: sch.Name, key: key, row: r})
			}
		}
	}
	return out, nil
}

// diffRows counts rows added, changed, or removed between two scans of
// the same range — the catch-up volume the fence absorbed.
func diffRows(snap, final []movedRow) int64 {
	type rk struct {
		table string
		key   int64
	}
	old := make(map[rk]types.Row, len(snap))
	for _, m := range snap {
		old[rk{m.table, m.key}] = m.row
	}
	var n int64
	for _, m := range final {
		prev, ok := old[rk{m.table, m.key}]
		if !ok || !rowEqual(prev, m.row) {
			n++
		}
		delete(old, rk{m.table, m.key})
	}
	return n + int64(len(old))
}

func rowEqual(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// drainTouchers waits until no open transaction has routed into the
// fenced range. New entrants are parked on the fence, so the set can
// only shrink; a transaction that never finishes is the caller's
// context deadline to enforce.
func (d *Engine) drainTouchers(ctx context.Context, lo, hi int64) error {
	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("dist: rebalance drain: %w", err)
		}
		busy := false
		d.txMu.Lock()
		for t := range d.open {
			if t.touchedRange(lo, hi) {
				busy = true
				break
			}
		}
		d.txMu.Unlock()
		if !busy {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// cutover atomically installs the fenced row set on dest and removes it
// from src through one two-phase commit: a destination branch holding
// only inserts and a source branch holding only deletes.
func (d *Engine) cutover(ctx context.Context, src, dest int, rows []movedRow) (int64, error) {
	destTx := d.shards[dest].local.Begin(ctx)
	srcTx := d.shards[src].local.Begin(ctx)
	abortBoth := func() {
		destTx.Abort()
		srcTx.Abort()
	}
	for _, m := range rows {
		if err := destTx.Insert(m.table, m.row); err != nil {
			abortBoth()
			return 0, fmt.Errorf("dist: cutover insert %s/%d: %w", m.table, m.key, err)
		}
	}
	for _, m := range rows {
		if err := srcTx.Delete(m.table, m.key); err != nil {
			abortBoth()
			return 0, fmt.Errorf("dist: cutover delete %s/%d: %w", m.table, m.key, err)
		}
	}
	branches := []twopc.TxParticipant{
		txBranch{name: "rebalance-dest", tx: destTx},
		txBranch{name: "rebalance-src", tx: srcTx},
	}
	if d.wrapBranch != nil {
		for i := range branches {
			branches[i] = d.wrapBranch(branches[i])
		}
	}
	if d.beforeCutover != nil {
		d.beforeCutover()
	}
	err := twopc.CommitAll(ctx, branches...)
	if err == nil {
		return int64(len(rows)), nil
	}
	var ind *twopc.IndeterminateError
	if errors.As(err, &ind) {
		// One branch may or may not have applied. Repair to the moved
		// state row by row: it is idempotent and resolves every
		// combination of half-applied outcomes the commit phase can
		// leave behind.
		if rerr := d.resolveMove(src, dest, rows); rerr != nil {
			return 0, fmt.Errorf("dist: cutover indeterminate (%v); repair failed: %w", err, rerr)
		}
		return int64(len(rows)), nil
	}
	// Clean failure: CommitAll aborted every branch; nothing moved.
	return 0, fmt.Errorf("dist: cutover: %w", err)
}

// resolveMove forces the moved state after an indeterminate cutover:
// ensure dest holds every final row and src holds none of the keys.
func (d *Engine) resolveMove(src, dest int, rows []movedRow) error {
	ctx := context.Background()
	dt := d.shards[dest].local.Begin(ctx)
	for _, m := range rows {
		_, err := dt.Get(m.table, m.key)
		if err == nil {
			continue
		}
		if !errors.Is(err, core.ErrNotFound) {
			dt.Abort()
			return err
		}
		if err := dt.Insert(m.table, m.row); err != nil {
			dt.Abort()
			return err
		}
	}
	if err := dt.Commit(); err != nil {
		return err
	}
	st := d.shards[src].local.Begin(ctx)
	for _, m := range rows {
		_, err := st.Get(m.table, m.key)
		if errors.Is(err, core.ErrNotFound) {
			continue
		}
		if err != nil {
			st.Abort()
			return err
		}
		if err := st.Delete(m.table, m.key); err != nil {
			st.Abort()
			return err
		}
	}
	return st.Commit()
}
