package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"htap/internal/ch"
	"htap/internal/core"
	"htap/internal/twopc"
	"htap/internal/types"
)

// distTx is one coordinator transaction: a lazy branch per shard, opened
// the first time an operation routes there. Single-warehouse TPC-C
// transactions therefore open exactly one branch and commit directly;
// only genuinely cross-warehouse work (remote NewOrder items, remote
// Payment customers) pays the prepare round.
type distTx struct {
	d    *Engine
	ctx  context.Context
	subs []core.Tx
	done bool

	mu      sync.Mutex
	touched []int64 // warehouses this transaction routed to
}

// shardFor routes warehouse w through the live table, honoring a
// rebalance fence: a transaction entering the moving range for the
// first time blocks until the cutover completes (or its context dies),
// while a transaction that already touched the range before the fence
// rose passes through — the move's drain phase is waiting on IT to
// finish, so parking it would deadlock.
func (t *distTx) shardFor(w int64) (int, error) {
	for {
		f := t.d.fence.Load()
		if f == nil || w < f.lo || w > f.hi || t.touchedRange(f.lo, f.hi) {
			break
		}
		select {
		case <-f.done:
		case <-t.ctx.Done():
			return 0, t.ctx.Err()
		}
	}
	t.mu.Lock()
	seen := false
	for _, tw := range t.touched {
		if tw == w {
			seen = true
			break
		}
	}
	if !seen {
		t.touched = append(t.touched, w)
	}
	t.mu.Unlock()
	return t.d.rtab.Load().shardOf(w), nil
}

// touchedRange reports whether the transaction already routed into
// [lo, hi].
func (t *distTx) touchedRange(lo, hi int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range t.touched {
		if w >= lo && w <= hi {
			return true
		}
	}
	return false
}

// errTxDone mirrors the engines' finished-transaction errors.
var errTxDone = errors.New("dist: transaction finished")

func (t *distTx) sub(i int) core.Tx {
	if t.subs[i] == nil {
		t.subs[i] = t.d.shards[i].begin(t.ctx)
	}
	return t.subs[i]
}

// readShard picks the branch for a replicated-table read: the lowest-index
// shard this transaction already opened, else shard 0. Preferring an open
// branch keeps a single-warehouse transaction on its one shard — routing
// dimension reads anywhere else would make every NewOrder cross-shard.
func (t *distTx) readShard() int {
	for i, s := range t.subs {
		if s != nil {
			return i
		}
	}
	return 0
}

func (t *distTx) route(table string, key int64) (int, error) {
	w, ok := warehouseOfKey(table, key)
	if !ok {
		return 0, fmt.Errorf("dist: cannot route %s by key", table)
	}
	return t.shardFor(w)
}

// Get implements core.Tx.
func (t *distTx) Get(table string, key int64) (types.Row, error) {
	if t.done {
		return nil, errTxDone
	}
	if replicated(table) {
		return t.sub(t.readShard()).Get(table, key)
	}
	if table == ch.THistory {
		// History keys come from a global sequence and carry no placement;
		// probe shards in order. TPC-C never reads history transactionally,
		// so the fan-out read is a test/debug convenience, not a hot path.
		for i := range t.d.shards {
			r, err := t.sub(i).Get(table, key)
			if err == nil || !errors.Is(err, core.ErrNotFound) {
				return r, err
			}
		}
		return nil, core.ErrNotFound
	}
	i, err := t.route(table, key)
	if err != nil {
		return nil, err
	}
	return t.sub(i).Get(table, key)
}

// writeShard routes a write by row image (covers history's h_w_id).
func (t *distTx) writeShard(table string, key int64, row types.Row) (int, error) {
	w, ok := rowWarehouse(table, key, row)
	if !ok {
		return 0, fmt.Errorf("dist: cannot route %s row", table)
	}
	return t.shardFor(w)
}

// Insert implements core.Tx. Replicated-table writes broadcast so every
// shard's copy stays identical.
func (t *distTx) Insert(table string, row types.Row) error {
	return t.write(table, row, func(tx core.Tx) error { return tx.Insert(table, row) })
}

// Update implements core.Tx.
func (t *distTx) Update(table string, row types.Row) error {
	return t.write(table, row, func(tx core.Tx) error { return tx.Update(table, row) })
}

func (t *distTx) write(table string, row types.Row, op func(core.Tx) error) error {
	if t.done {
		return errTxDone
	}
	sch := t.d.byName[table]
	if sch == nil {
		return fmt.Errorf("%w: %s", core.ErrNoTable, table)
	}
	if replicated(table) {
		for i := range t.d.shards {
			if err := op(t.sub(i)); err != nil {
				return err
			}
		}
		return nil
	}
	i, err := t.writeShard(table, sch.Key(row), row)
	if err != nil {
		return err
	}
	return op(t.sub(i))
}

// Delete implements core.Tx.
func (t *distTx) Delete(table string, key int64) error {
	if t.done {
		return errTxDone
	}
	if replicated(table) {
		for i := range t.d.shards {
			if err := t.sub(i).Delete(table, key); err != nil {
				return err
			}
		}
		return nil
	}
	i, err := t.route(table, key)
	if err != nil {
		return err
	}
	return t.sub(i).Delete(table, key)
}

// Commit implements core.Tx through twopc.CommitAll. One open branch
// commits directly — its own engine provides the one-shot semantics, and
// its error (retryable conflict, indeterminate remote commit) passes
// through unchanged. Several branches pay two phases: parallel prepare,
// abort-all on any prepare failure (safe to retry), then the commit
// decision delivered to every branch, with indeterminate-commit semantics
// on a lost acknowledgement.
func (t *distTx) Commit() error {
	if t.done {
		return errTxDone
	}
	t.done = true
	// Leave the open set only once the branches have committed: a
	// rebalance drain that saw this transaction gone would otherwise
	// rescan the moving range before its writes land.
	defer t.d.forget(t)
	var branches []twopc.TxParticipant
	for i, s := range t.subs {
		if s != nil {
			branches = append(branches, txBranch{name: t.d.shards[i].name, tx: s})
		}
	}
	if len(branches) == 1 {
		routedTxns.Inc()
	} else if len(branches) > 1 {
		crossShardTxns.Inc()
	}
	return twopc.CommitAll(t.ctx, branches...)
}

// Abort implements core.Tx.
func (t *distTx) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.d.forget(t)
	for _, s := range t.subs {
		if s != nil {
			s.Abort()
		}
	}
}

// txBranch adapts one shard's engine transaction to a 2PC participant.
type txBranch struct {
	name string
	tx   core.Tx
}

// Name implements twopc.TxParticipant.
func (b txBranch) Name() string { return b.name }

// Prepare implements twopc.TxParticipant. Remote transactions expose a
// wire-level prepare vote. An in-process engine transaction, on any of the
// four architectures, acquired every lock and passed every snapshot check
// as its writes were buffered (txn.Txn.Put), so an open local branch is
// implicitly prepared.
func (b txBranch) Prepare(context.Context) error {
	if p, ok := b.tx.(interface{ Prepare() error }); ok {
		return p.Prepare()
	}
	return nil
}

// Commit implements twopc.TxParticipant.
func (b txBranch) Commit(context.Context) error { return b.tx.Commit() }

// Abort implements twopc.TxParticipant.
func (b txBranch) Abort(context.Context) { b.tx.Abort() }
