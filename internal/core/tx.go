package core

import (
	"context"
	"errors"
	"time"

	"htap/internal/txn"
	"htap/internal/types"
)

// txStore is an architecture's side of the one transaction type: the
// committed state its transactions read, and its commit. The transaction
// itself — own writes in txn.Txn's write set, the existence rule
// (txn.Txn.Put), the context check and the metrics — is the same on A–D.
type txStore interface {
	// Lookup (txn.Reader) is the committed state the existence rule reads:
	// A and C read their row store, D its layers and version map, B its
	// partition leader's row store.
	txn.Reader
	// read returns the image of key a transaction reading at ts sees,
	// charging what the read costs (C's disk row store charges I/O, and
	// Lookup does not).
	read(table uint32, key int64, ts uint64) (types.Row, bool)
	// commit makes tx's write set durable and visible and returns its
	// commit timestamp: walEngine.commit on A and C, the same plus layer
	// maintenance on D, the 2PC coordinator on B.
	commit(ctx context.Context, tx *txn.Txn) (uint64, error)
}

// tx is the OLTP transaction of every local architecture.
type tx struct {
	b   *engineBase
	ctx context.Context
	t   *txn.Txn
}

// Begin implements Engine.
func (b *engineBase) Begin(ctx context.Context) Tx {
	b.om.begins.Inc()
	return &tx{b: b, ctx: ctxOrBackground(ctx), t: b.mgr.Begin()}
}

func (t *tx) Get(table string, key int64) (types.Row, error) {
	id, err := t.b.ts.id(table)
	if err != nil {
		return nil, err
	}
	if w, ok := t.t.GetWrite(id, key); ok {
		if w.Op == txn.OpDelete {
			return nil, ErrNotFound
		}
		return w.Row, nil
	}
	if r, ok := t.b.store.read(id, key, t.t.ReadTS); ok {
		return r, nil
	}
	return nil, ErrNotFound
}

func (t *tx) Insert(table string, row types.Row) error { return t.put(table, 0, txn.OpInsert, row) }

func (t *tx) Update(table string, row types.Row) error { return t.put(table, 0, txn.OpUpdate, row) }

func (t *tx) Delete(table string, key int64) error { return t.put(table, key, txn.OpDelete, nil) }

// put validates an inserted or updated row image, whose key it takes, and
// buffers the write under the existence rule.
func (t *tx) put(table string, key int64, op txn.Op, row types.Row) error {
	id, err := t.b.ts.id(table)
	if err != nil {
		return err
	}
	if op != txn.OpDelete {
		s := t.b.ts.schemas[id]
		if err := s.Validate(row); err != nil {
			return err
		}
		key = s.Key(row)
	}
	return t.t.Put(t.b.store, id, key, op, row)
}

// Commit runs the architecture's commit and the epilogue every
// architecture shares. A cancelled or expired context aborts instead.
func (t *tx) Commit() error {
	if err := t.ctx.Err(); err != nil {
		t.Abort()
		return err
	}
	start := time.Now()
	ts, err := t.b.store.commit(t.ctx, t.t)
	if err != nil {
		if !errors.Is(err, txn.ErrFinished) {
			t.b.om.aborts.Inc()
		}
		return err
	}
	t.b.committed(start, ts, t.t.Pending() > 0)
	return nil
}

// Abort discards the transaction. Only a transaction that was still open
// counts as an abort: `defer tx.Abort()` after a successful Commit is the
// repo's idiom.
func (t *tx) Abort() {
	if t.t.Abort() {
		t.b.om.aborts.Inc()
	}
}
