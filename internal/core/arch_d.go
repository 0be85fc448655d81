package core

import (
	"context"
	"errors"
	"sync"

	"htap/internal/datasync"
	"htap/internal/exec"
	"htap/internal/obs"
	"htap/internal/txn"
	"htap/internal/types"
)

// ConfigD configures architecture D.
type ConfigD struct {
	Schemas []*types.Schema
	// L1Rows and L2Rows are the HANA layer-promotion thresholds.
	L1Rows int
	L2Rows int
	// Parallelism is the degree of parallelism analytical queries run
	// with; zero means GOMAXPROCS. SetParallelism overrides it at runtime.
	Parallelism int
}

// EngineD is architecture D (SAP HANA, §2.1(d)): the main column store is
// primary; OLTP writes land in the row-wise L1-delta and trickle through
// the columnar L2-delta into Main via the dictionary-encoded sorting
// merge. "The OLAP performance is high as the column store is highly
// read-optimized. However, since there is only a delta row store for OLTP
// workloads, the OLTP scalability is low."
type EngineD struct {
	walEngine
	layers []*datasync.Layered

	// versions tracks the latest committed version per key for conflict
	// checks: the layered store has no version chains of its own.
	verMu    sync.RWMutex
	versions []map[int64]uint64
}

// NewEngineD builds architecture D.
func NewEngineD(cfg ConfigD) *EngineD {
	if cfg.L1Rows <= 0 {
		cfg.L1Rows = 1024
	}
	if cfg.L2Rows <= 0 {
		cfg.L2Rows = 64 * 1024
	}
	e := &EngineD{}
	e.init(ArchD, "primary-col+delta-row", cfg.Schemas, cfg.Parallelism, e.installWrites)
	for _, s := range cfg.Schemas {
		l := datasync.NewLayered(s, cfg.L1Rows, cfg.L2Rows)
		// Both columnar layers report under the table's name: a scan sees
		// the same predicates against L2 and Main.
		observeSelectivity(e.fb, ArchD, l.L2)
		observeSelectivity(e.fb, ArchD, l.Main)
		e.layers = append(e.layers, l)
		e.versions = append(e.versions, make(map[int64]uint64))
	}
	e.serve(e, e.walDev.Stats)
	return e
}

// installWrites is architecture D's install step: the version map that
// stands in for version chains, then the row-wise L1-delta of each table.
func (e *EngineD) installWrites(commitTS uint64, writes []txn.Write) {
	e.verMu.Lock()
	for _, w := range writes {
		e.versions[w.Table][w.Key] = commitTS
	}
	e.verMu.Unlock()
	eachTable(writes, func(id uint32, ws []txn.Write) {
		e.layers[id].Append(commitTS, ws)
	})
}

// read returns the live image of key at the current state (L1 newest
// first, then L2, then Main).
func (e *EngineD) read(id uint32, key int64, ts uint64) (types.Row, bool) {
	l := e.layers[id]
	o := l.L1.Overlay(ts)
	if _, masked := o.Masked[key]; masked {
		r, ok := o.Rows[key]
		return r, ok
	}
	if r, ok := l.L2.GetKey(key); ok {
		return r, true
	}
	return l.Main.GetKey(key)
}

func (e *EngineD) latestVersion(id uint32, key int64) uint64 {
	e.verMu.RLock()
	defer e.verMu.RUnlock()
	return e.versions[id][key]
}

// txD is the architecture-D transaction.
type txD struct {
	e   *EngineD
	ctx context.Context
	tx  *txn.Txn
}

// Begin implements Engine.
func (e *EngineD) Begin(ctx context.Context) Tx {
	e.om.begins.Inc()
	return &txD{e: e, ctx: ctxOrBackground(ctx), tx: e.mgr.Begin()}
}

func (t *txD) Get(table string, key int64) (types.Row, error) {
	id, err := t.e.ts.id(table)
	if err != nil {
		return nil, err
	}
	if w, ok := t.tx.GetWrite(id, key); ok {
		if w.Op == txn.OpDelete {
			return nil, ErrNotFound
		}
		return w.Row, nil
	}
	if r, ok := t.e.read(id, key, t.tx.ReadTS); ok {
		return r, nil
	}
	return nil, ErrNotFound
}

func (t *txD) write(table string, key int64, op txn.Op, row types.Row) error {
	id, err := t.e.ts.id(table)
	if err != nil {
		return err
	}
	if row != nil {
		if err := t.e.ts.schemas[id].Validate(row); err != nil {
			return err
		}
	}
	if err := t.tx.Lock(id, key); err != nil {
		return err
	}
	_, exists := t.e.read(id, key, t.tx.ReadTS)
	if w, ok := t.tx.GetWrite(id, key); ok {
		exists = w.Op != txn.OpDelete
	}
	switch op {
	case txn.OpInsert:
		if exists {
			return errors.Join(errRetry, errors.New("core: duplicate key"))
		}
	case txn.OpUpdate, txn.OpDelete:
		if !exists {
			return ErrNotFound
		}
	}
	return t.tx.Write(id, key, op, row, t.e.latestVersion(id, key))
}

func (t *txD) Insert(table string, row types.Row) error {
	id, err := t.e.ts.id(table)
	if err != nil {
		return err
	}
	return t.write(table, t.e.ts.schemas[id].Key(row), txn.OpInsert, row)
}

func (t *txD) Update(table string, row types.Row) error {
	id, err := t.e.ts.id(table)
	if err != nil {
		return err
	}
	return t.write(table, t.e.ts.schemas[id].Key(row), txn.OpUpdate, row)
}

func (t *txD) Delete(table string, key int64) error {
	return t.write(table, key, txn.OpDelete, nil)
}

func (t *txD) Commit() error {
	e := t.e
	ts, err := e.commit(t.ctx, t.tx)
	if err != nil || t.tx.Pending() == 0 {
		return err
	}
	// Layer maintenance happens on the commit path, which is precisely
	// why the paper scores this architecture's OLTP scalability low.
	touched := map[uint32]struct{}{}
	minApplied := uint64(0)
	for _, w := range t.tx.Writes() {
		if _, done := touched[w.Table]; done {
			continue
		}
		touched[w.Table] = struct{}{}
		e.layers[w.Table].Maintain(ts)
		if a := e.layers[w.Table].Applied(); minApplied == 0 || a < minApplied {
			minApplied = a
		}
	}
	if minApplied > 0 {
		e.tracker.Applied(minApplied)
	}
	return nil
}

func (t *txD) Abort() { t.e.abort(t.tx) }

// Load implements Engine.
func (e *EngineD) Load(table string, row types.Row) error {
	id, err := e.ts.id(table)
	if err != nil {
		return err
	}
	if err := e.ts.schemas[id].Validate(row); err != nil {
		return err
	}
	e.layers[id].Main.Append(row)
	return nil
}

// Source implements Engine: Main + L2 scans with the L1 overlay applied
// exactly once. Isolated mode skips the L1 overlay.
func (e *EngineD) Source(ctx context.Context, table string, cols []string, pred *exec.ScanPred) exec.Source {
	id := e.ts.mustID(table)
	l := e.layers[id]
	if e.shared() {
		o := l.L1.Overlay(e.mgr.Oracle().Watermark())
		return exec.NewUnion(
			exec.NewColScan(ctx, l.Main, cols, pred, o),
			exec.NewColScan(ctx, l.L2, cols, pred, o.MaskOnly()),
		)
	}
	return exec.NewUnion(
		exec.NewColScan(ctx, l.Main, cols, pred, nil),
		exec.NewColScan(ctx, l.L2, cols, pred, nil),
	)
}

// Sync implements Engine: promote every L1 and merge every L2 down to
// Main, making Main current.
func (e *EngineD) Sync() {
	e.syncRound(func(sp *obs.Span) uint64 {
		upTo := e.mgr.Oracle().Watermark()
		for i, l := range e.layers {
			child := sp.Child("promote_l1").AttrInt("table", int64(i))
			l.PromoteL1(upTo)
			child.End()
			child = sp.Child("merge_l2").AttrInt("table", int64(i))
			l.MergeL2()
			child.End()
			if upTo > l.Main.Applied() {
				l.Main.SetApplied(upTo)
			}
		}
		return upTo
	})
}

// Stats implements Engine.
func (e *EngineD) Stats() Stats {
	st := e.txnStats()
	st.Disk = e.walDev.Stats()
	for _, l := range e.layers {
		ms, l2 := l.Main.Stats(), l.L2.Stats()
		st.Merges += ms.Merges + l2.Merges
		st.ColBytes += ms.Bytes + l2.Bytes
		st.DeltaRows += l.L1.Unmerged()
	}
	return st
}
