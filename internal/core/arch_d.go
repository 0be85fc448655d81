package core

import (
	"context"
	"sync"

	"htap/internal/colstore"
	"htap/internal/datasync"
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
		e.reps = append(e.reps, []*replica{{parts: []*colstore.Table{l.Main, l.L2}, delta: l.L1}})
		e.versions = append(e.versions, make(map[int64]uint64))
	}
	e.serve(e, e.walDev.Stats, nil)
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

// read returns the image of key a transaction reading at ts sees: its
// newest L1 entry at or below ts, else its image in the layer set (L2
// first, then Main). A promotion publishes a new L2 version, so finding L2
// unchanged inside L1's view proves the layer lookups and the view read one
// state: no key vanishes or appears twice while a promotion runs.
func (e *EngineD) read(id uint32, key int64, ts uint64) (row types.Row, ok bool) {
	l := e.layers[id]
	for {
		l2 := l.L2.Version()
		if row, ok = l.L2.GetKey(key); !ok {
			row, ok = l.Main.GetKey(key)
		}
		same := false
		o := l.L1.View(func() { same = l.L2.Version() == l2 }).Overlay(ts)
		if !same {
			continue
		}
		if _, masked := o.Masked[key]; masked {
			row, ok = o.Rows[key]
		}
		return row, ok
	}
}

// Lookup implements txn.Reader: the layered read, and the version map for
// the key's newest version.
func (e *EngineD) Lookup(table uint32, key int64, ts uint64) (types.Row, bool, uint64) {
	row, live := e.read(table, key, ts)
	e.verMu.RLock()
	defer e.verMu.RUnlock()
	return row, live, e.versions[table][key]
}

// commit implements txStore: walEngine.commit, then layer maintenance,
// which happens on the commit path — precisely why the paper scores this
// architecture's OLTP scalability low. The merge target rises to ts before
// L1 promotes up to it; MergeL2 moves rows L2 already holds. Promotions
// serialize on Sync's lock; a commit that finds one running leaves the
// work to it.
func (e *EngineD) commit(ctx context.Context, tx *txn.Txn) (uint64, error) {
	ts, err := e.walEngine.commit(ctx, tx)
	if err != nil || tx.Pending() == 0 || !e.syncMu.TryLock() {
		return ts, err
	}
	defer e.syncMu.Unlock()
	eachTable(tableOrdered(tx.Writes()), func(id uint32, _ []txn.Write) {
		e.layers[id].Maintain(ts, func() { e.pins.Release(e.mergePoint(func() uint64 { return ts })) })
	})
	return ts, nil
}

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

// Sync implements Engine: promote every L1 and merge every L2 down to
// Main, making Main current.
func (e *EngineD) Sync() {
	e.syncRound(func(sp *obs.Span, upTo uint64) {
		for i, l := range e.layers {
			child := sp.Child("promote_l1").AttrInt("table", int64(i))
			l.PromoteL1(upTo)
			child.End()
			child = sp.Child("merge_l2").AttrInt("table", int64(i))
			l.MergeL2()
			child.End()
		}
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
