package core

import (
	"time"

	"htap/internal/colstore"
	"htap/internal/datasync"
	"htap/internal/delta"
	"htap/internal/obs"
	"htap/internal/rowstore"
	"htap/internal/txn"
	"htap/internal/types"
)

// ConfigA configures architecture A.
type ConfigA struct {
	Schemas []*types.Schema
	// SyncInterval enables a background synchronization loop; zero means
	// sync only on explicit Sync() calls.
	SyncInterval time.Duration
	// Parallelism is the degree of parallelism analytical queries run
	// with; zero means GOMAXPROCS. SetParallelism overrides it at runtime.
	Parallelism int
}

// EngineA is architecture A: a memory-optimized primary row store handles
// OLTP; committed writes are "also appended to the delta store which will
// be merged to the column store" (§2.1(a)); analytical queries perform the
// in-memory delta + column scan.
type EngineA struct {
	rowEngine
	cols   []*colstore.Table
	deltas []*delta.Mem
	cfg    ConfigA
}

// NewEngineA builds architecture A over the given schemas.
func NewEngineA(cfg ConfigA) *EngineA {
	e := &EngineA{cfg: cfg}
	e.init(ArchA, "primary-row+inmem-col", cfg.Schemas, cfg.Parallelism, e.installWrites)
	for i, s := range cfg.Schemas {
		e.addRows(rowstore.New(uint32(i), s), e.pins)
		e.cols = append(e.cols, colstore.NewTable(s))
		observeSelectivity(e.fb, ArchA, e.cols[i])
		e.deltas = append(e.deltas, delta.NewMem())
		e.reps = append(e.reps, []*replica{{parts: []*colstore.Table{e.cols[i]}, delta: e.deltas[i]}})
	}
	e.serve(e, e.walDev.Stats, e.rowVersions)
	e.every(cfg.SyncInterval, e.Sync)
	return e
}

// installWrites is architecture A's install step: new versions in the row
// store, and the same writes appended to the in-memory delta store.
func (e *EngineA) installWrites(commitTS uint64, writes []txn.Write) {
	eachTable(writes, func(id uint32, ws []txn.Write) {
		e.rows[id].Apply(commitTS, ws)
		e.deltas[id].Append(commitTS, ws)
	})
}

// Load implements Engine. The row lands in both stores so experiments start
// synchronized.
func (e *EngineA) Load(table string, row types.Row) error {
	if err := e.rowEngine.Load(table, row); err != nil {
		return err
	}
	e.cols[e.ts.mustID(table)].Append(row)
	return nil
}

// Sync implements Engine: merge every delta into its column table up to
// the round's merge point.
func (e *EngineA) Sync() {
	e.syncRound(func(sp *obs.Span, upTo uint64) {
		for i := range e.cols {
			child := sp.Child("merge").AttrInt("table", int64(i))
			datasync.MergeDelta(e.cols[i], e.deltas[i], upTo)
			child.End()
		}
	})
}

// Stats implements Engine.
func (e *EngineA) Stats() Stats {
	st := e.txnStats()
	st.Disk = e.walDev.Stats()
	for i := range e.cols {
		cs := e.cols[i].Stats()
		st.Merges += cs.Merges
		st.Rebuilds += cs.Rebuilds
		st.ColBytes += cs.Bytes
		st.DeltaRows += e.deltas[i].Unmerged()
	}
	return st
}
