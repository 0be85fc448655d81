package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"htap/internal/colsel"
	"htap/internal/colstore"
	"htap/internal/datasync"
	"htap/internal/delta"
	"htap/internal/disk"
	"htap/internal/exec"
	"htap/internal/obs"
	"htap/internal/planner"
	"htap/internal/rowstore"
	"htap/internal/txn"
	"htap/internal/types"
)

// ConfigC configures architecture C.
type ConfigC struct {
	Schemas []*types.Schema
	// Shards is the size of the distributed in-memory column-store
	// cluster (Heatwave nodes).
	Shards int
	// BudgetBytes bounds the memory the column selection may fill;
	// zero means unlimited (everything loads).
	BudgetBytes int
	// Policy is the column-selection policy (Static Heatmap or Decay).
	Policy colsel.Policy
	// Disk is the row-store device cost model.
	Disk disk.Config
	// Cost drives the hybrid row/column access-path choice.
	Cost planner.CostParams
	// Parallelism is the degree of parallelism analytical queries run
	// with; zero means GOMAXPROCS. SetParallelism overrides it at runtime.
	Parallelism int
	// SelFeedbackOff disables cost-model consumption of observed selection
	// densities (reported by pushed-down scan predicates). The feedback loop
	// is on by default — static selectivity assumptions are exactly the §2.4
	// complaint — but plans then depend on execution history, so
	// determinism-sensitive harnesses (the golden-equivalence suites) pin
	// this true to keep repeated runs on identical access paths.
	SelFeedbackOff bool
}

// imcsTable is one loaded table's footprint in the in-memory column-store
// cluster: a replica whose shards hold the table projected onto the
// selected columns, sharded by key hash, and whose delta holds the same
// projection of every write since the load. cols maps each projected
// column to its column in the full row.
type imcsTable struct {
	replica
	cols []int
}

// EngineC is architecture C (MySQL Heatwave, §2.1(c)): a disk-backed row
// store "preserves the full capacity for OLTP workloads", while frequently
// accessed columns are extracted into a distributed in-memory column
// store; analytical queries are pushed down when their columns are loaded
// and the cost model prefers the columnar path, else they fall back to the
// (expensive) disk row scan.
type EngineC struct {
	rowEngine
	rowDev  *disk.Device
	imcs    []atomic.Pointer[imcsTable] // nil when the table is not loaded
	loading []atomic.Pointer[imcsTable] // a LoadColumns build, fed commits until it replaces imcs
	advisor *colsel.Advisor
	cfg     ConfigC

	pushdowns atomic.Int64
	fallbacks atomic.Int64

	// afterLoadScan, when set, runs between LoadColumns' row-store scan
	// and its swap of the IMCS table: tests commit there to race the load.
	afterLoadScan func()
}

// NewEngineC builds architecture C.
func NewEngineC(cfg ConfigC) *EngineC {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Disk == (disk.Config{}) {
		cfg.Disk = disk.DefaultConfig()
	}
	if cfg.Cost == (planner.CostParams{}) {
		cfg.Cost = planner.DefaultCostParams()
	}
	if cfg.Policy == 0 {
		cfg.Policy = colsel.Static
	}
	e := &EngineC{
		rowDev:  disk.New(cfg.Disk),
		advisor: colsel.NewAdvisor(cfg.Policy, 0.8),
		cfg:     cfg,
	}
	e.init(ArchC, "disk-row+dist-col", cfg.Schemas, cfg.Parallelism, e.installWrites)
	e.imcs = make([]atomic.Pointer[imcsTable], len(cfg.Schemas))
	e.loading = make([]atomic.Pointer[imcsTable], len(cfg.Schemas))
	for i, s := range cfg.Schemas {
		e.addRows(rowstore.NewDiskBacked(uint32(i), s, e.rowDev), rowFloor{&e.engineBase})
	}
	// The analytical cost model charges the row device; export it (the WAL
	// device is already covered by htap_wal_* series).
	e.serve(e, e.rowDev.Stats, e.rowVersions)
	return e
}

// installWrites is architecture C's install step: new versions in the disk
// row store; changes propagate, projected once, to the IMCS delta of
// loaded tables and of a load in progress.
func (e *EngineC) installWrites(commitTS uint64, writes []txn.Write) {
	eachTable(writes, func(id uint32, ws []txn.Write) {
		e.rows[id].Apply(commitTS, ws)
		for _, it := range []*imcsTable{e.imcs[id].Load(), e.loading[id].Load()} {
			if it != nil {
				it.delta.Append(commitTS, it.project(ws))
			}
		}
	})
}

// rowFloor is the horizon C's row stores prune behind: the older of the
// pins' horizon and the merge target, at which Isolated snapshots read the
// row store. The target is read first (see mergePoint).
type rowFloor struct{ b *engineBase }

// Horizon implements rowstore.Horizon.
func (f rowFloor) Horizon() uint64 { return min(f.b.target.Load(), f.b.pins.Horizon()) }

// project maps writes' full rows onto the IMCS projection.
func (it *imcsTable) project(ws []txn.Write) []txn.Write {
	out := make([]txn.Write, len(ws))
	for i, w := range ws {
		out[i] = w
		if w.Row != nil {
			out[i].Row = it.projectRow(w.Row)
		}
	}
	return out
}

func (it *imcsTable) projectRow(r types.Row) types.Row {
	out := make(types.Row, len(it.cols))
	for i, c := range it.cols {
		out[i] = r[c]
	}
	return out
}

// covers reports whether every column in cols is loaded.
func covers(proj *types.Schema, cols []string) bool {
	for _, c := range cols {
		if proj.ColIndex(c) < 0 {
			return false
		}
	}
	return true
}

// shardFor routes a key to an IMCS shard.
func shardFor(key int64, n int) int {
	h := uint64(key) * 0x9e3779b97f4a7c15
	return int(h % uint64(n))
}

// LoadColumns (re)extracts the given columns of a table into the IMCS,
// replacing the previous projection. The key column is always included.
// Readers keep the previous table until the new one is built. The new
// table's delta is fed from the load's scan point on, so a commit that
// races the load reaches the new table: it is in the scan when it
// committed at or below the scan point, and in the delta otherwise.
func (e *EngineC) LoadColumns(table string, cols []string) {
	id := e.ts.mustID(table)
	full := e.ts.schemas[id]
	it := &imcsTable{replica: replica{delta: delta.NewMem()}, cols: []int{full.KeyCol}}
	for _, c := range cols {
		if j := full.ColIndex(c); j >= 0 && !slices.Contains(it.cols, j) {
			it.cols = append(it.cols, j)
		}
	}
	projCols := make([]types.Column, len(it.cols))
	for i, c := range it.cols {
		projCols[i] = full.Cols[c]
	}
	proj := types.NewSchema(full.Name, 0, projCols...)

	for range e.cfg.Shards {
		sh := colstore.NewTable(proj)
		observeSelectivity(e.fb, ArchC, sh)
		it.parts = append(it.parts, sh)
	}
	// The load publishes shards at snap: a merge like any other, so it
	// runs under the sync lock. With no commit in flight, snap is the
	// newest commit and every later one lands in the new delta.
	e.syncMu.Lock()
	defer e.syncMu.Unlock()
	var snap uint64
	e.mgr.Quiesce(func() {
		e.loading[id].Store(it)
		snap = e.mergePoint(e.readPoint)
	})
	defer e.pins.Release(snap)
	rows := make([][]types.Row, len(it.parts))
	e.rows[id].Scan(snap, func(key int64, r types.Row) bool {
		i := shardFor(key, len(rows))
		rows[i] = append(rows[i], it.projectRow(r))
		return true
	})
	for i, sh := range it.parts {
		ed := sh.Edit()
		ed.Add(sh.Seal(rows[i])...)
		ed.SetApplied(snap)
		ed.Publish()
	}
	if e.afterLoadScan != nil {
		e.afterLoadScan()
	}
	e.mgr.Quiesce(func() {
		e.imcs[id].Store(it)
		e.loading[id].Store(nil)
	})
}

// Unload evicts a table from the IMCS.
func (e *EngineC) Unload(table string) { e.imcs[e.ts.mustID(table)].Store(nil) }

// Reselect runs the column-selection advisor over all tables and loads the
// recommended projections under the memory budget (§2.2(4)(i)).
func (e *EngineC) Reselect() colsel.Selection {
	var cands []colsel.Candidate
	ts := e.pins.Pin(e.readPoint)
	for id, s := range e.ts.schemas {
		rows := e.rows[id].Count(ts)
		for _, c := range s.Cols {
			width := 8
			if c.Type == types.String {
				width = 24
			}
			cands = append(cands, colsel.Candidate{
				ID:    colsel.ColumnID{Table: s.Name, Col: c.Name},
				Bytes: width * (rows + 1),
			})
		}
	}
	e.pins.Release(ts)
	budget := e.cfg.BudgetBytes
	if budget <= 0 {
		budget = 1 << 40
	}
	sel := e.advisor.Select(cands, budget)
	byTable := make(map[string][]string)
	for _, c := range sel.Columns {
		byTable[c.Table] = append(byTable[c.Table], c.Col)
	}
	for _, s := range e.ts.schemas {
		if cols, ok := byTable[s.Name]; ok {
			e.LoadColumns(s.Name, cols)
		} else if e.imcs[e.ts.mustID(s.Name)].Load() != nil {
			e.Unload(s.Name)
		}
	}
	return sel
}

// Advisor exposes the column-selection advisor (experiments tick it).
func (e *EngineC) Advisor() *colsel.Advisor { return e.advisor }

// PushdownStats reports how many queries were pushed down to the IMCS vs
// answered by the disk row store.
func (e *EngineC) PushdownStats() (pushdowns, fallbacks int64) {
	return e.pushdowns.Load(), e.fallbacks.Load()
}

// RowSource plans a scan on the disk row-store access path, bypassing the
// cost model; the hybrid-scan experiments use it as the row-only baseline.
// The scan materializes under a pin of its read point, walking only the
// key range filter bounds, and the plan keeps the rows filter passes.
func (e *EngineC) RowSource(ctx context.Context, table string, cols []string, filter exec.Expr) *exec.Plan {
	id := e.ts.mustID(table)
	ts := e.pins.Pin(e.readPoint)
	defer e.pins.Release(ts)
	return exec.From(exec.NewRowScan(ctx, e.rows[id], ts, cols, filter)).Filter(filter)
}

// ColSource plans a scan on the IMCS access path in a snapshot of its own,
// bypassing the cost model, keeping the rows filter passes; the requested
// columns must be loaded.
func (e *EngineC) ColSource(ctx context.Context, table string, cols []string, filter exec.Expr) *exec.Plan {
	id := int(e.ts.mustID(table))
	s := e.open(ctx)
	defer s.Close()
	if len(s.reps[id]) == 0 || !covers(s.reps[id][0].vers[0].Schema, cols) {
		panic(fmt.Sprintf("core: ColSource(%s): columns not loaded", table))
	}
	return exec.From(s.scan(id, cols)).Filter(filter)
}

// replicas implements columnar: a loaded table's IMCS replica.
func (e *EngineC) replicas(id int) []*replica {
	if it := e.imcs[id].Load(); it != nil {
		return []*replica{&it.replica}
	}
	return nil
}

// source implements columnar: record the access pattern, then push down
// to the IMCS when the projection covers the query and the cost model
// prefers the columnar path; otherwise scan the disk row store. Both read
// at the snapshot. The planner's inputs come from filter's pushable
// conjuncts: bounds on the key column make an index range, and any
// pushable conjunct prunes zone maps.
func (e *EngineC) source(s *snapshot, id int, cols []string, filter exec.Expr) exec.Source {
	full := e.ts.schemas[id]
	qcols := cols
	if qcols == nil {
		qcols = make([]string, len(full.Cols))
		for i, c := range full.Cols {
			qcols[i] = c.Name
		}
	}
	ids := make([]colsel.ColumnID, len(qcols))
	for i, c := range qcols {
		ids[i] = colsel.ColumnID{Table: full.Name, Col: c}
	}
	rowsN := int(e.rows[id].Count(s.readTS))
	e.advisor.Record(ids, float64(rowsN))

	covered, deltaRows := false, 0
	if reps := s.reps[id]; len(reps) > 0 {
		covered, deltaRows = covers(reps[0].vers[0].Schema, qcols), reps[0].r.delta.Unmerged()
	}
	pushable := exec.Pushable(filter)
	_, _, keyRange := exec.IntBounds(filter, full.Cols[full.KeyCol].Name)
	in := planner.TableInput{
		Rows:        rowsN,
		Cols:        len(full.Cols),
		NeedCols:    len(qcols),
		Selectivity: e.selEstimate(full.Name, pushable),
		KeyRange:    keyRange,
		ZoneMapped:  pushable,
		RowOnDisk:   true,
		DeltaRows:   deltaRows,
		HasColumn:   covered,
	}
	d := e.cfg.Cost.Choose(in)
	if covered && d.Path == planner.ColPath {
		e.pushdowns.Add(1)
		return s.scan(id, qcols)
	}
	e.fallbacks.Add(1)
	return exec.NewRowScan(s.ctx, e.rows[id], s.readTS, qcols, filter)
}

// selEstimate estimates the fraction of rows a scan's pushable conjuncts
// keep: by default the observed selection density of previous pushed-down
// scans of the same table (planner.Feedback) — the paper's §2.4 criticizes
// static assumptions — with the fixed heuristic as the cold-start value
// and the SelFeedbackOff fallback.
func (e *EngineC) selEstimate(table string, pushable bool) float64 {
	if !pushable {
		return 1
	}
	if !e.cfg.SelFeedbackOff {
		if s, ok := e.fb.Selectivity(table); ok {
			return s
		}
	}
	return 0.05
}

// PlannerFeedback exposes the observed-selectivity accumulator; scans with
// pushed-down predicates feed it whether or not feedback consumption is
// enabled, so experiments can inspect what the optimizer would have seen.
func (e *EngineC) PlannerFeedback() *planner.Feedback { return e.fb }

// Sync implements Engine: merge each loaded table's delta into its shards.
func (e *EngineC) Sync() {
	e.syncRound(func(sp *obs.Span, upTo uint64) {
		for id := range e.imcs {
			it := e.imcs[id].Load()
			if it == nil {
				continue
			}
			child := sp.Child("merge_imcs").AttrInt("table", int64(id))
			n := len(it.parts)
			datasync.MergeShards(it.parts, func(k int64) int { return shardFor(k, n) }, it.delta, upTo)
			child.End()
		}
	})
}

// Stats implements Engine.
func (e *EngineC) Stats() Stats {
	st := e.txnStats()
	st.Disk = e.rowDev.Stats()
	for id := range e.imcs {
		it := e.imcs[id].Load()
		if it == nil {
			continue
		}
		for _, sh := range it.parts {
			s := sh.Stats()
			st.Merges += s.Merges
			st.ColBytes += s.Bytes
		}
		st.DeltaRows += it.delta.Unmerged()
	}
	return st
}
