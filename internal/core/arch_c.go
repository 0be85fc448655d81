package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"htap/internal/colsel"
	"htap/internal/colstore"
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

// imcsTable is one table's footprint in the in-memory column-store
// cluster: a projected schema over the selected columns, sharded by key
// hash across the cluster.
type imcsTable struct {
	mu     sync.RWMutex
	loaded map[string]bool // selected column names (always includes the key)
	proj   *types.Schema   // projected schema, nil when not loaded
	shards []*colstore.Table
	delta  *delta.Mem
	rows   int64
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
	imcs    []*imcsTable
	advisor *colsel.Advisor
	cfg     ConfigC

	pushdowns atomic.Int64
	fallbacks atomic.Int64
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
	for i, s := range cfg.Schemas {
		e.rows = append(e.rows, rowstore.NewDiskBacked(uint32(i), s, e.rowDev))
		e.imcs = append(e.imcs, &imcsTable{loaded: make(map[string]bool), delta: delta.NewMem()})
	}
	// The analytical cost model charges the row device; export it (the WAL
	// device is already covered by htap_wal_* series).
	e.serve(e, e.rowDev.Stats)
	return e
}

// installWrites is architecture C's install step: new versions in the disk
// row store; changes propagate to the IMCS only for loaded tables.
func (e *EngineC) installWrites(commitTS uint64, writes []txn.Write) {
	eachTable(writes, func(id uint32, ws []txn.Write) {
		e.rows[id].Apply(commitTS, ws)
		if d := e.imcs[id].liveDelta(); d != nil {
			d.Append(commitTS, ws)
		}
	})
}

// liveDelta returns the delta of a loaded table, nil when the table is not
// loaded. LoadColumns and Unload replace it under it.mu.
func (it *imcsTable) liveDelta() *delta.Mem {
	it.mu.RLock()
	defer it.mu.RUnlock()
	if it.proj == nil {
		return nil
	}
	return it.delta
}

func (it *imcsTable) isLoaded() bool { return it.liveDelta() != nil }

func (it *imcsTable) covers(cols []string) bool {
	it.mu.RLock()
	defer it.mu.RUnlock()
	if it.proj == nil {
		return false
	}
	for _, c := range cols {
		if !it.loaded[c] {
			return false
		}
	}
	return true
}

// project maps a full row onto the IMCS projection.
func projectRow(full *types.Schema, proj *types.Schema, r types.Row) types.Row {
	out := make(types.Row, len(proj.Cols))
	for i, c := range proj.Cols {
		out[i] = r[full.MustCol(c.Name)]
	}
	return out
}

// shardFor routes a key to an IMCS shard.
func shardFor(key int64, n int) int {
	h := uint64(key) * 0x9e3779b97f4a7c15
	return int(h % uint64(n))
}

// LoadColumns (re)extracts the given columns of a table into the IMCS,
// replacing the previous projection. The key column is always included.
func (e *EngineC) LoadColumns(table string, cols []string) {
	id := e.ts.mustID(table)
	full := e.ts.schemas[id]
	keyName := full.Cols[full.KeyCol].Name
	names := []string{keyName}
	seen := map[string]bool{keyName: true}
	for _, c := range cols {
		if !seen[c] && full.ColIndex(c) >= 0 {
			names = append(names, c)
			seen[c] = true
		}
	}
	projCols := make([]types.Column, len(names))
	for i, n := range names {
		projCols[i] = full.Cols[full.MustCol(n)]
	}
	proj := types.NewSchema(full.Name, 0, projCols...)

	shards := make([]*colstore.Table, e.cfg.Shards)
	builders := make([]*colstore.Builder, e.cfg.Shards)
	for i := range shards {
		shards[i] = colstore.NewTable(proj)
		observeSelectivity(e.fb, ArchC, shards[i])
		builders[i] = shards[i].NewBuilder()
	}
	snap := e.mgr.Oracle().Watermark()
	n := int64(0)
	e.rows[id].Scan(snap, func(key int64, r types.Row) bool {
		builders[shardFor(key, len(builders))].Add(projectRow(full, proj, r))
		n++
		return true
	})
	for i := range builders {
		builders[i].Flush()
		shards[i].SetApplied(snap)
	}
	it := e.imcs[id]
	it.mu.Lock()
	it.loaded = seen
	it.proj = proj
	it.shards = shards
	it.rows = n
	it.delta = delta.NewMem()
	it.mu.Unlock()
}

// Unload evicts a table from the IMCS.
func (e *EngineC) Unload(table string) {
	it := e.imcs[e.ts.mustID(table)]
	it.mu.Lock()
	it.loaded = make(map[string]bool)
	it.proj = nil
	it.shards = nil
	it.rows = 0
	it.delta = delta.NewMem()
	it.mu.Unlock()
}

// Reselect runs the column-selection advisor over all tables and loads the
// recommended projections under the memory budget (§2.2(4)(i)).
func (e *EngineC) Reselect() colsel.Selection {
	var cands []colsel.Candidate
	for id, s := range e.ts.schemas {
		rows := e.rows[id].Count(e.mgr.Oracle().Watermark())
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
		} else if e.imcs[e.ts.mustID(s.Name)].isLoaded() {
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

// Source implements Engine: record the access pattern, then push down to
// the IMCS when the projection covers the query and the cost model prefers
// the columnar path; otherwise scan the disk row store.
func (e *EngineC) Source(ctx context.Context, table string, cols []string, pred *exec.ScanPred) exec.Source {
	id := e.ts.mustID(table)
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
		ids[i] = colsel.ColumnID{Table: table, Col: c}
	}
	rowsN := int(e.rows[id].Count(e.mgr.Oracle().Watermark()))
	e.advisor.Record(ids, float64(rowsN))

	it := e.imcs[id]
	covered := it.covers(qcols)
	it.mu.RLock()
	deltaRows := it.delta.Unmerged()
	it.mu.RUnlock()
	in := planner.TableInput{
		Rows:        rowsN,
		Cols:        len(full.Cols),
		NeedCols:    len(qcols),
		Selectivity: e.selEstimate(table, pred),
		KeyRange:    pred != nil && pred.Col == full.Cols[full.KeyCol].Name,
		ZoneMapped:  pred != nil,
		RowOnDisk:   true,
		DeltaRows:   deltaRows,
		HasColumn:   covered,
	}
	d := e.cfg.Cost.Choose(in)
	if covered && d.Path == planner.ColPath {
		e.pushdowns.Add(1)
		return e.imcsSource(ctx, id, qcols, pred)
	}
	e.fallbacks.Add(1)
	return exec.NewRowScan(ctx, e.rows[id], e.mgr.Oracle().Watermark(), qcols, pred)
}

func (e *EngineC) imcsSource(ctx context.Context, id uint32, cols []string, pred *exec.ScanPred) exec.Source {
	it := e.imcs[id]
	it.mu.RLock()
	shards := it.shards
	proj := it.proj
	d := it.delta
	it.mu.RUnlock()
	var overlay *delta.Overlay
	if e.shared() {
		full := e.ts.schemas[id]
		raw := d.Overlay(e.mgr.Oracle().Watermark())
		overlay = &delta.Overlay{Rows: make(map[int64]types.Row, len(raw.Rows)), Masked: raw.Masked, MaxTS: raw.MaxTS}
		for k, r := range raw.Rows {
			overlay.Rows[k] = projectRow(full, proj, r)
		}
	}
	srcs := make([]exec.Source, len(shards))
	for i, sh := range shards {
		o := overlay
		if i > 0 && overlay != nil {
			o = overlay.MaskOnly() // emit delta rows exactly once
		}
		srcs[i] = exec.NewColScan(ctx, sh, cols, pred, o)
	}
	return exec.NewUnion(srcs...)
}

// RowSource forces the disk row-store access path, bypassing the cost
// model; the hybrid-scan experiments use it as the row-only baseline.
func (e *EngineC) RowSource(ctx context.Context, table string, cols []string, pred *exec.ScanPred) exec.Source {
	id := e.ts.mustID(table)
	return exec.NewRowScan(ctx, e.rows[id], e.mgr.Oracle().Watermark(), cols, pred)
}

// ColSource forces the IMCS access path, bypassing the cost model; the
// requested columns must be loaded.
func (e *EngineC) ColSource(ctx context.Context, table string, cols []string, pred *exec.ScanPred) exec.Source {
	id := e.ts.mustID(table)
	if !e.imcs[id].covers(cols) {
		panic(fmt.Sprintf("core: ColSource(%s): columns not loaded", table))
	}
	return e.imcsSource(ctx, id, cols, pred)
}

// selEstimate estimates the fraction of rows a scan's predicate keeps:
// by default the observed selection density of previous pushed-down scans
// of the same table (planner.Feedback) — the paper's §2.4 criticizes
// static assumptions — with the fixed heuristic as the cold-start value
// and the SelFeedbackOff fallback.
func (e *EngineC) selEstimate(table string, pred *exec.ScanPred) float64 {
	if pred == nil {
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
	e.syncRound(func(sp *obs.Span) uint64 {
		upTo := e.mgr.Oracle().Watermark()
		for id, it := range e.imcs {
			if !it.isLoaded() {
				continue
			}
			child := sp.Child("merge_imcs").AttrInt("table", int64(id))
			e.mergeIMCS(uint32(id), upTo)
			child.End()
		}
		return upTo
	})
}

func (e *EngineC) mergeIMCS(id uint32, upTo uint64) {
	it := e.imcs[id]
	it.mu.RLock()
	proj := it.proj
	shards := it.shards
	d := it.delta
	it.mu.RUnlock()
	full := e.ts.schemas[id]
	keys, net := delta.Fold(d.Pending(upTo))
	perShard := make([][]types.Row, len(shards))
	for _, k := range keys {
		sh := shardFor(k, len(shards))
		img := net.Rows[k]
		if img == nil {
			shards[sh].DeleteKey(k)
			continue
		}
		perShard[sh] = append(perShard[sh], projectRow(full, proj, img))
	}
	for i, rows := range perShard {
		if len(rows) > 0 {
			shards[i].AppendRows(rows)
			shards[i].NoteMerge()
		}
		shards[i].SetApplied(upTo)
	}
	d.MarkMerged(upTo)
}

// Stats implements Engine.
func (e *EngineC) Stats() Stats {
	st := e.txnStats()
	st.Disk = e.rowDev.Stats()
	for _, it := range e.imcs {
		it.mu.RLock()
		for _, sh := range it.shards {
			s := sh.Stats()
			st.Merges += s.Merges
			st.ColBytes += s.Bytes
		}
		st.DeltaRows += it.delta.Unmerged()
		it.mu.RUnlock()
	}
	return st
}
