package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"htap/internal/accel"
	"htap/internal/ch"
	"htap/internal/colsel"
	"htap/internal/colstore"
	"htap/internal/core"
	"htap/internal/datasync"
	"htap/internal/delta"
	"htap/internal/disk"
	"htap/internal/exec"
	"htap/internal/htapbench"
	"htap/internal/micro"
	"htap/internal/rowstore"
	"htap/internal/sched"
	"htap/internal/txn"
	"htap/internal/types"
)

// --- Table 2, Transaction Processing ---

// TPRow compares the two TP techniques of Table 2.
type TPRow struct {
	Technique  string
	AvgLatency time.Duration // efficiency: per-transaction latency, 1 worker
	TPS1       float64       // throughput at 1 worker
	TPS8       float64       // throughput at 8 workers
	Speedup    float64       // scalability: TPS8 / TPS1
}

// Table2TP measures MVCC+logging (architecture A) against
// 2PC+Raft+logging (architecture B).
func Table2TP(o Opts) []TPRow {
	o = o.normalize()
	var out []TPRow
	for _, a := range []core.Arch{core.ArchA, core.ArchB} {
		e, s := loadEngine(a, o)
		one := htapbench.Run(htapbench.Config{
			Engine: e, Scale: s, TPWorkers: 1, Duration: o.Duration, Seed: o.Seed,
		})
		eight := htapbench.Run(htapbench.Config{
			Engine: e, Scale: s, TPWorkers: 8, Duration: o.Duration, Seed: o.Seed + 1,
		})
		name := "MVCC+Logging"
		if a == core.ArchB {
			name = "2PC+Raft+Logging"
		}
		r := TPRow{Technique: name, AvgLatency: one.AvgTxnLatency, TPS1: one.TPS, TPS8: eight.TPS}
		if one.TPS > 0 {
			r.Speedup = eight.TPS / one.TPS
		}
		out = append(out, r)
		e.Close()
	}
	return out
}

// FormatTable2TP renders the TP comparison.
func FormatTable2TP(rows []TPRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %12s %10s %10s %8s\n", "TP Technique", "Latency", "TPS@1", "TPS@8", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %12s %10.0f %10.0f %8.2f\n",
			r.Technique, r.AvgLatency.Round(time.Microsecond), r.TPS1, r.TPS8, r.Speedup)
	}
	return b.String()
}

// --- Table 2, Analytical Processing ---

// APRow compares the three AP scan techniques.
type APRow struct {
	Technique  string
	QueryLat   time.Duration // latency of a representative scan
	FreshLagTS uint64        // staleness visible to the scan (commits)
	DeltaBytes int           // memory held by the unmerged delta
	DiskReads  int64         // simulated I/O the scan performed
}

// Table2AP measures in-memory delta scan, log-based delta scan, and pure
// column scan over identical data with identical unmerged update backlogs.
func Table2AP(o Opts) []APRow {
	o = o.normalize()
	const rows, backlog = 50_000, 20_000
	schema := types.NewSchema("t", 0,
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "grp", Type: types.Int},
		types.Column{Name: "val", Type: types.Float},
	)
	mkRow := func(i int64) types.Row {
		return types.Row{types.NewInt(i), types.NewInt(i % 64), types.NewFloat(float64(i % 1000))}
	}
	build := func() (*colstore.Table, []txn.Write) {
		tbl := colstore.NewTable(schema)
		base := make([]types.Row, 0, rows)
		for i := int64(0); i < rows; i++ {
			base = append(base, mkRow(i))
		}
		tbl.AppendRows(base)
		tbl.SetApplied(1)
		writes := make([]txn.Write, 0, backlog)
		for i := int64(0); i < backlog; i++ {
			writes = append(writes, txn.Write{Table: 0, Key: rows + i, Op: txn.OpInsert, Row: mkRow(rows + i)})
		}
		return tbl, writes
	}
	// The timed region includes building the overlay: reading the delta is
	// part of serving the query (and is exactly where the log-based
	// technique pays its I/O).
	scanOnce := func(tbl *colstore.Table, ov func() *delta.Overlay) time.Duration {
		start := time.Now()
		var overlay *delta.Overlay
		if ov != nil {
			overlay = ov()
		}
		exec.From(exec.NewColScan(context.Background(), tbl.Version(), []string{"grp", "val"}, nil, overlay)).
			Agg([]string{"grp"}, exec.Agg{Kind: exec.Sum, Expr: exec.ColName("val"), Name: "s"}).
			Count()
		return time.Since(start)
	}

	// Build all three setups over identical data and backlogs.
	memTbl, writes := build()
	memD := delta.NewMem()
	for i, w := range writes {
		memD.Append(uint64(i+2), []txn.Write{w})
	}
	logTbl, writes2 := build()
	dev := disk.New(disk.DefaultConfig())
	logD := delta.NewLog(dev, "ap-delta")
	for i, w := range writes2 {
		logD.Append(uint64(i+2), []txn.Write{w})
	}
	pureTbl, _ := build()

	// Interleave the techniques round-robin and keep per-technique minima:
	// on a small shared host, background load would otherwise be charged
	// to whichever technique it happened to coincide with.
	const rounds = 3
	best := [3]time.Duration{1 << 62, 1 << 62, 1 << 62}
	var logReads int64
	for r := 0; r < rounds; r++ {
		if el := scanOnce(memTbl, func() *delta.Overlay { return memD.Overlay(memD.Watermark()) }); el < best[0] {
			best[0] = el
		}
		before := dev.Stats().ReadOps
		if el := scanOnce(logTbl, func() *delta.Overlay { return logD.Overlay(logD.Watermark()) }); el < best[1] {
			best[1] = el
		}
		logReads = dev.Stats().ReadOps - before
		if el := scanOnce(pureTbl, nil); el < best[2] {
			best[2] = el
		}
	}
	return []APRow{
		{Technique: "InMemDelta+ColumnScan", QueryLat: best[0], DeltaBytes: memD.Bytes()},
		{Technique: "LogDelta+ColumnScan", QueryLat: best[1], DeltaBytes: logD.Bytes(), DiskReads: logReads},
		{Technique: "ColumnScanOnly", QueryLat: best[2],
			FreshLagTS: memD.Watermark() - pureTbl.Applied()},
	}
}

// FormatTable2AP renders the AP comparison.
func FormatTable2AP(rows []APRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %12s %12s %12s %10s\n", "AP Technique", "QueryLat", "FreshLag(ts)", "DeltaBytes", "DiskReads")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %12s %12d %12d %10d\n",
			r.Technique, r.QueryLat.Round(time.Microsecond), r.FreshLagTS, r.DeltaBytes, r.DiskReads)
	}
	return b.String()
}

// --- Table 2, Data Synchronization ---

// DSRow compares the three DS techniques.
type DSRow struct {
	Technique   string
	MergeTime   time.Duration
	DiskReads   int64
	SteadyBytes int // post-sync delta memory
	LoadCost    int // rows re-extracted (rebuild's "High Load Cost")
}

// Table2DS applies the same update backlog through each synchronization
// technique.
func Table2DS(o Opts) []DSRow {
	o = o.normalize()
	const base, backlog = 50_000, 20_000
	schema := types.NewSchema("t", 0,
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "val", Type: types.Int},
	)
	mkRow := func(i int64) types.Row { return types.Row{types.NewInt(i), types.NewInt(i * 3)} }

	prep := func() (*rowstore.Store, *colstore.Table) {
		rs := rowstore.New(0, schema)
		tbl := colstore.NewTable(schema)
		var rowsBuf []types.Row
		for i := int64(0); i < base; i++ {
			rs.Load(mkRow(i))
			rowsBuf = append(rowsBuf, mkRow(i))
		}
		tbl.AppendRows(rowsBuf)
		tbl.SetApplied(1)
		return rs, tbl
	}
	applyBacklog := func(rs *rowstore.Store, d delta.Store) {
		m := txn.NewManager()
		m.Oracle().Advance(1)
		for i := int64(0); i < backlog; i++ {
			tx := m.Begin()
			if err := rs.Insert(tx, mkRow(base+i)); err != nil {
				panic(err)
			}
			tx.Commit(func(ts uint64, ws []txn.Write) error {
				rs.Apply(ts, ws)
				d.Append(ts, ws)
				return nil
			})
		}
	}

	// Warm-up round: the first merge pays allocator and page-fault costs
	// that would otherwise be attributed to whichever technique runs first.
	{
		rs, tbl := prep()
		d := delta.NewMem()
		applyBacklog(rs, d)
		datasync.MergeDelta(tbl, d, d.Watermark())
	}

	// logDisk models delta files living on a slower device than the
	// in-memory structures — the source of Table 2's "High Merge Cost".
	logDisk := disk.Config{ReadLatency: 200 * time.Microsecond,
		WriteLatency: 200 * time.Microsecond, BytesPerOp: 4096}

	// Each technique is measured as the best of three fresh rounds; merge
	// times at this scale are close to allocator noise otherwise.
	const rounds = 3
	best := func(f func() DSRow) DSRow {
		r := f()
		for i := 1; i < rounds; i++ {
			if n := f(); n.MergeTime < r.MergeTime {
				r = n
			}
		}
		return r
	}
	var out []DSRow
	// (i) In-memory delta merge.
	out = append(out, best(func() DSRow {
		rs, tbl := prep()
		d := delta.NewMem()
		applyBacklog(rs, d)
		res := datasync.MergeDelta(tbl, d, d.Watermark())
		return DSRow{
			Technique: "InMemDeltaMerge", MergeTime: res.Duration,
			SteadyBytes: d.Bytes(), LoadCost: res.Inserted,
		}
	}))
	// (ii) Log-based delta merge.
	out = append(out, best(func() DSRow {
		rs, tbl := prep()
		dev := disk.New(logDisk)
		d := delta.NewLog(dev, "ds-delta")
		applyBacklog(rs, d)
		before := dev.Stats().ReadOps
		res := datasync.MergeDelta(tbl, d, d.Watermark())
		return DSRow{
			Technique: "LogDeltaMerge", MergeTime: res.Duration,
			DiskReads:   dev.Stats().ReadOps - before,
			SteadyBytes: d.Bytes(), LoadCost: res.Inserted,
		}
	}))
	// (iii) Rebuild from the primary row store.
	out = append(out, best(func() DSRow {
		rs, tbl := prep()
		d := delta.NewMem()
		applyBacklog(rs, d)
		res := datasync.Rebuild(tbl, rs, d, d.Watermark())
		return DSRow{
			Technique: "RebuildFromRowStore", MergeTime: res.Duration,
			SteadyBytes: d.Bytes(), LoadCost: res.Inserted,
		}
	}))
	return out
}

// FormatTable2DS renders the DS comparison.
func FormatTable2DS(rows []DSRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %12s %10s %12s %10s\n", "DS Technique", "SyncTime", "DiskReads", "SteadyBytes", "RowsMoved")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %12s %10d %12d %10d\n",
			r.Technique, r.MergeTime.Round(time.Microsecond), r.DiskReads, r.SteadyBytes, r.LoadCost)
	}
	return b.String()
}

// --- Table 2, Query Optimization ---

// ColSelRow is one point of the column-selection budget sweep.
type ColSelRow struct {
	Policy      string
	BudgetPct   int // share of the full columnar footprint allowed
	Utility     float64
	PushdownPct float64 // queries answered by the IMCS
}

// Table2QOColSel sweeps the memory budget for both selection policies on
// architecture C.
func Table2QOColSel(o Opts) []ColSelRow {
	o = o.normalize()
	var out []ColSelRow
	for _, pol := range []colsel.Policy{colsel.Static, colsel.Decay} {
		for _, pct := range []int{25, 50, 100} {
			e := core.NewEngineC(core.ConfigC{
				Schemas: ch.Schemas(), Shards: 2, Policy: pol,
				Disk: disk.DefaultConfig(),
			})
			s := o.scale()
			if _, err := ch.NewGenerator(s).Load(e); err != nil {
				panic(err)
			}
			// Record a query history, then select under the budget.
			queries := []int{1, 5, 6, 12, 14}
			all := ch.Queries()
			for _, qi := range queries {
				runBound(e, all[qi])
			}
			full := fullFootprint(e)
			e2 := e // reuse; budget applies at Reselect time
			e2.Close()
			e3 := core.NewEngineC(core.ConfigC{
				Schemas: ch.Schemas(), Shards: 2, Policy: pol,
				Disk: disk.DefaultConfig(), BudgetBytes: full * pct / 100,
			})
			if _, err := ch.NewGenerator(s).Load(e3); err != nil {
				panic(err)
			}
			for _, qi := range queries {
				runBound(e3, all[qi])
			}
			sel := e3.Reselect()
			pdBefore, fbBefore := e3.PushdownStats()
			for _, qi := range queries {
				runBound(e3, all[qi])
			}
			pdAfter, fbAfter := e3.PushdownStats()
			pd, fb := pdAfter-pdBefore, fbAfter-fbBefore
			row := ColSelRow{
				Policy: policyName(pol), BudgetPct: pct, Utility: sel.Utility,
			}
			if pd+fb > 0 {
				row.PushdownPct = 100 * float64(pd) / float64(pd+fb)
			}
			out = append(out, row)
			e3.Close()
		}
	}
	return out
}

func policyName(p colsel.Policy) string {
	if p == colsel.Decay {
		return "decay(learned-lite)"
	}
	return "static(heatmap)"
}

// fullFootprint estimates the bytes needed to load every column.
func fullFootprint(e *core.EngineC) int {
	total := 0
	for _, s := range ch.Schemas() {
		rows := e.Query(context.Background(), s.Name, []string{s.Cols[0].Name}, nil).Count()
		for _, c := range s.Cols {
			w := 8
			if c.Type == types.String {
				w = 24
			}
			total += w * (rows + 1)
		}
	}
	return total
}

// FormatTable2QOColSel renders the column-selection sweep.
func FormatTable2QOColSel(rows []ColSelRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %10s %10s %12s\n", "Selection Policy", "Budget%", "Utility", "Pushdown%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %10d %10.2f %12.1f\n", r.Policy, r.BudgetPct, r.Utility, r.PushdownPct)
	}
	return b.String()
}

// HybridRow compares access paths for the paper's hybrid SPJ example.
type HybridRow struct {
	Plan    string
	Latency time.Duration
	Rows    int
}

// Table2QOHybrid runs a selective SPJ (orders of one district joined with
// their order lines) under row-only, column-only, and the planner's hybrid
// access path on architecture C.
func Table2QOHybrid(o Opts) []HybridRow {
	o = o.normalize()
	e, s := loadEngine(core.ArchC, o)
	defer e.Close()
	ec := e.(*core.EngineC)
	_ = s

	lo := ch.OrderKey(1, 1, 0)
	hi := ch.OrderKey(1, 1, 9_999_999)
	pred := &exec.ScanPred{Col: "o_key", Lo: lo, Hi: hi}
	filter := exec.Between(exec.ColName("o_key"), lo, hi)

	var out []HybridRow
	// Row-only: both sides from the disk row store.
	{
		src := ec.RowSource(context.Background(), ch.TOrders, []string{"o_key"}, pred)
		lines := time.Now()
		n := exec.From(src).Filter(filter).
			Join(exec.From(ec.RowSource(context.Background(), ch.TOrderLine, []string{"ol_o_key", "ol_amount"}, nil)),
				[]string{"o_key"}, []string{"ol_o_key"}).
			Agg([]string{"o_key"}, exec.Agg{Kind: exec.Sum, Expr: exec.ColName("ol_amount"), Name: "rev"}).
			Count()
		out = append(out, HybridRow{Plan: "row-only", Latency: time.Since(lines), Rows: n})
	}
	// Column-only: both sides from the IMCS.
	{
		start := time.Now()
		n := exec.From(ec.ColSource(context.Background(), ch.TOrders, []string{"o_key"}, pred)).Filter(filter).
			Join(exec.From(ec.ColSource(context.Background(), ch.TOrderLine, []string{"ol_o_key", "ol_amount"}, nil)),
				[]string{"o_key"}, []string{"ol_o_key"}).
			Agg([]string{"o_key"}, exec.Agg{Kind: exec.Sum, Expr: exec.ColName("ol_amount"), Name: "rev"}).
			Count()
		out = append(out, HybridRow{Plan: "column-only", Latency: time.Since(start), Rows: n})
	}
	// Hybrid: the planner picks per side (row index for the selective
	// side, column scan for the wide side).
	{
		start := time.Now()
		snap := e.Snapshot(context.Background())
		n := snap.Query(ch.TOrders, []string{"o_key"}, pred).Filter(filter).
			Join(snap.Query(ch.TOrderLine, []string{"ol_o_key", "ol_amount"}, nil),
				[]string{"o_key"}, []string{"ol_o_key"}).
			Agg([]string{"o_key"}, exec.Agg{Kind: exec.Sum, Expr: exec.ColName("ol_amount"), Name: "rev"}).
			Count()
		snap.Close()
		out = append(out, HybridRow{Plan: "hybrid(cost-based)", Latency: time.Since(start), Rows: n})
	}
	return out
}

// FormatTable2QOHybrid renders the hybrid-scan comparison.
func FormatTable2QOHybrid(rows []HybridRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %12s %8s\n", "Access Path", "Latency", "Groups")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %12s %8d\n", r.Plan, r.Latency.Round(time.Microsecond), r.Rows)
	}
	return b.String()
}

// AccelRow compares device placements for a mixed workload.
type AccelRow struct {
	Placement accel.Placement
	TPOps     int64
	APOps     int64
	TPRate    float64
	APRate    float64
}

// Table2QOAccel runs concurrent OLTP and OLAP streams under each CPU/GPU
// placement: a TP worker issues short row operations while an AP worker
// issues wide scan kernels, both against the routed devices.
func Table2QOAccel(o Opts) []AccelRow {
	o = o.normalize()
	const tpRows, apRows = 4, 200_000
	var out []AccelRow
	for _, p := range []accel.Placement{accel.CPUOnly, accel.GPUOnly, accel.Hybrid} {
		r := accel.NewRouter(p)
		var tp, ap atomic.Int64
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				r.RunTP(tpRows, tpRows*64)
				tp.Add(1)
				runtime.Gosched()
			}
		}()
		go func() {
			defer wg.Done()
			for !stop.Load() {
				r.RunAP(apRows, apRows*16)
				ap.Add(1)
				runtime.Gosched()
			}
		}()
		start := time.Now()
		time.Sleep(o.Duration)
		stop.Store(true)
		wg.Wait()
		el := time.Since(start).Seconds()
		out = append(out, AccelRow{
			Placement: p, TPOps: tp.Load(), APOps: ap.Load(),
			TPRate: float64(tp.Load()) / el, APRate: float64(ap.Load()) / el,
		})
	}
	return out
}

// FormatTable2QOAccel renders the accelerator comparison.
func FormatTable2QOAccel(rows []AccelRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %12s\n", "Placement", "TP(op/s)", "AP(scan/s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %12.0f %12.1f\n", r.Placement, r.TPRate, r.APRate)
	}
	return b.String()
}

// --- Table 2, Resource Scheduling ---

// RSRow compares scheduling policies.
type RSRow struct {
	Policy     string
	TPS        float64
	QPS        float64
	FreshAvgTS float64
	Syncs      int64
}

// Table2RS runs the same mixed workload on architecture A under each
// scheduling controller: the controller adjusts the worker split, the
// execution mode, and sync triggering each epoch.
func Table2RS(o Opts) []RSRow {
	o = o.normalize()
	controllers := []sched.Controller{
		sched.WorkloadDriven{Total: 4},
		sched.FreshnessDriven{Total: 4, MaxLag: 10},
		sched.Adaptive{Total: 4, MaxLag: 10},
	}
	var out []RSRow
	for _, ctrl := range controllers {
		out = append(out, runScheduled(o, ctrl))
	}
	return out
}

func runScheduled(o Opts, ctrl sched.Controller) RSRow {
	e, s := loadEngine(core.ArchA, o)
	defer e.Close()
	driver := ch.NewDriver(e, s)
	queries := ch.Queries()
	qset := []int{1, 6}

	var syncs int64
	rngPool := make(chan *rand.Rand, 16)
	for i := 0; i < 16; i++ {
		rngPool <- rand.New(rand.NewSource(o.Seed + int64(i)))
	}
	pool := sched.NewPool(
		func() bool {
			rng := <-rngPool
			err := driver.RunOne(context.Background(), rng)
			rngPool <- rng
			return err == nil
		},
		func() bool {
			rng := <-rngPool
			qi := qset[rng.Intn(len(qset))]
			rngPool <- rng
			runBound(e, queries[qi])
			return true
		},
	)
	defer pool.Stop()
	// Throttle intra-query (morsel) parallelism along with the AP worker
	// count: shrinking the AP share narrows each query's fan-out too. The
	// shared pool outlives the experiment, so restore its default after.
	pool.AttachExecLimiter(exec.SharedPool())
	defer exec.SharedPool().SetLimit(0)

	var lagSum float64
	var lagN int64
	decision := ctrl.Decide(sched.Signals{}, sched.Decision{})
	sched.ObserveDecision(ctrl.Name(), sched.Signals{}, decision)
	pool.Resize(decision.TPWorkers, decision.APWorkers)
	e.SetMode(decision.Mode)

	epochs := int(o.Duration / (20 * time.Millisecond))
	if epochs < 3 {
		epochs = 3
	}
	var txns, qs int64
	start := time.Now()
	for ep := 0; ep < epochs; ep++ {
		time.Sleep(20 * time.Millisecond)
		tpDone, apDone := pool.Completed()
		txns += tpDone
		qs += apDone
		snap := e.Freshness()
		lagSum += float64(snap.LagTS)
		lagN++
		sig := sched.Signals{
			TPCompleted: tpDone, APCompleted: apDone,
			TPDemand: tpDone + 1, APDemand: apDone + 1,
			LagTS: snap.LagTS, LagTime: snap.LagTime,
		}
		decision = ctrl.Decide(sig, decision)
		sched.ObserveDecision(ctrl.Name(), sig, decision)
		pool.Resize(decision.TPWorkers, decision.APWorkers)
		e.SetMode(decision.Mode)
		if decision.SyncNow {
			e.Sync()
			syncs++
		}
	}
	el := time.Since(start).Seconds()
	pool.Resize(0, 0)
	return RSRow{
		Policy: ctrl.Name(),
		TPS:    float64(txns) / el,
		QPS:    float64(qs) / el,
		FreshAvgTS: func() float64 {
			if lagN == 0 {
				return 0
			}
			return lagSum / float64(lagN)
		}(),
		Syncs: syncs,
	}
}

// FormatTable2RS renders the scheduling comparison.
func FormatTable2RS(rows []RSRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %10s %10s %14s %8s\n", "Scheduler", "TP(txn/s)", "AP(q/s)", "AvgLag(commits)", "Syncs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %10.0f %10.1f %14.1f %8d\n", r.Policy, r.TPS, r.QPS, r.FreshAvgTS, r.Syncs)
	}
	return b.String()
}

// --- micro-benchmark wrappers (B3) ---

// FormatADAPT renders an ADAPT sweep.
func FormatADAPT(pts []micro.ADAPTPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %14s %14s\n", "Proj", "Layout", "ScanTime", "PointTime")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-8.2f %-8s %14s %14s\n",
			p.Projectivity, p.Layout, p.ScanTime.Round(time.Microsecond), p.PointTime.Round(time.Microsecond))
	}
	return b.String()
}

// FormatHAP renders a HAP sweep.
func FormatHAP(pts []micro.HAPPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %12s\n", "UpdFrac", "Layout", "Ops/s")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-8.2f %-8s %12.1f\n", p.UpdateFraction, p.Layout, p.OpsPerSec)
	}
	return b.String()
}

// runBound runs CH query q in a snapshot of its own, then closes it.
func runBound(e ch.Engine, q ch.QueryFunc) []types.Row {
	b := ch.Bind(context.Background(), e)
	defer b.Close()
	return q(b)
}
