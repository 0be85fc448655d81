// Package micro implements the two HTAP micro-benchmarks the paper's §2.3
// surveys, plus layout-level primitives shared by the ablation benches.
//
//   - ADAPT (Arulraj et al., "Bridging the Archipelago between Row-stores
//     and Column-stores for Hybrid Workloads"): a wide table scanned with
//     varying projectivity and probed with point lookups, comparing row,
//     column, and hybrid layouts.
//   - HAP (Athanassoulis et al., "Optimal Column Layout for Hybrid
//     Workloads"): a mixed update/scan workload swept over the update
//     fraction, showing where each layout wins.
package micro

import (
	"context"
	"math/rand"
	"time"

	"htap/internal/colstore"
	"htap/internal/exec"
	"htap/internal/rowstore"
	"htap/internal/txn"
	"htap/internal/types"
)

// Layout identifies a physical design.
type Layout uint8

// Physical layouts.
const (
	RowLayout Layout = iota + 1
	ColLayout
	HybridLayout // row store for point ops, column store for scans
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	return [...]string{"?", "row", "column", "hybrid"}[l]
}

// Dataset is a generated wide table materialized in both layouts.
type Dataset struct {
	Schema *types.Schema
	Rows   int
	Cols   int
	Row    *rowstore.Store
	Col    *colstore.Table
	Mgr    *txn.Manager
}

// NewDataset builds a table with one key column plus cols int64 attribute
// columns, loaded into a row store and a column store.
func NewDataset(rows, cols int, seed int64) *Dataset {
	colDefs := make([]types.Column, 0, cols+1)
	colDefs = append(colDefs, types.Column{Name: "k", Type: types.Int})
	for i := 0; i < cols; i++ {
		colDefs = append(colDefs, types.Column{Name: attr(i), Type: types.Int})
	}
	schema := types.NewSchema("adapt", 0, colDefs...)
	d := &Dataset{
		Schema: schema, Rows: rows, Cols: cols,
		Row: rowstore.New(1, schema),
		Col: colstore.NewTable(schema),
		Mgr: txn.NewManager(),
	}
	d.Row.SetPins(d.Mgr.Pins())
	rng := rand.New(rand.NewSource(seed))
	all := make([]types.Row, 0, rows)
	for r := 0; r < rows; r++ {
		row := make(types.Row, cols+1)
		row[0] = types.NewInt(int64(r))
		for c := 0; c < cols; c++ {
			row[c+1] = types.NewInt(int64(rng.Intn(1000)))
		}
		if err := d.Row.Load(row); err != nil {
			panic(err)
		}
		all = append(all, row)
	}
	d.Col.AppendRows(all)
	return d
}

func attr(i int) string { return "a" + string(rune('0'+i/10)) + string(rune('0'+i%10)) }

// projection returns the first n attribute column names.
func (d *Dataset) projection(n int) []string {
	if n <= 0 || n > d.Cols {
		n = d.Cols
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = attr(i)
	}
	return out
}

// scan plans a scan of cols under a layout, keeping the rows filter
// passes (every row when filter is nil).
func (d *Dataset) scan(l Layout, cols []string, filter exec.Expr) *exec.Plan {
	if l == RowLayout {
		return exec.From(exec.NewRowScan(context.Background(), d.Row, d.Mgr.Oracle().Watermark(), cols, filter)).Filter(filter)
	}
	return exec.From(exec.NewColScan(context.Background(), d.Col.Version(), cols, nil)).Filter(filter)
}

// ScanResult reports one scan measurement.
type ScanResult struct {
	Layout   Layout
	Duration time.Duration
	Sum      int64 // checksum so layouts can be cross-validated
}

// RunScan aggregates SUM over projCols attribute columns with an optional
// key-range selectivity, under the given layout (hybrid scans use the
// column store).
func (d *Dataset) RunScan(l Layout, projCols int, selectivity float64) ScanResult {
	cols := d.projection(projCols)
	var filter exec.Expr
	if selectivity > 0 && selectivity < 1 {
		hi := int64(float64(d.Rows) * selectivity)
		filter = exec.Between(exec.ColName("k"), 0, hi-1)
		cols = append([]string{"k"}, cols...)
	}
	scanLayout := l
	if l == HybridLayout {
		scanLayout = ColLayout
	}
	start := time.Now()
	aggCol := cols[len(cols)-1]
	rows := d.scan(scanLayout, cols, filter).Agg(nil, exec.Agg{Kind: exec.Sum, Expr: exec.ColName(aggCol), Name: "s"}).Run()
	return ScanResult{Layout: l, Duration: time.Since(start), Sum: rows[0][0].Int()}
}

// RunPoints performs n random point lookups (hybrid uses the row store)
// and returns the elapsed time.
func (d *Dataset) RunPoints(l Layout, n int, seed int64) time.Duration {
	rng := rand.New(rand.NewSource(seed))
	ts := d.Mgr.Oracle().Watermark()
	start := time.Now()
	for i := 0; i < n; i++ {
		key := int64(rng.Intn(d.Rows))
		switch l {
		case ColLayout:
			d.Col.GetKey(key)
		default: // row and hybrid
			d.Row.GetAt(ts, key)
		}
	}
	return time.Since(start)
}

// RunUpdates applies n single-row updates (hybrid and row write the row
// store; column rewrites the row into a fresh segment, the expensive path).
func (d *Dataset) RunUpdates(l Layout, n int, seed int64) time.Duration {
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	for i := 0; i < n; i++ {
		key := int64(rng.Intn(d.Rows))
		row := make(types.Row, d.Cols+1)
		row[0] = types.NewInt(key)
		for c := 0; c < d.Cols; c++ {
			row[c+1] = types.NewInt(int64(rng.Intn(1000)))
		}
		switch l {
		case ColLayout:
			d.Col.AppendRows([]types.Row{row})
		default:
			tx := d.Mgr.Begin()
			if err := d.Row.Update(tx, row); err != nil {
				tx.Abort()
				continue
			}
			tx.Commit(func(ts uint64, ws []txn.Write) error {
				d.Row.Apply(ts, ws)
				return nil
			})
		}
	}
	return time.Since(start)
}

// ADAPTPoint is one cell of the ADAPT sweep.
type ADAPTPoint struct {
	Projectivity float64
	Layout       Layout
	ScanTime     time.Duration
	PointTime    time.Duration
}

// RunADAPT sweeps projectivity for each layout over a fresh dataset,
// reporting scan and point-op costs — the benchmark's signature plot: rows
// win point ops and full-width scans of few rows; columns win narrow
// projections.
func RunADAPT(rows, cols int, projectivities []float64, pointOps int) []ADAPTPoint {
	d := NewDataset(rows, cols, 1)
	var out []ADAPTPoint
	for _, p := range projectivities {
		n := int(float64(cols) * p)
		if n < 1 {
			n = 1
		}
		for _, l := range []Layout{RowLayout, ColLayout, HybridLayout} {
			sr := d.RunScan(l, n, 1.0)
			pt := d.RunPoints(l, pointOps, 2)
			out = append(out, ADAPTPoint{
				Projectivity: p, Layout: l, ScanTime: sr.Duration, PointTime: pt,
			})
		}
	}
	return out
}

// HAPPoint is one cell of the HAP sweep.
type HAPPoint struct {
	UpdateFraction float64
	Layout         Layout
	Ops            int
	Duration       time.Duration
	OpsPerSec      float64
}

// RunHAP sweeps the update fraction of a mixed update/scan workload for
// each layout.
func RunHAP(rows, cols, ops int, updateFractions []float64) []HAPPoint {
	var out []HAPPoint
	for _, uf := range updateFractions {
		for _, l := range []Layout{RowLayout, ColLayout, HybridLayout} {
			d := NewDataset(rows, cols, 3)
			rng := rand.New(rand.NewSource(4))
			start := time.Now()
			for i := 0; i < ops; i++ {
				if rng.Float64() < uf {
					d.RunUpdates(l, 1, int64(i))
				} else {
					d.RunScan(l, cols/4, 1.0)
				}
			}
			el := time.Since(start)
			out = append(out, HAPPoint{
				UpdateFraction: uf, Layout: l, Ops: ops, Duration: el,
				OpsPerSec: float64(ops) / el.Seconds(),
			})
		}
	}
	return out
}
