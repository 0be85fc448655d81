package exec

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"htap/internal/colstore"
	"htap/internal/delta"
	"htap/internal/types"
)

// newSalesTable builds a multi-segment columnar sales table with n rows.
func newSalesTable(n int) *colstore.Table {
	t := colstore.NewTable(salesSchema)
	for _, r := range manyRows(n) {
		t.Append(r)
	}
	t.Flush()
	return t
}

func rowsEqual(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for c := range a[i] {
			if !a[i][c].Equal(b[i][c]) {
				return false
			}
		}
	}
	return true
}

// TestEmptyUnionIsError is the regression test for NewUnion() with zero
// sources: it used to panic in unionSource.Schema; now it yields an
// error-carrying plan.
func TestEmptyUnionIsError(t *testing.T) {
	src := NewUnion()
	if s := src.Schema(); s != nil {
		t.Fatalf("empty union schema = %v, want nil", s)
	}
	if b := src.Next(); b != nil {
		t.Fatalf("empty union produced a batch")
	}
	p := From(src)
	if p.Err() == nil {
		t.Fatal("plan from empty union carries no error")
	}
	// Builders short-circuit and runs report the error, not an empty table.
	rows, err := p.Filter(ConstInt(1)).RunCtx(context.Background())
	if err == nil || rows != nil {
		t.Fatalf("run = (%v, %v), want (nil, error)", rows, err)
	}
	// A union that contains an error source propagates it.
	if From(NewUnion(NewUnion(), NewMemSource(salesSchema.Cols, nil))).Err() == nil {
		t.Fatal("union over an error source should carry the error")
	}
}

// TestParallelScanMatchesSequential checks the core morsel invariant:
// part-order concatenation reproduces the sequential scan exactly — same
// rows, same order — including delete masks and delta overlays.
func TestParallelScanMatchesSequential(t *testing.T) {
	tbl := newSalesTable(3 * colstore.SegmentRows / 2)
	for k := int64(0); k < 100; k += 3 {
		tbl.DeleteKey(k)
	}
	overlay := &delta.Overlay{
		Rows:   map[int64]types.Row{},
		Masked: map[int64]struct{}{7: {}, 11: {}},
	}
	for k := int64(100000); k < 100080; k++ {
		overlay.Rows[k] = sale(k, k%7, float64(k), "d")
	}
	mk := func(par int) *Plan {
		return From(NewColScan(context.Background(), tbl.Version(), nil, nil, overlay)).
			Parallel(par).
			Filter(Cmp(GE, ColName("region"), ConstInt(2)))
	}
	seq := mk(1).Run()
	for _, par := range []int{2, 4, 13} {
		got := mk(par).Run()
		if !rowsEqual(seq, got) {
			t.Fatalf("par=%d: %d rows != sequential %d rows (or order differs)", par, len(got), len(seq))
		}
	}
}

// TestParallelAggDeterministic checks that aggregation at a fixed degree
// of parallelism is bit-deterministic (static morsel assignment plus
// part-ordered merges), and that group output order matches sequential.
func TestParallelAggDeterministic(t *testing.T) {
	tbl := newSalesTable(3 * colstore.SegmentRows)
	run := func(par int) []types.Row {
		return From(NewColScan(context.Background(), tbl.Version(), nil, nil, nil)).
			Parallel(par).
			Agg([]string{"region"},
				Agg{Kind: Sum, Expr: ColName("amount"), Name: "total"},
				Agg{Kind: Count, Name: "n"},
				Agg{Kind: Min, Expr: ColName("amount"), Name: "lo"},
				Agg{Kind: Max, Expr: ColName("amount"), Name: "hi"}).
			Run()
	}
	seq, a, b := run(1), run(4), run(4)
	if len(seq) != 7 || len(a) != 7 {
		t.Fatalf("groups: seq=%d par=%d, want 7", len(seq), len(a))
	}
	for i := range a {
		for c := range a[i] {
			if !a[i][c].Equal(b[i][c]) {
				t.Fatalf("par=4 not deterministic at group %d col %d: %v vs %v", i, c, a[i][c], b[i][c])
			}
		}
		// Against sequential: group order and int aggregates are identical;
		// float sums agree to rounding.
		if !seq[i][0].Equal(a[i][0]) || !seq[i][2].Equal(a[i][2]) ||
			!seq[i][3].Equal(a[i][3]) || !seq[i][4].Equal(a[i][4]) {
			t.Fatalf("group %d: seq %v vs par %v", i, seq[i], a[i])
		}
		s, p := seq[i][1].Float(), a[i][1].Float()
		if math.Abs(s-p) > 1e-9*math.Max(1, math.Abs(s)) {
			t.Fatalf("group %d sum: seq %v vs par %v", i, s, p)
		}
	}
}

// TestParallelJoinMatchesSequential covers the parallel build (partitioned
// then merged in part order) and split probe: output must match the
// sequential join exactly, including multi-match row order.
func TestParallelJoinMatchesSequential(t *testing.T) {
	left := newSalesTable(2 * colstore.SegmentRows)
	dim := make([]types.Row, 0, 14)
	dimSchema := types.NewSchema("dim", 0,
		types.Column{Name: "r", Type: types.Int},
		types.Column{Name: "label", Type: types.String},
	)
	for i := int64(0); i < 7; i++ {
		// Two dim rows per region: every probe row matches twice.
		dim = append(dim,
			types.Row{types.NewInt(i), types.NewString("first")},
			types.Row{types.NewInt(i), types.NewString("second")},
		)
	}
	mk := func(par int) *Plan {
		return From(NewColScan(context.Background(), left.Version(), nil, nil, nil)).
			Parallel(par).
			Join(From(NewMemSource(dimSchema.Cols, dim)).Parallel(par), []string{"region"}, []string{"r"})
	}
	seq := mk(1).Run()
	par := mk(4).Run()
	if !rowsEqual(seq, par) {
		t.Fatalf("join par=4: %d rows != sequential %d rows (or order differs)", len(par), len(seq))
	}
	if len(seq) != 2*2*colstore.SegmentRows {
		t.Fatalf("join rows = %d", len(seq))
	}
}

// TestParallelCancellation: a context cancelled mid-scan stops all parts
// and RunCtx reports the error.
func TestParallelCancellation(t *testing.T) {
	tbl := newSalesTable(4 * colstore.SegmentRows)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := From(NewColScan(ctx, tbl.Version(), nil, nil, nil)).Parallel(4).RunCtx(ctx)
	if err == nil {
		t.Fatal("cancelled parallel run returned no error")
	}
	if len(rows) != 0 {
		t.Fatalf("cancelled before start but got %d rows", len(rows))
	}
}

// TestPoolNeverBlocks: tasks beyond the limit run inline on the caller,
// so nested fan-out (an aggregate part containing a parallel join build)
// cannot deadlock even at limit 1.
func TestPoolNeverBlocks(t *testing.T) {
	p := &Pool{}
	p.SetLimit(1)
	defer p.SetLimit(0)
	var ran atomic.Int32
	inner := func() {
		tasks := make([]func(), 4)
		for i := range tasks {
			tasks[i] = func() { ran.Add(1) }
		}
		p.Run(tasks)
	}
	outer := make([]func(), 4)
	for i := range outer {
		outer[i] = inner
	}
	done := make(chan struct{})
	go func() {
		p.Run(outer)
		close(done)
	}()
	select {
	case <-done:
	case <-context.Background().Done():
	}
	if ran.Load() != 16 {
		t.Fatalf("ran %d inner tasks, want 16", ran.Load())
	}
}

// TestSharedPoolLimiter: the sched scheduler throttles the shared pool via
// SetLimit; verify limits clamp and restore.
func TestSharedPoolLimiter(t *testing.T) {
	p := SharedPool()
	def := p.Limit()
	p.SetLimit(2)
	if p.Limit() != 2 {
		t.Fatalf("limit = %d, want 2", p.Limit())
	}
	p.SetLimit(0)
	if p.Limit() != def {
		t.Fatalf("limit = %d, want default %d", p.Limit(), def)
	}
}
