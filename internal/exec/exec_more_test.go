package exec

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"

	"htap/internal/types"
)

func manyRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = sale(int64(i), int64(i%7), float64(i), "x")
	}
	return rows
}

func TestUnionConcatenates(t *testing.T) {
	a := NewMemSource(salesSchema.Cols, manyRows(1500))
	b := NewMemSource(salesSchema.Cols, manyRows(700))
	if got := From(NewUnion(a, b)).Count(); got != 2200 {
		t.Fatalf("union = %d", got)
	}
	// Single-source unions and empty parts behave.
	if got := From(NewUnion(NewMemSource(salesSchema.Cols, nil))).Count(); got != 0 {
		t.Fatalf("empty union = %d", got)
	}
}

func TestUnionSchemaMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("schema mismatch should panic")
		}
	}()
	NewUnion(
		NewMemSource(salesSchema.Cols, nil),
		NewMemSource(regionSchema, nil),
	)
}

func TestIfExpr(t *testing.T) {
	rows := From(NewMemSource(salesSchema.Cols, testRows())).
		Project(NamedExpr{"tier", If(
			Cmp(GE, ColName("amount"), ConstFloat(30)),
			ConstStr("big"), ConstStr("small"),
		)}).Run()
	big := 0
	for _, r := range rows {
		if r[0].Str() == "big" {
			big++
		}
	}
	if big != 3 {
		t.Fatalf("big tier = %d", big)
	}
}

func TestSubstrExpr(t *testing.T) {
	rows := From(NewMemSource(salesSchema.Cols, testRows()[:1])).
		Project(
			NamedExpr{"a", Substr(ColName("item"), 0, 3)},  // "app"
			NamedExpr{"b", Substr(ColName("item"), 3, 99)}, // "le" (clamped)
			NamedExpr{"c", Substr(ColName("item"), 99, 2)}, // "" (start clamped)
		).Run()
	if rows[0][0].Str() != "app" || rows[0][1].Str() != "le" || rows[0][2].Str() != "" {
		t.Fatalf("substr = %v", rows[0])
	}
}

func TestSortStability(t *testing.T) {
	// Equal keys keep input order (SliceStable): verify by sorting on a
	// constant column.
	rows := From(NewMemSource(salesSchema.Cols, testRows())).
		Sort(SortKey{Col: "item"}).Run()
	// The three apples must keep relative id order 1, 3, 5.
	var apples []int64
	for _, r := range rows {
		if r[3].Str() == "apple" {
			apples = append(apples, r[0].Int())
		}
	}
	if !sort.SliceIsSorted(apples, func(i, j int) bool { return apples[i] < apples[j] }) {
		t.Fatalf("stability broken: %v", apples)
	}
}

func TestExprStringer(t *testing.T) {
	exprs := []Expr{
		Cmp(EQ, ColName("a"), ConstInt(1)),
		And(ConstInt(1)), Or(ConstInt(0)), Not(ConstInt(1)),
		Arith(Add, ColName("a"), ConstFloat(2)),
		InInts(ColName("a"), 1, 2), HasPrefix(ColName("s"), "x"),
		If(ConstInt(1), ConstInt(2), ConstInt(3)),
		Substr(ColName("s"), 0, 2),
	}
	for _, e := range exprs {
		if e.String() == "" {
			t.Fatalf("%T has empty String()", e)
		}
	}
}

func TestErrorPlanShortCircuits(t *testing.T) {
	boom := errors.New("boom")
	right := From(NewMemSource(salesSchema.Cols, testRows()))
	// Every builder must short-circuit on the carried error instead of
	// binding expressions or join keys against the nil schema (which
	// would panic in colIndex).
	p := FromError(boom).
		Filter(Cmp(GE, ColName("amount"), ConstFloat(1))).
		Project(NamedExpr{"id", ColName("id")}).
		Join(right, []string{"id"}, []string{"id"}).
		Agg([]string{"id"}, Agg{Count, nil, "n"}).
		Distinct().
		Sort(SortKey{Col: "id"}).
		TopK(3, SortKey{Col: "id"}).
		Limit(5)
	if p.Err() != boom {
		t.Fatalf("Err() = %v, want boom", p.Err())
	}
	if rows, err := p.RunCtx(context.Background()); err != boom || rows != nil {
		t.Fatalf("RunCtx = (%v, %v), want (nil, boom)", rows, err)
	}
	if n, err := p.CountCtx(context.Background()); err != boom || n != 0 {
		t.Fatalf("CountCtx = (%d, %v), want (0, boom)", n, err)
	}
	// The error also flows in from the right side of a join.
	if err := right.SemiJoin(FromError(boom), []string{"id"}, []string{"id"}).Err(); err != boom {
		t.Fatalf("right-side join error not carried: %v", err)
	}
}

// salesBatch is one full batch of sale rows over few distinct keys.
func salesBatch() *Batch {
	b := NewBatch(salesSchema.Cols, BatchSize)
	for _, r := range manyRows(BatchSize) {
		b.AppendRow(r)
	}
	return b
}

// TestSortAllocsIndependentOfRows: the sort orders references to its
// input rows and gathers output batches, so it allocates per batch, never
// per row: eight times the rows cost the same allocations per batch, and
// far fewer than one per row.
func TestSortAllocsIndependentOfRows(t *testing.T) {
	b := salesBatch()
	perBatch := func(rows int) float64 {
		n := rows / BatchSize
		return testing.AllocsPerRun(1, func() {
			From(&repeatSource{b: b, n: n}).Sort(SortKey{Col: "region"}, SortKey{Col: "amount", Desc: true}).Count()
		}) / float64(n)
	}
	small, large := perBatch(64<<10), perBatch(512<<10)
	if math.Abs(large-small) > 1 || large > BatchSize/8 {
		t.Fatalf("sort allocates per row: %.1f allocations per batch at 64Ki rows, %.1f at 512Ki", small, large)
	}
}

// TestProjectAllocsPerBatch: a projection's output batch reserves its
// input's row count up front, so its columns never grow by append.
func TestProjectAllocsPerBatch(t *testing.T) {
	b := salesBatch()
	const n = 256
	perBatch := testing.AllocsPerRun(1, func() {
		From(&repeatSource{b: b, n: n}).Project(
			NamedExpr{"id", ColName("id")},
			NamedExpr{"double", Arith(Mul, ColName("amount"), ConstFloat(2))},
			NamedExpr{"next", Arith(Add, ColName("region"), ConstInt(1))},
			NamedExpr{"item", ColName("item")},
		).Count()
	}) / n
	t.Logf("%.2f allocations per batch", perBatch)
	if perBatch > 14 {
		t.Fatalf("a 4-column projection makes %.1f allocations per batch", perBatch)
	}
}

// TestRunCtxAllocsPerBatch: RunCtx cuts each batch's rows from one datum
// slab, so materializing the result costs a couple of allocations per
// batch, not one per row.
func TestRunCtxAllocsPerBatch(t *testing.T) {
	b := salesBatch()
	const n = 256
	perBatch := testing.AllocsPerRun(1, func() {
		if rows := From(&repeatSource{b: b, n: n}).Run(); len(rows) != n*BatchSize {
			t.Fatalf("rows = %d", len(rows))
		}
	}) / n
	if perBatch > 2 {
		t.Fatalf("RunCtx makes %.1f allocations per batch", perBatch)
	}
}

// TestRunCtxRowsDoNotAlias: rows cut from one slab are capped, so
// appending to a returned row leaves the next row unchanged.
func TestRunCtxRowsDoNotAlias(t *testing.T) {
	rows := From(NewMemSource(salesSchema.Cols, manyRows(3))).Run()
	want := append(types.Row(nil), rows[1]...)
	_ = append(rows[0], types.NewInt(-1), types.NewInt(-2))
	for c := range want {
		if !rows[1][c].Equal(want[c]) {
			t.Fatalf("appending to row 0 changed row 1: %v, want %v", rows[1], want)
		}
	}
}
