package exec

import (
	"context"
	"testing"

	"htap/internal/colstore"
	"htap/internal/delta"
	"htap/internal/rowstore"
	"htap/internal/txn"
	"htap/internal/types"
)

var salesSchema = types.NewSchema("sales", 0,
	types.Column{Name: "id", Type: types.Int},
	types.Column{Name: "region", Type: types.Int},
	types.Column{Name: "amount", Type: types.Float},
	types.Column{Name: "item", Type: types.String},
)

func sale(id, region int64, amount float64, item string) types.Row {
	return types.Row{types.NewInt(id), types.NewInt(region), types.NewFloat(amount), types.NewString(item)}
}

func testRows() []types.Row {
	return []types.Row{
		sale(1, 1, 10, "apple"),
		sale(2, 1, 20, "banana"),
		sale(3, 2, 30, "apple"),
		sale(4, 2, 40, "cherry"),
		sale(5, 3, 50, "apple"),
	}
}

func TestFilterProject(t *testing.T) {
	p := From(NewMemSource(salesSchema.Cols, testRows())).
		Filter(Cmp(GE, ColName("amount"), ConstFloat(30))).
		Project(
			NamedExpr{"id", ColName("id")},
			NamedExpr{"double", Arith(Mul, ColName("amount"), ConstFloat(2))},
		)
	rows := p.Run()
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0][1].Float() != 60 {
		t.Fatalf("project value = %v", rows[0][1])
	}
}

func TestAggGroupBy(t *testing.T) {
	p := From(NewMemSource(salesSchema.Cols, testRows())).
		Agg([]string{"region"},
			Agg{Sum, ColName("amount"), "total"},
			Agg{Count, nil, "n"},
			Agg{Avg, ColName("amount"), "avg"},
			Agg{Min, ColName("amount"), "lo"},
			Agg{Max, ColName("amount"), "hi"},
		).
		Sort(SortKey{Col: "region"})
	rows := p.Run()
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	// region 1: total 30, n 2, avg 15, lo 10, hi 20
	r := rows[0]
	if r[0].Int() != 1 || r[1].Float() != 30 || r[2].Int() != 2 || r[3].Float() != 15 ||
		r[4].Float() != 10 || r[5].Float() != 20 {
		t.Fatalf("region 1 aggregates = %v", r)
	}
}

func TestGlobalAggEmptyInput(t *testing.T) {
	p := From(NewMemSource(salesSchema.Cols, nil)).
		Agg(nil, Agg{Count, nil, "n"}, Agg{Sum, ColName("amount"), "s"})
	rows := p.Run()
	if len(rows) != 1 || rows[0][0].Int() != 0 || rows[0][1].Float() != 0 {
		t.Fatalf("empty global agg = %v", rows)
	}
}

func TestIntSumStaysInt(t *testing.T) {
	p := From(NewMemSource(salesSchema.Cols, testRows())).
		Agg(nil, Agg{Sum, ColName("region"), "s"})
	rows := p.Run()
	if rows[0][0].Kind != types.Int || rows[0][0].Int() != 9 {
		t.Fatalf("int sum = %v", rows[0][0])
	}
}

var regionSchema = []types.Column{
	{Name: "r_id", Type: types.Int},
	{Name: "r_name", Type: types.String},
}

func regionRows() []types.Row {
	return []types.Row{
		{types.NewInt(1), types.NewString("east")},
		{types.NewInt(2), types.NewString("west")},
	}
}

func TestInnerJoin(t *testing.T) {
	p := From(NewMemSource(salesSchema.Cols, testRows())).
		Join(From(NewMemSource(regionSchema, regionRows())), []string{"region"}, []string{"r_id"}).
		Sort(SortKey{Col: "id"})
	rows := p.Run()
	if len(rows) != 4 { // region 3 has no match
		t.Fatalf("join rows = %d", len(rows))
	}
	if rows[0][5].Str() != "east" {
		t.Fatalf("joined name = %v", rows[0][5])
	}
}

func TestSemiAntiJoin(t *testing.T) {
	left := func() *Plan { return From(NewMemSource(salesSchema.Cols, testRows())) }
	right := func() *Plan { return From(NewMemSource(regionSchema, regionRows())) }
	semi := left().SemiJoin(right(), []string{"region"}, []string{"r_id"}).Run()
	if len(semi) != 4 {
		t.Fatalf("semi = %d", len(semi))
	}
	anti := left().AntiJoin(right(), []string{"region"}, []string{"r_id"}).Run()
	if len(anti) != 1 || anti[0][0].Int() != 5 {
		t.Fatalf("anti = %v", anti)
	}
}

func TestJoinAmbiguousColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ambiguous join should panic")
		}
	}()
	From(NewMemSource(salesSchema.Cols, nil)).
		Join(From(NewMemSource(salesSchema.Cols, nil)), []string{"id"}, []string{"id"})
}

func TestSortDescAndLimit(t *testing.T) {
	p := From(NewMemSource(salesSchema.Cols, testRows())).
		Sort(SortKey{Col: "amount", Desc: true}).
		Limit(2)
	rows := p.Run()
	if len(rows) != 2 || rows[0][0].Int() != 5 || rows[1][0].Int() != 4 {
		t.Fatalf("top-2 = %v", rows)
	}
}

func TestDistinct(t *testing.T) {
	p := From(NewMemSource(salesSchema.Cols, testRows())).
		Project(NamedExpr{"item", ColName("item")}).
		Distinct()
	if got := p.Count(); got != 3 {
		t.Fatalf("distinct items = %d", got)
	}
}

func TestExprSuite(t *testing.T) {
	rows := testRows()
	src := func() Source { return NewMemSource(salesSchema.Cols, rows) }
	cases := []struct {
		name string
		e    Expr
		want int
	}{
		{"eq", Cmp(EQ, ColName("region"), ConstInt(1)), 2},
		{"ne", Cmp(NE, ColName("region"), ConstInt(1)), 3},
		{"lt", Cmp(LT, ColName("amount"), ConstFloat(30)), 2},
		{"between", Between(ColName("region"), 2, 3), 3},
		{"in", InInts(ColName("region"), 1, 3), 3},
		{"and", And(Cmp(EQ, ColName("region"), ConstInt(2)), Cmp(GT, ColName("amount"), ConstFloat(35))), 1},
		{"or", Or(Cmp(EQ, ColName("region"), ConstInt(3)), Cmp(EQ, ColName("item"), ConstStr("cherry"))), 2},
		{"not", Not(Cmp(EQ, ColName("item"), ConstStr("apple"))), 2},
		{"prefix", HasPrefix(ColName("item"), "a"), 3},
		{"arith", Cmp(GT, Arith(Add, ColName("amount"), ConstFloat(5)), ConstFloat(40)), 2},
		{"empty-and", And(), 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := From(src()).Filter(c.e).Count(); got != c.want {
				t.Fatalf("%s: got %d, want %d", c.e, got, c.want)
			}
		})
	}
}

func TestArithIntDivision(t *testing.T) {
	src := NewMemSource(salesSchema.Cols, testRows()[:1])
	rows := From(src).Project(
		NamedExpr{"d", Arith(Div, ColName("region"), ConstInt(2))},
		NamedExpr{"z", Arith(Div, ColName("region"), ConstInt(0))},
	).Run()
	if rows[0][0].Float() != 0.5 {
		t.Fatalf("division = %v", rows[0][0])
	}
	if rows[0][1].Float() != 0 {
		t.Fatalf("division by zero should yield 0, got %v", rows[0][1])
	}
}

func TestRowScanSource(t *testing.T) {
	m := txn.NewManager()
	st := rowstore.New(1, salesSchema)
	for _, r := range testRows() {
		st.Load(r)
	}
	p := From(NewRowScan(context.Background(), st, m.Oracle().Watermark(), []string{"id", "amount"}, nil))
	rows := p.Run()
	if len(rows) != 5 || len(rows[0]) != 2 {
		t.Fatalf("rowscan = %v", rows)
	}
	// The key range bounds the B+-tree walk: the scan itself yields only
	// the rows inside it.
	p = From(NewRowScan(context.Background(), st, 0, nil, Between(ColName("id"), 2, 4)))
	if got := p.Count(); got != 3 {
		t.Fatalf("range rowscan = %d", got)
	}
}

func TestColScanWithOverlay(t *testing.T) {
	tbl := colstore.NewTable(salesSchema)
	tbl.AppendRows(testRows())

	// No overlay: pure column scan.
	if got := From(NewColScan(context.Background(), tbl.Version(), nil, nil)).Count(); got != 5 {
		t.Fatalf("pure scan = %d", got)
	}

	// Overlay updates row 1, deletes row 2, inserts row 6.
	d := delta.NewMem()
	d.Append(10, []txn.Write{
		{Table: 1, Key: 1, Op: txn.OpUpdate, Row: sale(1, 1, 99, "apple")},
		{Table: 1, Key: 2, Op: txn.OpDelete},
		{Table: 1, Key: 6, Op: txn.OpInsert, Row: sale(6, 4, 60, "fig")},
	})
	rows := From(NewColScan(context.Background(), tbl.Version(), nil, d.Overlay(10))).Sort(SortKey{Col: "id"}).Run()
	if len(rows) != 5 {
		t.Fatalf("overlay scan = %d rows: %v", len(rows), rows)
	}
	if rows[0][2].Float() != 99 {
		t.Fatalf("updated amount = %v", rows[0][2])
	}
	if rows[4][0].Int() != 6 {
		t.Fatalf("inserted row missing: %v", rows)
	}
	for _, r := range rows {
		if r[0].Int() == 2 {
			t.Fatal("deleted row visible")
		}
	}
}

func TestColScanZonePruning(t *testing.T) {
	tbl := colstore.NewTable(salesSchema)
	rows := make([]types.Row, 0, 3*colstore.SegmentRows)
	for i := 0; i < 3*colstore.SegmentRows; i++ {
		rows = append(rows, sale(int64(i), int64(i), float64(i), "x"))
	}
	tbl.AppendRows(rows)
	before := pushSegsPruned.Value()
	got := From(NewColScan(context.Background(), tbl.Version(), nil, nil)).
		Filter(Between(ColName("region"), 0, 10)).Count()
	if got != 11 {
		t.Fatalf("pruned scan = %d, want 11", got)
	}
	if pruned := pushSegsPruned.Value() - before; pruned < 2 {
		t.Fatalf("zone maps pruned %d segments, want the 2 outside the range", pruned)
	}
}

func TestColScanProjection(t *testing.T) {
	tbl := colstore.NewTable(salesSchema)
	tbl.AppendRows(testRows())
	rows := From(NewColScan(context.Background(), tbl.Version(), []string{"item", "amount"}, nil)).Run()
	if len(rows[0]) != 2 || rows[0][0].Kind != types.String {
		t.Fatalf("projection = %v", rows[0])
	}
}

func TestLimitAcrossBatches(t *testing.T) {
	rows := make([]types.Row, 0, 3000)
	for i := 0; i < 3000; i++ {
		rows = append(rows, sale(int64(i), 1, 1, "x"))
	}
	got := From(NewMemSource(salesSchema.Cols, rows)).Limit(1500).Count()
	if got != 1500 {
		t.Fatalf("limit = %d", got)
	}
}

func BenchmarkColScanAgg(b *testing.B) {
	tbl := colstore.NewTable(salesSchema)
	rows := make([]types.Row, 0, 64*1024)
	for i := 0; i < 64*1024; i++ {
		rows = append(rows, sale(int64(i), int64(i%16), float64(i%100), "item"))
	}
	tbl.AppendRows(rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		From(NewColScan(context.Background(), tbl.Version(), []string{"region", "amount"}, nil)).
			Agg([]string{"region"}, Agg{Sum, ColName("amount"), "s"}).Count()
	}
}
