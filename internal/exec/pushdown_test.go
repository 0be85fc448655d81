package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"htap/internal/colstore"
	"htap/internal/delta"
	"htap/internal/types"
)

// pushSchema exercises every vector encoding: "id" raw/packed ints, "run"
// long RLE runs, "amt" raw floats, "tag" dictionary strings.
var pushSchema = types.NewSchema("push", 0,
	types.Column{Name: "id", Type: types.Int},
	types.Column{Name: "run", Type: types.Int},
	types.Column{Name: "amt", Type: types.Float},
	types.Column{Name: "tag", Type: types.String},
)

// pushTable builds a multi-segment table with deleted rows sprinkled in.
func pushTable(n int, deletes []int64) *colstore.Table {
	tbl := colstore.NewTable(pushSchema)
	rng := rand.New(rand.NewSource(3))
	rows := make([]types.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i / 100 % 7)), // RLE: 100-row runs, values 0..6
			types.NewFloat(float64(rng.Intn(1000)) / 4),
			types.NewString(fmt.Sprintf("tag-%02d", rng.Intn(40))),
		})
	}
	tbl.AppendRows(rows)
	for _, k := range deletes {
		tbl.DeleteKey(k)
	}
	return tbl
}

func pushOverlay() *delta.Overlay {
	o := &delta.Overlay{Rows: make(map[int64]types.Row), Masked: make(map[int64]struct{})}
	// Updates of in-store keys (masked + re-emitted) and fresh inserts.
	for _, k := range []int64{5, 101, 9000} {
		o.Rows[k] = types.Row{types.NewInt(k), types.NewInt(3), types.NewFloat(50), types.NewString("tag-05")}
		o.Masked[k] = struct{}{}
	}
	o.Rows[1_000_001] = types.Row{types.NewInt(1_000_001), types.NewInt(9), types.NewFloat(0.25), types.NewString("zzz")}
	// A pure delete: masked with no replacement image.
	o.Masked[77] = struct{}{}
	return o
}

// pushPreds sweeps predicate shapes: every comparison operator on every
// column type, values exactly at and off RLE run boundaries, dictionary
// hits and misses, prefix and set membership, conjunctions with residuals,
// and shapes that must NOT push (disjunction, arithmetic, column-column).
func pushPreds() map[string]Expr {
	return map[string]Expr{
		"int-lt":          Cmp(LT, ColName("id"), ConstInt(500)),
		"int-le-edge":     Cmp(LE, ColName("id"), ConstInt(4095)), // segment boundary
		"int-ge-flip":     Cmp(LE, ConstInt(9500), ColName("id")), // const on the left
		"int-eq":          Cmp(EQ, ColName("id"), ConstInt(101)),
		"int-ne":          Cmp(NE, ColName("run"), ConstInt(3)),
		"rle-on-boundary": Cmp(LT, ColName("run"), ConstInt(3)), // run values are 0..6
		"rle-eq":          Cmp(EQ, ColName("run"), ConstInt(6)),
		"rle-miss":        Cmp(EQ, ColName("run"), ConstInt(42)),
		"int-vs-float":    Cmp(GT, ColName("run"), ConstFloat(2.5)), // widening compare
		"float-range":     Cmp(GE, ColName("amt"), ConstFloat(200)),
		"float-eq":        Cmp(EQ, ColName("amt"), ConstFloat(50)),
		"str-eq-hit":      Cmp(EQ, ColName("tag"), ConstStr("tag-05")),
		"str-eq-miss":     Cmp(EQ, ColName("tag"), ConstStr("tag-05x")),
		"str-lt":          Cmp(LT, ColName("tag"), ConstStr("tag-20")),
		"str-ge-absent":   Cmp(GE, ColName("tag"), ConstStr("tag-199")),
		"prefix":          HasPrefix(ColName("tag"), "tag-1"),
		"prefix-none":     HasPrefix(ColName("tag"), "nope"),
		"in-set":          InInts(ColName("run"), 1, 4, 6),
		"conjunction":     And(Cmp(LT, ColName("id"), ConstInt(5000)), Cmp(GE, ColName("amt"), ConstFloat(100))),
		"with-residual":   And(Cmp(EQ, ColName("run"), ConstInt(2)), Or(Cmp(LT, ColName("amt"), ConstFloat(10)), Cmp(GT, ColName("amt"), ConstFloat(240)))),
		"all-residual":    Or(Cmp(EQ, ColName("run"), ConstInt(0)), Cmp(EQ, ColName("run"), ConstInt(6))),
		"col-vs-col":      Cmp(LT, ColName("run"), ColName("id")),
		"arith":           Cmp(GT, Arith(Mul, ColName("amt"), ConstFloat(2)), ConstFloat(400)),
		"empty-result":    Cmp(GT, ColName("id"), ConstInt(1<<40)),
	}
}

func pushRowsEqual(t *testing.T, name string, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d width %d, want %d", name, i, len(got[i]), len(want[i]))
		}
		for c := range got[i] {
			if got[i][c] != want[i][c] {
				t.Fatalf("%s: row %d col %d = %v, want %v", name, i, c, got[i][c], want[i][c])
			}
		}
	}
}

// TestPushdownMatchesNaiveFilter is the differential gate of the pushdown
// pipeline: for every predicate shape, the pushed-down plan must produce
// exactly the rows — same values, same order — as the same scan followed
// by a row-at-a-time filter operator, across projections, deleted rows,
// and a delta overlay, at DOP 1 and DOP 4.
func TestPushdownMatchesNaiveFilter(t *testing.T) {
	tbl := pushTable(10_000, []int64{0, 5, 4095, 4096, 9999})
	ctx := context.Background()
	projections := map[string][]string{
		"all":         nil,
		"covering":    {"id", "run", "amt", "tag"},
		"strings":     {"tag", "id"},
		"no-pred-col": {"amt"},
	}
	// Columns each predicate references: a filter can only bind against a
	// projection that includes them.
	predCols := map[string][]string{
		"int-lt": {"id"}, "int-le-edge": {"id"}, "int-ge-flip": {"id"},
		"int-eq": {"id"}, "int-ne": {"run"}, "rle-on-boundary": {"run"},
		"rle-eq": {"run"}, "rle-miss": {"run"}, "int-vs-float": {"run"},
		"float-range": {"amt"}, "float-eq": {"amt"}, "str-eq-hit": {"tag"},
		"str-eq-miss": {"tag"}, "str-lt": {"tag"}, "str-ge-absent": {"tag"},
		"prefix": {"tag"}, "prefix-none": {"tag"}, "in-set": {"run"},
		"conjunction": {"id", "amt"}, "with-residual": {"run", "amt"},
		"all-residual": {"run"}, "col-vs-col": {"run", "id"},
		"arith": {"amt"}, "empty-result": {"id"},
	}
	for pname, cols := range projections {
		for name, pred := range pushPreds() {
			if cols != nil {
				ok := true
				for _, pc := range predCols[name] {
					found := false
					for _, c := range cols {
						if c == pc {
							found = true
						}
					}
					ok = ok && found
				}
				if !ok {
					continue
				}
			}
			for _, overlay := range []*delta.Overlay{nil, pushOverlay()} {
				oname := "plain"
				if overlay != nil {
					oname = "overlay"
				}
				scan := func() Source { return NewColScan(ctx, tbl.Version(), cols, overlay) }
				schema := scan().Schema()
				naive := From(&filterOp{in: scan(), expr: pred.Bind(schema)})
				want, err := naive.RunCtx(ctx)
				if err != nil {
					t.Fatal(err)
				}
				got, err := From(scan()).Filter(pred).RunCtx(ctx)
				if err != nil {
					t.Fatal(err)
				}
				pushRowsEqual(t, fmt.Sprintf("%s/%s/%s", pname, name, oname), got, want)
				gotPar, err := From(scan()).Parallel(4).Filter(pred).RunCtx(ctx)
				if err != nil {
					t.Fatal(err)
				}
				pushRowsEqual(t, fmt.Sprintf("%s/%s/%s/dop4", pname, name, oname), gotPar, want)
			}
		}
	}
}

// TestPushdownRewrites checks where predicates land in the plan tree.
func TestPushdownRewrites(t *testing.T) {
	ctx := context.Background()
	tbl := pushTable(100, nil)
	scan := func() Source { return NewColScan(ctx, tbl.Version(), nil, nil) }

	// Fully pushable conjunction: no residual filter remains.
	p := From(scan()).Filter(And(Cmp(LT, ColName("id"), ConstInt(50)), Cmp(EQ, ColName("tag"), ConstStr("x"))))
	if _, ok := p.src.(*colScan); !ok {
		t.Fatalf("fully pushable filter left %T above the scan", p.src)
	}
	if s := p.Explain(); !contains(s, "pushdown=[") {
		t.Fatalf("explain missing pushdown: %s", s)
	}

	// Mixed: pushable conjunct absorbed, the disjunction stays residual.
	p = From(scan()).Filter(And(Cmp(LT, ColName("id"), ConstInt(50)),
		Or(Cmp(EQ, ColName("run"), ConstInt(1)), Cmp(EQ, ColName("run"), ConstInt(2)))))
	f, ok := p.src.(*filterOp)
	if !ok {
		t.Fatalf("expected residual filter, got %T", p.src)
	}
	if cs, ok := f.in.(*colScan); !ok || len(cs.pushed) != 1 {
		t.Fatalf("expected scan with 1 pushed pred under residual, got %T", f.in)
	}

	// Unpushable only: plan shape unchanged from a plain filter.
	p = From(scan()).Filter(Cmp(LT, ColName("run"), ColName("id")))
	if f, ok := p.src.(*filterOp); !ok {
		t.Fatalf("expected filter, got %T", p.src)
	} else if cs := f.in.(*colScan); len(cs.pushed) != 0 {
		t.Fatal("column-vs-column predicate must not push")
	}

	// NULL comparand must not push (its ordering semantics stay residual).
	p = From(scan()).Filter(Cmp(EQ, ColName("id"), &constExpr{}))
	if f, ok := p.src.(*filterOp); !ok {
		t.Fatalf("expected filter, got %T", p.src)
	} else if cs := f.in.(*colScan); len(cs.pushed) != 0 {
		t.Fatal("NULL comparand must not push")
	}

	// A started scan keeps the filter downstream.
	s := scan()
	s.Next()
	p = From(s).Filter(Cmp(LT, ColName("id"), ConstInt(50)))
	if _, ok := p.src.(*filterOp); !ok {
		t.Fatalf("started scan should not accept pushdown, got %T", p.src)
	}

	// Filters distribute over unions: both children absorb the predicate.
	u := NewUnion(scan(), scan())
	p = From(u).Filter(Cmp(LT, ColName("id"), ConstInt(50)))
	us, ok := p.src.(*unionSource)
	if !ok {
		t.Fatalf("expected union, got %T", p.src)
	}
	for i, c := range us.srcs {
		if cs, ok := c.(*colScan); !ok || len(cs.pushed) != 1 {
			t.Fatalf("union child %d: pushdown missing (%T)", i, c)
		}
	}
}

// TestPushdownSelectivityObserver checks the planner feedback hook fires
// with the observed density.
func TestPushdownSelectivityObserver(t *testing.T) {
	tbl := pushTable(4096, nil) // exactly one segment
	var got []float64
	tbl.SetSelObserver(func(sel float64) { got = append(got, sel) })
	n := From(NewColScan(context.Background(), tbl.Version(), nil, nil)).
		Filter(Cmp(LT, ColName("id"), ConstInt(1024))).Count()
	if n != 1024 {
		t.Fatalf("count = %d", n)
	}
	if len(got) != 1 {
		t.Fatalf("observer fired %d times, want 1", len(got))
	}
	if want := 1024.0 / 4096.0; got[0] != want {
		t.Fatalf("observed density = %v, want %v", got[0], want)
	}
}

// TestPushdownZonePruneSkipsSegments checks float and string zone maps now
// prune whole segments, not just the legacy int path.
func TestPushdownZonePruneSkipsSegments(t *testing.T) {
	tbl := colstore.NewTable(pushSchema)
	rows := make([]types.Row, 0, 2*colstore.SegmentRows)
	for i := 0; i < 2*colstore.SegmentRows; i++ {
		tag := "lo"
		if i >= colstore.SegmentRows {
			tag = "zz-hi"
		}
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(0),
			types.NewFloat(float64(i)),
			types.NewString(tag),
		})
	}
	tbl.AppendRows(rows)
	ctx := context.Background()
	before := pushSegsPruned.Value()
	n := From(NewColScan(ctx, tbl.Version(), nil, nil)).
		Filter(Cmp(GE, ColName("amt"), ConstFloat(float64(colstore.SegmentRows)))).Count()
	if n != colstore.SegmentRows {
		t.Fatalf("float-pruned count = %d", n)
	}
	if pushSegsPruned.Value() != before+1 {
		t.Fatalf("float zone prune did not skip a segment (%d -> %d)", before, pushSegsPruned.Value())
	}
	before = pushSegsPruned.Value()
	n = From(NewColScan(ctx, tbl.Version(), nil, nil)).
		Filter(HasPrefix(ColName("tag"), "zz-")).Count()
	if n != colstore.SegmentRows {
		t.Fatalf("prefix-pruned count = %d", n)
	}
	if pushSegsPruned.Value() != before+1 {
		t.Fatal("string-prefix zone prune did not skip a segment")
	}
}
