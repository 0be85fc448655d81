package exec

import (
	"context"
	"testing"

	"htap/internal/colstore"
	"htap/internal/delta"
	"htap/internal/types"
)

// TestColScanBatchShape pins how an unsplit column scan packs batches:
// rows fill BatchSize across morsel and segment boundaries and on into the
// overlay rows, so every batch but the last is full — unpushed, pushed and
// selective, pushed and keeping everything. Downstream operators (and the
// allocation count per query) see one batch per BatchSize rows, never one
// per morsel.
func TestColScanBatchShape(t *testing.T) {
	tbl := newSalesTable(6*colstore.SegmentRows + 500)
	for k := int64(0); k < 6000; k += 7 {
		tbl.DeleteKey(k)
	}
	overlay := &delta.Overlay{
		Rows:   map[int64]types.Row{},
		Masked: map[int64]struct{}{3: {}, 4100: {}, 9000: {}},
	}
	for k := int64(1 << 20); k < 1<<20+1500; k++ {
		overlay.Rows[k] = sale(k, k%7, float64(k), "d")
	}
	for _, tc := range []struct {
		name   string
		filter Expr
	}{
		{"unpushed", nil},
		{"pushed-selective", Cmp(EQ, ColName("region"), ConstInt(3))},
		{"pushed-all", Cmp(GE, ColName("region"), ConstInt(0))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := From(NewColScan(context.Background(), tbl.Version(), nil, nil, overlay))
			if tc.filter != nil {
				p = p.Filter(tc.filter)
			}
			if _, ok := p.src.(*colScan); !ok {
				t.Fatalf("filter not fully pushed: %s", p.Explain())
			}
			var sizes []int
			for b := p.src.Next(); b != nil; b = p.src.Next() {
				sizes = append(sizes, b.N)
			}
			if len(sizes) < 3 {
				t.Fatalf("%d batches: scan too small to pin packing", len(sizes))
			}
			for i, n := range sizes[:len(sizes)-1] {
				if n != BatchSize {
					t.Fatalf("batch %d of %d holds %d rows, want %d (sizes %v)", i, len(sizes), n, BatchSize, sizes)
				}
			}
		})
	}
}
