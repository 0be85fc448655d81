package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"htap/internal/colstore"
	"htap/internal/types"
)

// BenchmarkScanFilter is the selectivity sweep behind the pushdown numbers
// in DESIGN.md (bench/README.md prices the same paths on every run):
// a scan-filter pipeline over a multi-segment column store, projecting a
// dictionary-encoded string column, filtered by an integer range predicate
// whose selectivity sweeps 0.1% / 1% / 10% / 90%. The same plan shape runs
// before and after predicate pushdown (Plan.Filter decides where the
// predicate is evaluated), so ns/op here measures exactly the win of
// evaluating predicates on encoded segments and late-materializing only
// selected rows.
func BenchmarkScanFilter(b *testing.B) {
	tbl := benchTable(128 * 1024)
	ctx := context.Background()
	for _, sel := range []float64{0.1, 1, 10, 90} {
		hi := int64(1_000_000 * sel / 100)
		pred := Cmp(LT, ColName("k"), ConstInt(hi))
		b.Run(fmt.Sprintf("sel=%v%%/strings", sel), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := From(NewColScan(ctx, tbl.Version(), []string{"k", "name"}, nil, nil)).
					Filter(pred).RunCtx(ctx)
				if err != nil {
					b.Fatal(err)
				}
				_ = rows
			}
		})
	}
	// RLE: the filtered column is run-length encoded; a pushed-down
	// predicate costs one comparison per run rather than one per row.
	b.Run("rle=grp<4/count", func(b *testing.B) {
		pred := Cmp(LT, ColName("grp"), ConstInt(4))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := From(NewColScan(ctx, tbl.Version(), []string{"grp", "val"}, nil, nil)).
				Filter(pred).CountCtx(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Dictionary equality: one binary search of the sorted dictionary,
	// then code comparisons; strings are never decoded for dropped rows.
	b.Run("dict-eq/strings", func(b *testing.B) {
		pred := Cmp(EQ, ColName("name"), ConstStr("name-0017"))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := From(NewColScan(ctx, tbl.Version(), []string{"name", "val"}, nil, nil)).
				Filter(pred).RunCtx(ctx)
			if err != nil {
				b.Fatal(err)
			}
			_ = rows
		}
	})
}

// benchTable builds an n-row table spanning many segments: "k" is a
// uniform int in [0, 1e6) (raw/packed), "grp" is run-length friendly,
// "name" is dictionary-encoded with 256 distinct values, "val" is a float.
func benchTable(n int) *colstore.Table {
	schema := types.NewSchema("scanbench", 0,
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "k", Type: types.Int},
		types.Column{Name: "grp", Type: types.Int},
		types.Column{Name: "name", Type: types.String},
		types.Column{Name: "val", Type: types.Float},
	)
	tbl := colstore.NewTable(schema)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		tbl.Append(types.Row{
			types.NewInt(int64(i)),
			types.NewInt(rng.Int63n(1_000_000)),
			types.NewInt(int64(i / 512 % 64)),
			types.NewString(fmt.Sprintf("name-%04d", rng.Intn(256))),
			types.NewFloat(rng.Float64() * 100),
		})
	}
	tbl.Flush()
	return tbl
}
