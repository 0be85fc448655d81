package colstore

// Ablation benchmarks for the column store's design choices: encoding
// selection, zone-map pruning, and dictionary encoding. Run with
//
//	go test -bench Ablation ./internal/colstore

import (
	"fmt"
	"math/rand"
	"testing"

	"htap/internal/types"
)

// sumVector is the common scan kernel: sum every value of an int vector.
func sumVector(v IntVector, buf []int64) int64 {
	buf = v.AppendInts(buf[:0], 0, v.Len())
	var s int64
	for _, x := range buf {
		s += x
	}
	return s
}

// BenchmarkAblationEncodings compares scan speed and size across the three
// int encodings on data shaped for each.
func BenchmarkAblationEncodings(b *testing.B) {
	const n = 256 * 1024
	rng := rand.New(rand.NewSource(1))
	shapes := map[string][]int64{
		"raw-wide":      make([]int64, n),
		"packed-narrow": make([]int64, n),
		"rle-runs":      make([]int64, n),
	}
	for i := 0; i < n; i++ {
		shapes["raw-wide"][i] = rng.Int63() - rng.Int63()
		shapes["packed-narrow"][i] = int64(rng.Intn(1024))
		shapes["rle-runs"][i] = int64(i / 4096)
	}
	for name, vals := range shapes {
		v := EncodeInts(vals).(IntVector)
		b.Run(fmt.Sprintf("%s/%v", name, v.(Vector).Encoding()), func(b *testing.B) {
			buf := make([]int64, 0, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sumVector(v, buf)
			}
			b.ReportMetric(float64(v.(Vector).Bytes())/float64(8*n), "size-ratio")
		})
	}
}

// BenchmarkAblationZoneMaps measures a selective scan with pruning against
// the same scan with zone maps ignored.
func BenchmarkAblationZoneMaps(b *testing.B) {
	schema := types.NewSchema("t", 0,
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "v", Type: types.Int},
	)
	tbl := NewTable(schema)
	const n = 128 * 1024
	rows := make([]types.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 97))})
	}
	tbl.AppendRows(rows)
	segs := tbl.Version().Segs
	lo, hi := int64(1000), int64(1999) // hits a handful of segments

	scan := func(prune bool) int64 {
		var sum int64
		for _, seg := range segs {
			if prune && seg.Zones[0].PruneInt(lo, hi) {
				continue
			}
			keys := seg.Cols[0].(IntVector)
			vals := seg.Cols[1].(IntVector)
			for i := 0; i < seg.N; i++ {
				if k := keys.Int(i); k >= lo && k <= hi {
					sum += vals.Int(i)
				}
			}
		}
		return sum
	}
	want := scan(true)
	if got := scan(false); got != want {
		b.Fatalf("pruned scan disagrees: %d vs %d", got, want)
	}
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scan(true)
		}
	})
	b.Run("unpruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scan(false)
		}
	})
}

// BenchmarkAblationDictStrings compares predicate evaluation on
// dictionary codes against raw string comparison.
func BenchmarkAblationDictStrings(b *testing.B) {
	const n = 128 * 1024
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("customer-state-%02d", i%40)
	}
	v := EncodeStrings(vals).(StrVector)
	target := "customer-state-07"
	b.Run("dict-codes", func(b *testing.B) {
		code, ok := v.CodeOf(target)
		if !ok {
			b.Fatal("target missing")
		}
		for i := 0; i < b.N; i++ {
			hits := 0
			for r := 0; r < n; r++ {
				if v.Code(r) == code {
					hits++
				}
			}
		}
	})
	b.Run("raw-strings", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hits := 0
			for r := 0; r < n; r++ {
				if v.Str(r) == target {
					hits++
				}
			}
		}
	})
}
