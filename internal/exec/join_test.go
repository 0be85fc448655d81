package exec

import (
	"fmt"
	"math"
	"testing"

	"htap/internal/types"
)

// TestHashJoinAllocsIndependentOfRows: the join build holds its input
// batches and indexes them once, so eight times the build rows over the
// same 1 024 keys cost about the same allocations, not one per row.
func TestHashJoinAllocsIndependentOfRows(t *testing.T) {
	schema := []types.Column{{Name: "bk", Type: types.Int}, {Name: "bv", Type: types.Float}}
	b := NewBatch(schema, BatchSize)
	for i := 0; i < BatchSize; i++ {
		b.AppendRow(types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i) * 0.5)})
	}
	probe := []types.Row{{types.NewInt(7)}}
	probeSchema := []types.Column{{Name: "pk", Type: types.Int}}
	allocs := func(rows int) float64 {
		return testing.AllocsPerRun(1, func() {
			build := From(&repeatSource{b: b, n: rows / BatchSize})
			if n := From(NewMemSource(probeSchema, probe)).Join(build, []string{"pk"}, []string{"bk"}).Count(); n != rows/BatchSize {
				t.Fatalf("join rows = %d, want %d", n, rows/BatchSize)
			}
		})
	}
	small, large := allocs(64<<10), allocs(512<<10)
	t.Logf("%v allocations at 64Ki build rows, %v at 512Ki", small, large)
	if large-small > 64 {
		t.Fatalf("join build allocates per row: %v allocations at 64Ki build rows, %v at 512Ki", small, large)
	}
}

// FuzzHashJoinMatchesOracle: inner, semi and anti hash joins at DOP 1 and
// 4 emit exactly the rows of a nested-loop join, each probe row's matches
// in build order. Keys are Int, integral Float (−0 among them) or String,
// drawn from a small domain so they repeat on both sides, and the two
// sides' numeric key kinds may differ. NaN is left out: Datum.Compare
// makes NaN equal to every number, a relation no hash join can honour.
func FuzzHashJoinMatchesOracle(f *testing.F) {
	f.Add(uint8(0), uint16(40), uint8(9), []byte{1, 2, 3, 2, 1, 0})
	f.Add(uint8(4), uint16(2500), uint8(30), []byte{7, 0, 16, 255, 3, 8})
	f.Add(uint8(1), uint16(1100), uint8(64), []byte{8, 24, 8, 9, 40})
	f.Add(uint8(8), uint16(700), uint8(20), []byte("abcabd"))
	f.Fuzz(func(t *testing.T, kinds uint8, nBuild uint16, nProbe uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		kindOf := func(k uint8) types.ColType { return []types.ColType{types.Int, types.Float, types.String}[k%3] }
		lk, rk := kindOf(kinds), kindOf(kinds/3)
		if (lk == types.String) != (rk == types.String) {
			rk = lk
		}
		pos := 0
		key := func(kind types.ColType) types.Datum {
			c := data[pos%len(data)]
			pos++
			v := int64(c%16) - 8
			switch kind {
			case types.Int:
				return types.NewInt(v)
			case types.Float:
				if v == 0 && c&16 != 0 {
					return types.NewFloat(math.Copysign(0, -1))
				}
				return types.NewFloat(float64(v))
			default:
				return types.NewString(fmt.Sprintf("k%d", v))
			}
		}
		rows := func(kind types.ColType, n int) []types.Row {
			out := make([]types.Row, n)
			for i := range out {
				out[i] = types.Row{key(kind), types.NewInt(int64(i))}
			}
			return out
		}
		left, right := rows(lk, int(nProbe)%65), rows(rk, int(nBuild)%2100)
		ls := []types.Column{{Name: "pk", Type: lk}, {Name: "pid", Type: types.Int}}
		rs := []types.Column{{Name: "bk", Type: rk}, {Name: "bid", Type: types.Int}}
		for _, typ := range []JoinType{InnerJoin, LeftSemiJoin, LeftAntiJoin} {
			want := nestedLoopJoin(typ, left, right)
			for _, par := range []int{1, 4} {
				l := From(NewMemSource(ls, left)).Parallel(par)
				r := From(NewMemSource(rs, right)).Parallel(par)
				var got []types.Row
				switch typ {
				case InnerJoin:
					got = l.Join(r, []string{"pk"}, []string{"bk"}).Run()
				case LeftSemiJoin:
					got = l.SemiJoin(r, []string{"pk"}, []string{"bk"}).Run()
				default:
					got = l.AntiJoin(r, []string{"pk"}, []string{"bk"}).Run()
				}
				if !rowsIdentical(got, want) {
					t.Fatalf("join type %d at DOP %d: %d rows, want %d (or rows differ)", typ, par, len(got), len(want))
				}
			}
		}
	})
}

// nestedLoopJoin joins on column 0 of each side, visiting build rows in
// order for every probe row.
func nestedLoopJoin(typ JoinType, left, right []types.Row) []types.Row {
	var out []types.Row
	for _, l := range left {
		matched := false
		for _, r := range right {
			if !l[0].Equal(r[0]) {
				continue
			}
			matched = true
			if typ != InnerJoin {
				break
			}
			out = append(out, append(append(types.Row{}, l...), r...))
		}
		if (typ == LeftSemiJoin && matched) || (typ == LeftAntiJoin && !matched) {
			out = append(out, l)
		}
	}
	return out
}

// rowsIdentical is rowsEqual without numeric coercion: every datum must
// have the same kind and bits.
func rowsIdentical(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for c := range a[i] {
			if a[i][c] != b[i][c] {
				return false
			}
		}
	}
	return true
}
