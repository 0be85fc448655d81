package colstore

import (
	"fmt"
	"math/rand"
	"testing"

	"htap/internal/bitmap"
	"htap/internal/types"
)

// naiveFilter reproduces FilterVec's contract via per-row Datum comparison,
// the reference the pushed-down evaluation must match bit for bit.
func naiveFilter(v Vector, op PredOp, d types.Datum, sel *bitmap.Bitmap) {
	for i := 0; i < v.Len(); i++ {
		if sel.Get(i) && !opMatch(op, v.Datum(i).Compare(d)) {
			sel.Clear(i)
		}
	}
}

func fullSel(n int) *bitmap.Bitmap {
	s := bitmap.New(n)
	s.Fill(n)
	return s
}

func selEqual(t *testing.T, got, want *bitmap.Bitmap, n int, msg string) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Fatalf("%s: count %d want %d", msg, got.Count(), want.Count())
	}
	for i := 0; i < n; i++ {
		if got.Get(i) != want.Get(i) {
			t.Fatalf("%s: bit %d = %v, want %v", msg, i, got.Get(i), want.Get(i))
		}
	}
}

var allOps = []PredOp{PredEQ, PredNE, PredLT, PredLE, PredGT, PredGE}

// TestFilterVecInt covers every int encoding (raw, RLE, packed) against
// comparands on, between, below, and above the stored values — including
// exact run-boundary values for RLE.
func TestFilterVecInt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	encodings := map[string][]int64{
		"raw":    make([]int64, 300),
		"rle":    make([]int64, 300),
		"packed": make([]int64, 300),
	}
	for i := range encodings["raw"] {
		encodings["raw"][i] = rng.Int63n(1 << 40) // wide spread stays raw
	}
	for i := range encodings["rle"] {
		encodings["rle"][i] = int64(i / 50) // six long runs
	}
	for i := range encodings["packed"] {
		encodings["packed"][i] = rng.Int63n(100)
	}
	comparands := func(vals []int64) []int64 {
		cs := []int64{vals[0], vals[len(vals)/2], vals[len(vals)-1], -1, 1 << 62}
		// RLE run-boundary values: first and last of a middle run.
		cs = append(cs, vals[49], vals[50], vals[250])
		return cs
	}
	for name, vals := range encodings {
		v := EncodeInts(vals)
		for _, op := range allOps {
			for _, c := range comparands(vals) {
				got := fullSel(v.Len())
				want := fullSel(v.Len())
				FilterVec(v, op, types.NewInt(c), got)
				naiveFilter(v, op, types.NewInt(c), want)
				selEqual(t, got, want, v.Len(), fmt.Sprintf("%s %s %d", name, op, c))
				// Float comparand against the int vector: Datum.Compare
				// widens; the encoded path must match.
				fc := types.NewFloat(float64(c) + 0.5)
				got2 := fullSel(v.Len())
				want2 := fullSel(v.Len())
				FilterVec(v, op, fc, got2)
				naiveFilter(v, op, fc, want2)
				selEqual(t, got2, want2, v.Len(), fmt.Sprintf("%s %s %v(float)", name, op, fc))
			}
		}
	}
}

// TestFilterVecPreservesCleared checks already-cleared bits (deleted rows)
// never reappear.
func TestFilterVecPreservesCleared(t *testing.T) {
	vals := []int64{5, 5, 5, 7, 7, 9}
	v := EncodeInts(vals)
	sel := fullSel(len(vals))
	sel.Clear(0)
	sel.Clear(3)
	FilterVec(v, PredGE, types.NewInt(5), sel) // keeps everything
	if sel.Get(0) || sel.Get(3) {
		t.Fatal("cleared bits resurrected")
	}
	if sel.Count() != 4 {
		t.Fatalf("count = %d, want 4", sel.Count())
	}
}

func TestFilterVecFloat(t *testing.T) {
	vals := []float64{1.5, -2.25, 0, 3.75, 3.75, 100}
	v := EncodeFloats(vals)
	for _, op := range allOps {
		for _, c := range []float64{-10, -2.25, 0, 3.75, 3.8, 1000} {
			got := fullSel(len(vals))
			want := fullSel(len(vals))
			FilterVec(v, op, types.NewFloat(c), got)
			naiveFilter(v, op, types.NewFloat(c), want)
			selEqual(t, got, want, len(vals), fmt.Sprintf("float %s %v", op, c))
		}
	}
}

// TestFilterVecStrDict sweeps comparands that are present, absent-between,
// below-min, and above-max, for every operator: the code-range reduction
// must agree with per-row string comparison in all four regimes.
func TestFilterVecStrDict(t *testing.T) {
	vals := []string{"cherry", "apple", "banana", "apple", "fig", "banana", "cherry"}
	v := EncodeStrings(vals)
	for _, op := range allOps {
		for _, c := range []string{"apple", "banana", "blueberry", "aaa", "zzz", "", "fig"} {
			got := fullSel(len(vals))
			want := fullSel(len(vals))
			FilterVec(v, op, types.NewString(c), got)
			naiveFilter(v, op, types.NewString(c), want)
			selEqual(t, got, want, len(vals), fmt.Sprintf("str %s %q", op, c))
		}
	}
}

func TestFilterStrPrefix(t *testing.T) {
	vals := []string{"ab", "abc", "abd", "b", "ba", "", "ab", "ac", "aab"}
	sv := EncodeStrings(vals).(StrVector)
	for _, prefix := range []string{"", "a", "ab", "abc", "abz", "b", "z"} {
		sel := fullSel(len(vals))
		FilterStrPrefix(sv, prefix, sel)
		for i, s := range vals {
			want := len(s) >= len(prefix) && s[:len(prefix)] == prefix
			if sel.Get(i) != want {
				t.Fatalf("prefix %q row %d (%q) = %v, want %v", prefix, i, s, sel.Get(i), want)
			}
		}
	}
}

func TestFilterIntSet(t *testing.T) {
	for name, vals := range map[string][]int64{
		"rle": {0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3},
		"raw": {9, 1 << 41, 3, 9, 5, 7, 3},
	} {
		v := EncodeInts(vals).(IntVector)
		set := map[int64]struct{}{1: {}, 3: {}, 9: {}}
		sel := fullSel(len(vals))
		FilterIntSet(v, set, sel)
		for i, val := range vals {
			_, want := set[val]
			if sel.Get(i) != want {
				t.Fatalf("%s: row %d (%d) = %v, want %v", name, i, val, sel.Get(i), want)
			}
		}
	}
}

// TestGather checks every gather against Datum materialization, with
// ascending positions that straddle RLE run boundaries.
func TestGather(t *testing.T) {
	ints := make([]int64, 200)
	for i := range ints {
		ints[i] = int64(i / 40) // RLE
	}
	pos := []int{0, 39, 40, 41, 79, 80, 120, 199}
	iv := EncodeInts(ints).(IntVector)
	for i, got := range GatherInts(iv, pos, nil) {
		if want := ints[pos[i]]; got != want {
			t.Fatalf("GatherInts rle[%d] = %d, want %d", i, got, want)
		}
	}
	raw := []int64{1 << 40, 2, 3, 4, 5}
	rv := EncodeInts(raw).(IntVector)
	for i, got := range GatherInts(rv, []int{0, 2, 4}, nil) {
		if want := raw[[]int{0, 2, 4}[i]]; got != want {
			t.Fatalf("GatherInts raw[%d] = %d, want %d", i, got, want)
		}
	}
	floats := []float64{0.5, 1.5, 2.5, 3.5}
	fv := EncodeFloats(floats).(FloatVector)
	for i, got := range GatherFloats(fv, []int{1, 3}, nil) {
		if want := floats[[]int{1, 3}[i]]; got != want {
			t.Fatalf("GatherFloats[%d] = %v, want %v", i, got, want)
		}
	}
	strs := []string{"x", "y", "z", "y"}
	sv := EncodeStrings(strs).(StrVector)
	for i, got := range GatherStrs(sv, []int{0, 3}, nil) {
		if want := strs[[]int{0, 3}[i]]; got != want {
			t.Fatalf("GatherStrs[%d] = %q, want %q", i, got, want)
		}
	}
}

// A published version never changes: a delete publishes the next version
// with a clone of the one bitmap it touches, and shares every other.
func TestVersionIsImmutable(t *testing.T) {
	tbl := NewTable(testSchema)
	rows := make([]types.Row, SegmentRows+10)
	for i := range rows {
		rows[i] = mkRow(int64(i), int64(i%3), float64(i), "t")
	}
	tbl.AppendRows(rows)
	v1 := tbl.Version()
	if !tbl.DeleteKey(4) {
		t.Fatal("DeleteKey(4) = false")
	}
	v2 := tbl.Version()
	if v1 == v2 || v1.Dels[0].Get(4) || v1.LiveRows() != len(rows) {
		t.Fatal("a delete changed the published version")
	}
	if !v2.Dels[0].Get(4) || v2.LiveRows() != len(rows)-1 {
		t.Fatal("the next version is missing the delete")
	}
	if v2.Dels[0] == v1.Dels[0] || v2.Dels[1] != v1.Dels[1] {
		t.Fatal("want a clone of the touched bitmap only")
	}
}

func TestZoneMapPruneFloatStr(t *testing.T) {
	tbl := NewTable(testSchema)
	tbl.Append(mkRow(1, 1, 2.5, "banana"))
	tbl.Append(mkRow(2, 2, 7.5, "cherry"))
	tbl.Flush()
	z := &tbl.Version().Segs[0].Zones
	amt, tag := &(*z)[2], &(*z)[3]
	if !amt.PruneFloat(8, 100) || !amt.PruneFloat(-5, 2.4) {
		t.Fatal("PruneFloat should prune disjoint ranges")
	}
	if amt.PruneFloat(2.5, 2.5) || amt.PruneFloat(7.5, 100) {
		t.Fatal("PruneFloat pruned an intersecting range")
	}
	if !tag.PruneStr("", "az", true) || !tag.PruneStr("d", "", false) {
		t.Fatal("PruneStr should prune disjoint ranges")
	}
	if tag.PruneStr("banana", "banana", true) || tag.PruneStr("c", "", false) {
		t.Fatal("PruneStr pruned an intersecting range")
	}
	if !tag.PruneStrPrefix("a") || !tag.PruneStrPrefix("d") {
		t.Fatal("PruneStrPrefix should prune out-of-range prefixes")
	}
	if tag.PruneStrPrefix("ban") || tag.PruneStrPrefix("cherry") {
		t.Fatal("PruneStrPrefix pruned a matching prefix")
	}
}

func TestPrefixSucc(t *testing.T) {
	cases := map[string]string{"a": "b", "ab": "ac", "a\xff": "b", "name-": "name."}
	for p, want := range cases {
		got, ok := PrefixSucc(p)
		if !ok || got != want {
			t.Fatalf("PrefixSucc(%q) = %q,%v want %q", p, got, ok, want)
		}
	}
	for _, p := range []string{"", "\xff", "\xff\xff"} {
		if _, ok := PrefixSucc(p); ok {
			t.Fatalf("PrefixSucc(%q) should not exist", p)
		}
	}
}
