package colstore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"htap/internal/types"
)

var testSchema = types.NewSchema("t", 0,
	types.Column{Name: "id", Type: types.Int},
	types.Column{Name: "grp", Type: types.Int},
	types.Column{Name: "amt", Type: types.Float},
	types.Column{Name: "tag", Type: types.String},
)

func mkRow(id, grp int64, amt float64, tag string) types.Row {
	return types.Row{types.NewInt(id), types.NewInt(grp), types.NewFloat(amt), types.NewString(tag)}
}

func TestEncodeIntsRoundTrip(t *testing.T) {
	cases := map[string][]int64{
		"empty":     {},
		"runs":      {1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3},
		"narrow":    {100, 101, 102, 100, 105, 103},
		"wide":      {0, 1 << 40, -(1 << 40), 7, -9},
		"single":    {42},
		"extremes":  {-1 << 63, 1<<63 - 1, 0},
		"monotonic": {1, 2, 3, 4, 5, 6, 7, 8},
	}
	for name, vals := range cases {
		v := EncodeInts(vals)
		if v.Len() != len(vals) {
			t.Fatalf("%s: len %d want %d", name, v.Len(), len(vals))
		}
		iv, ok := v.(IntVector)
		if !ok {
			t.Fatalf("%s: not an IntVector", name)
		}
		for i, want := range vals {
			if got := iv.Int(i); got != want {
				t.Fatalf("%s[%d] (%v) = %d, want %d", name, i, v.Encoding(), got, want)
			}
			if d := v.Datum(i); d.Int() != want {
				t.Fatalf("%s[%d] datum = %v", name, i, d)
			}
		}
		if len(vals) > 2 {
			got := iv.AppendInts(nil, 1, len(vals)-2)
			for i, want := range vals[1 : len(vals)-1] {
				if got[i] != want {
					t.Fatalf("%s AppendInts[%d] (%v) = %d, want %d", name, i, v.Encoding(), got[i], want)
				}
			}
		}
	}
}

func TestEncodingSelection(t *testing.T) {
	runs := make([]int64, 1024)
	for i := range runs {
		runs[i] = int64(i / 128)
	}
	if e := EncodeInts(runs).Encoding(); e != EncIntRLE {
		t.Fatalf("runs encoded as %v, want RLE", e)
	}
	narrow := make([]int64, 1024)
	for i := range narrow {
		narrow[i] = 1000 + int64(i%7)*3
	}
	if e := EncodeInts(narrow).Encoding(); e != EncIntPacked {
		t.Fatalf("narrow encoded as %v, want packed", e)
	}
	wide := make([]int64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range wide {
		wide[i] = rng.Int63() - rng.Int63()
	}
	if e := EncodeInts(wide).Encoding(); e != EncIntRaw {
		t.Fatalf("wide encoded as %v, want raw", e)
	}
}

func TestCompressionShrinks(t *testing.T) {
	vals := make([]int64, 8192)
	for i := range vals {
		vals[i] = int64(i % 4)
	}
	enc := EncodeInts(vals)
	if enc.Bytes() >= 8*len(vals)/4 {
		t.Fatalf("RLE size %d not < 25%% of raw %d", enc.Bytes(), 8*len(vals))
	}
}

func TestQuickIntEncodingRoundTrip(t *testing.T) {
	f := func(vals []int64, narrow bool) bool {
		if narrow {
			for i := range vals {
				vals[i] %= 512
			}
		}
		v := EncodeInts(vals).(IntVector)
		for i, want := range vals {
			if v.Int(i) != want {
				return false
			}
		}
		got := v.AppendInts(nil, 0, len(vals))
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStringDictSortedCodes(t *testing.T) {
	vals := []string{"pear", "apple", "pear", "fig", "apple"}
	v := EncodeStrings(vals).(StrVector)
	for i, want := range vals {
		if v.Str(i) != want {
			t.Fatalf("[%d] = %q, want %q", i, v.Str(i), want)
		}
	}
	d := v.Dict()
	for i := 1; i < len(d); i++ {
		if d[i] <= d[i-1] {
			t.Fatalf("dictionary not sorted: %v", d)
		}
	}
	// Code order must equal value order.
	ca, _ := v.CodeOf("apple")
	cp, _ := v.CodeOf("pear")
	if ca >= cp {
		t.Fatalf("codes not value-ordered: apple=%d pear=%d", ca, cp)
	}
	if _, ok := v.CodeOf("zzz"); ok {
		t.Fatal("CodeOf invented a code")
	}
}

func TestFloatRoundTrip(t *testing.T) {
	vals := []float64{1.5, -2.25, 0, 1e9}
	v := EncodeFloats(vals).(FloatVector)
	for i, want := range vals {
		if v.Float(i) != want {
			t.Fatalf("[%d] = %v", i, v.Float(i))
		}
	}
	got := v.AppendFloats(nil, 1, 2)
	if len(got) != 2 || got[0] != -2.25 || got[1] != 0 {
		t.Fatalf("AppendFloats = %v", got)
	}
}

func TestAppendRowsSealsSegments(t *testing.T) {
	tbl := NewTable(testSchema)
	n := SegmentRows + 100
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = mkRow(int64(i), int64(i%10), float64(i), "x")
	}
	tbl.AppendRows(rows)
	segs := tbl.Version().Segs
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	if segs[0].N != SegmentRows || segs[1].N != 100 {
		t.Fatalf("segment sizes %d,%d", segs[0].N, segs[1].N)
	}
	if tbl.LiveRows() != n {
		t.Fatalf("live rows = %d, want %d", tbl.LiveRows(), n)
	}
}

func TestZoneMaps(t *testing.T) {
	tbl := NewTable(testSchema)
	rows := make([]types.Row, 100)
	for i := range rows {
		rows[i] = mkRow(int64(i), int64(i+1000), float64(i), "t")
	}
	tbl.AppendRows(rows)
	z := tbl.Version().Segs[0].Zones[1]
	if z.MinInt != 1000 || z.MaxInt != 1099 {
		t.Fatalf("zone map = [%d,%d]", z.MinInt, z.MaxInt)
	}
	if !z.PruneInt(2000, 3000) {
		t.Fatal("should prune disjoint range")
	}
	if z.PruneInt(1050, 1060) {
		t.Fatal("must not prune overlapping range")
	}
}

func TestUpsertAndDelete(t *testing.T) {
	tbl := NewTable(testSchema)
	tbl.AppendRows([]types.Row{mkRow(1, 1, 1, "a"), mkRow(2, 2, 2, "b")})
	// Upsert key 1 with a new image.
	tbl.AppendRows([]types.Row{mkRow(1, 9, 9, "z")})
	if tbl.LiveRows() != 2 {
		t.Fatalf("live rows = %d, want 2 after upsert", tbl.LiveRows())
	}
	r, ok := tbl.GetKey(1)
	if !ok || r[1].Int() != 9 {
		t.Fatalf("GetKey(1) = %v, %v", r, ok)
	}
	if !tbl.DeleteKey(2) {
		t.Fatal("DeleteKey(2) = false")
	}
	if tbl.DeleteKey(2) {
		t.Fatal("double delete reported true")
	}
	if _, ok := tbl.GetKey(2); ok {
		t.Fatal("deleted key still readable")
	}
	if tbl.LiveRows() != 1 {
		t.Fatalf("live rows = %d, want 1", tbl.LiveRows())
	}
}

func TestAppliedWatermark(t *testing.T) {
	tbl := NewTable(testSchema)
	tbl.SetApplied(5)
	tbl.SetApplied(3) // must not regress
	if tbl.Applied() != 5 {
		t.Fatalf("applied = %d", tbl.Applied())
	}
	e := tbl.Edit()
	e.Reset()
	e.Publish()
	if tbl.Applied() != 0 || len(tbl.Version().Segs) != 0 {
		t.Fatal("Reset incomplete")
	}
	if tbl.Stats().Rebuilds != 1 {
		t.Fatal("rebuild not counted")
	}
}

func TestSegmentRowMaterialize(t *testing.T) {
	tbl := NewTable(testSchema)
	tbl.AppendRows([]types.Row{mkRow(7, 8, 2.5, "hi")})
	seg := tbl.Version().Segs[0]
	r := seg.Row(0)
	if r[0].Int() != 7 || r[1].Int() != 8 || r[2].Float() != 2.5 || r[3].Str() != "hi" {
		t.Fatalf("Row = %v", r)
	}
}

func TestRLERuns(t *testing.T) {
	vals := []int64{5, 5, 5, 6, 6, 7}
	v := EncodeInts(vals)
	rle, ok := v.(*intRLE)
	if !ok {
		t.Skip("not RLE at this size") // encoding choice may differ
	}
	var total int64
	rle.Runs(func(val int64, start, end int) bool {
		total += val * int64(end-start)
		return true
	})
	if total != 5*3+6*2+7 {
		t.Fatalf("run sum = %d", total)
	}
}

func TestTableStats(t *testing.T) {
	tbl := NewTable(testSchema)
	tbl.AppendRows([]types.Row{mkRow(1, 1, 1, "a")})
	tbl.NoteMerge()
	st := tbl.Stats()
	if st.Segments != 1 || st.LiveRows != 1 || st.Merges != 1 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAppendRowsUpsertsBufferedLoads is the regression gate for a
// supersession bug: AppendRows resolves upserts through the key locator,
// which indexes only sealed segments. A row still sitting in the load
// buffer was invisible to the upsert, and when a later scan flushed the
// buffer, the stale image tombstoned the newer merged one — scans went
// permanently stale while key lookups stayed fresh.
func TestAppendRowsUpsertsBufferedLoads(t *testing.T) {
	tbl := NewTable(testSchema)
	tbl.Append(mkRow(1, 1, -10, "old"))
	tbl.Append(mkRow(2, 1, 5, "keep"))
	// Merge a newer image of key 1 while key 1 is still buffered.
	tbl.AppendRows([]types.Row{mkRow(1, 1, 18.01, "new")})

	if r, ok := tbl.GetKey(1); !ok || r[2].Float() != 18.01 {
		t.Fatalf("GetKey(1) = %v, %v; want the merged image", r, ok)
	}
	seen := map[int64]float64{}
	v := tbl.Version()
	for si, seg := range v.Segs {
		for i := 0; i < seg.N; i++ {
			if v.Dels[si].Get(i) {
				continue
			}
			r := seg.Row(i)
			if _, dup := seen[r[0].Int()]; dup {
				t.Fatalf("key %d visible twice in scan", r[0].Int())
			}
			seen[r[0].Int()] = r[2].Float()
		}
	}
	if seen[1] != 18.01 {
		t.Fatalf("scan shows key 1 = %v, want merged image 18.01", seen[1])
	}
	if seen[2] != 5 {
		t.Fatalf("scan shows key 2 = %v, want 5", seen[2])
	}
	if tbl.LiveRows() != 2 {
		t.Fatalf("LiveRows = %d, want 2", tbl.LiveRows())
	}
}
