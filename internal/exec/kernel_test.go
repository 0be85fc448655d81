package exec

import (
	"fmt"
	"math"
	"testing"

	"htap/internal/types"
)

// TestHashBatchMatchesDatumHash: hashBatch hashes every key row exactly as
// types.Row.Hash hashes the same datums, for 1–3 key columns over every
// kind — so grace-join and aggregate spill partitions, which the
// aggregate picks by the first for states and by the second for rows,
// cannot move.
func TestHashBatchMatchesDatumHash(t *testing.T) {
	ints := []int64{0, 1, -1, 42, 1 << 40, math.MaxInt64, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), 2, -3, 0.5, -1.25, 1e-300,
		math.Inf(1), math.Inf(-1), 1e19, -1e19, 1 << 63, math.NaN()}
	strs := []string{"", "a", "abc", "héllo", "日本語", "\x00\xff"}
	kinds := []types.ColType{types.Int, types.Float, types.String}
	const n = 3 * 13
	var shapes [][]types.ColType
	for _, a := range kinds {
		shapes = append(shapes, []types.ColType{a})
		for _, b := range kinds {
			shapes = append(shapes, []types.ColType{a, b})
			for _, c := range kinds {
				shapes = append(shapes, []types.ColType{a, b, c})
			}
		}
	}
	for _, shape := range shapes {
		// A leading payload column keeps key ordinals off zero.
		schema := []types.Column{{Name: "pad", Type: types.Int}}
		keys := make([]int, len(shape))
		for j, k := range shape {
			schema = append(schema, types.Column{Name: fmt.Sprintf("k%d", j), Type: k})
			keys[j] = j + 1
		}
		b := NewBatch(schema, n)
		rows := make([]types.Row, n)
		for i := range rows {
			row := types.Row{types.NewInt(int64(i))}
			for j, k := range shape {
				v := i*(j+2) + j
				switch k {
				case types.Int:
					row = append(row, types.NewInt(ints[v%len(ints)]))
				case types.Float:
					row = append(row, types.NewFloat(floats[v%len(floats)]))
				default:
					row = append(row, types.NewString(strs[v%len(strs)]))
				}
			}
			b.AppendRow(row)
			rows[i] = row[1:]
		}
		seed := []uint64{7}
		hs := hashBatch(b, keys, seed)
		if len(hs) != n+1 || hs[0] != 7 {
			t.Fatalf("%v: hashBatch did not append to its input", shape)
		}
		for i, r := range rows {
			want := r.Hash()
			if got := hs[i+1]; got != want {
				t.Fatalf("%v row %d %v: hashBatch %x, Row.Hash %x", shape, i, r, got, want)
			}
			for d := 0; d <= spillMaxDepth; d++ {
				if partOf(r.Hash(), d) != partOf(hs[i+1], d) {
					t.Fatalf("%v row %d: partition differs at depth %d", shape, i, d)
				}
			}
		}
	}
}

// cycleSource serves its batches in turn, forever, allocating nothing.
type cycleSource struct {
	bs []*Batch
	i  int
}

func (s *cycleSource) Schema() []types.Column { return s.bs[0].Schema }

func (s *cycleSource) Next() *Batch {
	b := s.bs[s.i%len(s.bs)]
	s.i++
	return b
}

// intBatch is a BatchSize-row batch of schema [k Int, v Float] with k
// from key(i).
func intBatch(k, v string, key func(i int) int64) *Batch {
	b := NewBatch([]types.Column{{Name: k, Type: types.Int}, {Name: v, Type: types.Float}}, BatchSize)
	for i := 0; i < BatchSize; i++ {
		b.AppendRow(types.Row{types.NewInt(key(i)), types.NewFloat(float64(i) / 4)})
	}
	return b
}

// TestProbeAllocsPerBatch: a probe batch that matches nothing allocates
// nothing, and a 1:1 foreign-key probe batch shares the probe batch's
// columns, allocating its build-side columns and a constant header.
// Semi joins whose every row matched share the columns too.
func TestProbeAllocsPerBatch(t *testing.T) {
	build := func() *Plan {
		b := NewBatch([]types.Column{{Name: "bk", Type: types.Int}, {Name: "bv", Type: types.Float}, {Name: "bs", Type: types.String}}, BatchSize)
		for i := 0; i < BatchSize; i++ {
			b.AppendRow(types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i)), types.NewString(fmt.Sprint(i))})
		}
		return From(&repeatSource{b: b, n: 1})
	}
	const buildCols, header = 3, 3 // header: the Batch, its Cols, one Col slab
	fk := intBatch("pk", "pv", func(i int) int64 { return int64((i * 7) % BatchSize) })
	miss := intBatch("pk", "pv", func(i int) int64 { return int64(BatchSize + i) })

	src := From(&cycleSource{bs: []*Batch{fk}}).Join(build(), []string{"pk"}, []string{"bk"}).src
	out := src.Next()
	if out.N != BatchSize || out.Cols[0] != fk.Cols[0] || out.Cols[1] != fk.Cols[1] {
		t.Fatalf("1:1 probe output (%d rows) does not share the probe columns", out.N)
	}
	for i := 0; i < out.N; i++ {
		if out.Cols[2].Ints[i] != fk.Cols[0].Ints[i] || out.Cols[3].Floats[i] != float64(fk.Cols[0].Ints[i]) {
			t.Fatalf("row %d matched the wrong build row", i)
		}
	}
	hit := testing.AllocsPerRun(100, func() { src.Next() })
	if hit > buildCols+header {
		t.Fatalf("1:1 probe batch: %v allocations, want at most %d", hit, buildCols+header)
	}

	// Each Next now skips 64 batches that match nothing before the one
	// that does: they may not add a single allocation.
	cycle := []*Batch{fk}
	for i := 0; i < 64; i++ {
		cycle = append([]*Batch{miss}, cycle...)
	}
	src = From(&cycleSource{bs: cycle}).Join(build(), []string{"pk"}, []string{"bk"}).src
	if out := src.Next(); out.N != BatchSize {
		t.Fatalf("probe output %d rows, want %d", out.N, BatchSize)
	}
	if skip := testing.AllocsPerRun(100, func() { src.Next() }); skip != hit {
		t.Fatalf("64 unmatched probe batches cost %v allocations, want 0", skip-hit)
	}

	semi := From(&cycleSource{bs: []*Batch{fk}}).SemiJoin(build(), []string{"pk"}, []string{"bk"}).src
	if out := semi.Next(); out.N != BatchSize || out.Cols[0] != fk.Cols[0] {
		t.Fatal("all-matched semi join output does not share the probe columns")
	}
}

// TestFilterAllocsPerBatch: the filter gathers the passing rows with one
// allocation per column plus a constant header, and hands a batch whose
// every row passes on as it is.
func TestFilterAllocsPerBatch(t *testing.T) {
	schema := []types.Column{{Name: "k", Type: types.Int}, {Name: "f", Type: types.Float},
		{Name: "s", Type: types.String}, {Name: "q", Type: types.Int}}
	b := NewBatch(schema, BatchSize)
	for i := 0; i < BatchSize; i++ {
		b.AppendRow(types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i) / 8),
			types.NewString(fmt.Sprint(i % 10)), types.NewInt(int64(i % 3))})
	}
	half := From(&cycleSource{bs: []*Batch{b}}).Filter(Cmp(LT, ColName("q"), ConstInt(2))).src
	out := half.Next()
	if want := BatchSize - BatchSize/3; out.N != want {
		t.Fatalf("filter kept %d rows, want %d", out.N, want)
	}
	for i := 0; i < out.N; i++ {
		if k := out.Cols[0].Ints[i]; out.Cols[3].Ints[i] != k%3 || out.Cols[2].Strs[i] != fmt.Sprint(k%10) {
			t.Fatalf("row %d: columns disagree", i)
		}
	}
	const header = 3 // the Batch, its Cols, one Col slab
	if n := testing.AllocsPerRun(100, func() { half.Next() }); n > float64(len(schema)+header) {
		t.Fatalf("filtered batch: %v allocations, want at most %d", n, len(schema)+header)
	}
	all := From(&cycleSource{bs: []*Batch{b}}).Filter(Cmp(GE, ColName("k"), ConstInt(0))).src
	if out := all.Next(); out != b {
		t.Fatal("a batch whose every row passes was copied")
	}
}
