package exec

import (
	"context"
	"fmt"
	"math"
	"testing"

	"htap/internal/types"
)

// repeatSource serves one prebuilt batch n times and allocates nothing.
type repeatSource struct {
	b *Batch
	n int
}

func (s *repeatSource) Schema() []types.Column { return s.b.Schema }

func (s *repeatSource) Next() *Batch {
	if s.n == 0 {
		return nil
	}
	s.n--
	return s.b
}

// TestHashAggAllocsIndependentOfRows: the hash aggregate allocates per
// group, never per row, so eight times the rows over the same 1 024
// groups costs the same allocations.
func TestHashAggAllocsIndependentOfRows(t *testing.T) {
	schema := []types.Column{{Name: "k", Type: types.Int}, {Name: "q", Type: types.Int}, {Name: "v", Type: types.Float}}
	b := NewBatch(schema, BatchSize)
	for i := 0; i < BatchSize; i++ {
		b.AppendRow(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 10)), types.NewFloat(float64(i%1000) * 0.01)})
	}
	allocs := func(rows int) float64 {
		return testing.AllocsPerRun(1, func() {
			From(&repeatSource{b: b, n: rows / BatchSize}).Agg([]string{"k"},
				Agg{Sum, ColName("v"), "s"},
				Agg{Sum, ColName("q"), "sq"},
				Agg{Avg, ColName("v"), "a"},
				Agg{Count, nil, "n"},
				Agg{Min, ColName("v"), "lo"},
				Agg{Max, ColName("q"), "hi"},
			).Run()
		})
	}
	small, large := allocs(64<<10), allocs(512<<10)
	if math.Abs(large-small) > 8 {
		t.Fatalf("allocations grow with rows: %v at 64Ki rows, %v at 512Ki", small, large)
	}
}

// pushUnion is a union that takes aggregate pushdown: each member runs a
// partial aggregation, the second one's partials round-tripping through
// the wire encoding.
type pushUnion struct {
	Source
	members []Source
}

func (u *pushUnion) PushAgg(groupBy []string, aggs []Agg, par int, ctx context.Context) []PartialSource {
	parts := make([]PartialSource, len(u.members))
	for i, m := range u.members {
		parts[i] = NewPartialAgg(m, groupBy, aggs, par, ctx)
		if i%2 == 1 {
			parts[i] = &wirePartial{PartialSource: parts[i], nKey: len(groupBy), aggs: aggs}
		}
	}
	return parts
}

type wirePartial struct {
	PartialSource
	nKey int
	aggs []Agg
}

func (w *wirePartial) NextPartial() *PartialGroup {
	pg := w.PartialSource.NextPartial()
	if pg == nil {
		return nil
	}
	d, err := DecodePartial(EncodePartial(pg, w.aggs), w.nKey, w.aggs)
	if err != nil {
		panic(err)
	}
	return d
}

// TestAggEdgeValuesMatchOracle runs SUM and AVG over a float column that
// mixes ±1e308, 1e-300, subnormals, -0, ±Inf, NaN and two-decimal amounts
// — window promotion and re-basing — grouped and global, at DOP 1 and 4,
// in memory and spilling under a 16 KB budget, and pushed down as
// partials combined from two members. Every result must equal the
// big.Float oracle's rounding bit for bit.
func TestAggEdgeValuesMatchOracle(t *testing.T) {
	const groups, n = 200, 8000
	edge := []float64{1e308, -1e308, 1e-300, 5e-324, math.Copysign(0, -1), 1e308,
		2.2250738585072014e-308, -1e-300, 3 * 5e-324, -1e308}
	amount := func(i int) float64 { return float64((i*7919)%200000-100000) / 100 }
	// A group's class (k % 8) picks its addends: 0–3 the finite edge
	// values among amounts, 4 amounts only, 5 adds +Inf, 6 NaN, 7 both
	// infinities.
	value := func(i, k int) float64 {
		round := i / groups
		switch c := k % 8; {
		case c < 4 && round%3 == 0:
			return edge[(round/3+c)%len(edge)]
		case c == 5 && round == 7:
			return math.Inf(1)
		case c == 6 && round == 11:
			return math.NaN()
		case c == 7 && round == 3:
			return math.Inf(1)
		case c == 7 && round == 9:
			return math.Inf(-1)
		}
		return amount(i)
	}
	schema := []types.Column{{Name: "k", Type: types.Int}, {Name: "v", Type: types.Float}, {Name: "fin", Type: types.Float}}
	rows := make([]types.Row, n)
	sums := make([]bigSum, groups)
	counts := make([]int64, groups)
	var finSum, allSum bigSum
	for i := range rows {
		k := i % groups
		v := value(i, k)
		fin := v
		if math.IsInf(v, 0) || math.IsNaN(v) {
			fin = amount(i)
		}
		rows[i] = types.Row{types.NewInt(int64(k)), types.NewFloat(v), types.NewFloat(fin)}
		sums[k].add(v)
		counts[k]++
		finSum.add(fin)
		allSum.add(v)
	}
	promoted := 0
	for k := 0; k < groups; k++ {
		var s exactSum
		for i := k; i < n; i += groups {
			s.add(value(i, k))
		}
		if s.reg != nil {
			promoted++
		}
	}
	if promoted == 0 {
		t.Fatal("no group's sum left its window: the edge values test nothing")
	}

	grouped := []Agg{{Sum, ColName("v"), "s"}, {Avg, ColName("v"), "a"}, {Count, nil, "n"}}
	global := []Agg{{Sum, ColName("fin"), "s"}, {Avg, ColName("fin"), "a"}, {Sum, ColName("v"), "sv"}}
	sameBits := func(t *testing.T, what string, got types.Datum, want float64) {
		t.Helper()
		if math.Float64bits(got.Float()) != math.Float64bits(want) {
			t.Fatalf("%s = %v, oracle %v", what, got.Float(), want)
		}
	}
	check := func(t *testing.T, mk func(groupBy []string, aggs []Agg) *Plan) {
		out, err := mk([]string{"k"}, grouped).RunCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != groups {
			t.Fatalf("%d groups, want %d", len(out), groups)
		}
		for _, r := range out {
			k := r[0].Int()
			sameBits(t, "SUM", r[1], sums[k].round())
			sameBits(t, "AVG", r[2], sums[k].round()/float64(counts[k]))
		}
		out, err = mk(nil, global).RunCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "global SUM", out[0][0], finSum.round())
		sameBits(t, "global AVG", out[0][1], finSum.round()/n)
		sameBits(t, "global SUM with specials", out[0][2], allSum.round())
	}
	for _, dop := range []int{1, 4} {
		t.Run(fmt.Sprintf("memory/dop%d", dop), func(t *testing.T) {
			check(t, func(groupBy []string, aggs []Agg) *Plan {
				return From(NewMemSource(schema, rows)).Parallel(dop).Agg(groupBy, aggs...)
			})
		})
		t.Run(fmt.Sprintf("spill/dop%d", dop), func(t *testing.T) {
			g := testGov(16 << 10)
			check(t, func(groupBy []string, aggs []Agg) *Plan {
				return From(NewMemSource(schema, rows)).Parallel(dop).WithMem(g.StartQuery()).Agg(groupBy, aggs...)
			})
			if g.Spills() == 0 {
				t.Fatal("the 16 KB budget did not force a spill")
			}
			if g.LiveSpillFiles() != 0 {
				t.Fatalf("leaked %d spill files", g.LiveSpillFiles())
			}
		})
		t.Run(fmt.Sprintf("partial/dop%d", dop), func(t *testing.T) {
			check(t, func(groupBy []string, aggs []Agg) *Plan {
				u := &pushUnion{Source: NewMemSource(schema, rows), members: []Source{
					NewMemSource(schema, rows[:n/2]), NewMemSource(schema, rows[n/2:]),
				}}
				p := From(u).Parallel(dop).Agg(groupBy, aggs...)
				if _, ok := p.src.(*combineAggOp); !ok {
					t.Fatalf("aggregation was not pushed down: %T", p.src)
				}
				return p
			})
		})
	}
}

// TestExactSumRebaseAndPromote pins the window's moves: a smaller addend
// re-bases it downward, a much larger one promotes it to the register,
// and windows at different offsets merge by re-basing.
func TestExactSumRebaseAndPromote(t *testing.T) {
	var s exactSum
	s.add(1)
	off := s.off
	s.add(1e-25)
	if s.reg != nil || s.off >= off {
		t.Fatalf("1e-25 after 1: off %d → %d, promoted %v", off, s.off, s.reg != nil)
	}
	var o exactSum
	o.add(3)
	s.merge(&o)
	if s.reg != nil {
		t.Fatal("merging windows at different offsets promoted")
	}
	s.add(1e300)
	if s.reg == nil {
		t.Fatal("1e300 beside 1e-25 stayed in the window")
	}
	if got, want := s.round(), 1e300; got != want {
		t.Fatalf("round = %v, want %v", got, want)
	}
	var w bigSum
	for _, v := range []float64{1, 1e-25, 3, 1e300} {
		w.add(v)
	}
	sameSum(t, "rebase then promote", &s, &w)
}

// FuzzHashAggMatchesOracle: a group-by over one or two key columns, each
// Int, integral Float (−0 among them) or String, drawn from a small
// domain so keys repeat, emits at DOP 1 and 4 exactly the groups of a
// map oracle: in first-seen order, each keyed by its first-seen datum,
// with its count, integer sum, minimum and maximum.
func FuzzHashAggMatchesOracle(f *testing.F) {
	f.Add(uint8(0), uint16(40), []byte{1, 2, 3, 2, 1, 0})
	f.Add(uint8(4), uint16(2500), []byte{7, 0, 16, 255, 3, 8})
	f.Add(uint8(10), uint16(3100), []byte{8, 24, 8, 9, 40, 16, 0})
	f.Add(uint8(17), uint16(700), []byte("abcabd"))
	f.Fuzz(func(t *testing.T, shape uint8, nRows uint16, data []byte) {
		if len(data) == 0 {
			return
		}
		kinds := []types.ColType{types.Int, types.Float, types.String}
		keyKinds := []types.ColType{kinds[shape%3]}
		if shape/3%2 == 1 {
			keyKinds = append(keyKinds, kinds[shape/6%3])
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
		var schema []types.Column
		var groupBy []string
		for j, k := range keyKinds {
			name := fmt.Sprintf("k%d", j)
			schema = append(schema, types.Column{Name: name, Type: k})
			groupBy = append(groupBy, name)
		}
		schema = append(schema, types.Column{Name: "v", Type: types.Int})
		n := int(nRows) % 4000
		rows := make([]types.Row, n)
		for i := range rows {
			for _, k := range keyKinds {
				rows[i] = append(rows[i], key(k))
			}
			rows[i] = append(rows[i], types.NewInt(int64(i%97)-40))
		}

		// The oracle keys groups by value: −0 and 0 are one key.
		var want []types.Row
		at := map[string]int{}
		for _, r := range rows {
			id := ""
			for _, d := range r[:len(keyKinds)] {
				if d.Kind == types.Float {
					id += fmt.Sprintf("f%v|", d.Float()+0)
				} else {
					id += d.String() + "|"
				}
			}
			v := r[len(keyKinds)]
			g, ok := at[id]
			if !ok {
				g = len(want)
				at[id] = g
				want = append(want, append(append(types.Row{}, r[:len(keyKinds)]...), types.NewInt(0), types.NewInt(0), v, v))
			}
			w := want[g][len(keyKinds):]
			w[0].I++
			w[1].I += v.I
			if v.I < w[2].I {
				w[2] = v
			}
			if v.I > w[3].I {
				w[3] = v
			}
		}
		aggs := []Agg{{Count, nil, "n"}, {Sum, ColName("v"), "s"}, {Min, ColName("v"), "lo"}, {Max, ColName("v"), "hi"}}
		for _, par := range []int{1, 4} {
			got := From(NewMemSource(schema, rows)).Parallel(par).Agg(groupBy, aggs...).Run()
			if !rowsIdentical(got, want) {
				t.Fatalf("keys %v at DOP %d: %d groups, want %d (or groups differ)", keyKinds, par, len(got), len(want))
			}
		}
	})
}
