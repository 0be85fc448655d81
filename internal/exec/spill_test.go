package exec

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"htap/internal/disk"
	"htap/internal/types"
)

// govRows builds a deterministic mixed-type input large enough to blow
// small budgets: duplicate-heavy keys, exact-bit-sensitive floats, strings.
func govRows(n int) []types.Row {
	items := []string{"apple", "banana", "cherry", "durian"}
	rows := make([]types.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 97)),
			types.NewFloat(float64(i%1000) * 0.1),
			types.NewString(items[i%len(items)]),
		})
	}
	return rows
}

// sameRowsBits asserts a and b are identical down to float bit patterns.
func sameRowsBits(t *testing.T, a, b []types.Row) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("row count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("row %d arity: %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			da, db := a[i][j], b[i][j]
			if da.Kind != db.Kind {
				t.Fatalf("row %d col %d kind: %v vs %v", i, j, da.Kind, db.Kind)
			}
			switch da.Kind {
			case types.Float:
				if math.Float64bits(da.Float()) != math.Float64bits(db.Float()) {
					t.Fatalf("row %d col %d float bits: %v vs %v", i, j, da.Float(), db.Float())
				}
			default:
				if !da.Equal(db) {
					t.Fatalf("row %d col %d: %v vs %v", i, j, da, db)
				}
			}
		}
	}
}

func testGov(queryLimit int64) *Governor {
	g := NewGovernor(0, nil)
	g.SetQueryLimit(queryLimit)
	return g
}

func TestQueryMemHierarchy(t *testing.T) {
	g := NewGovernor(1000, nil)
	g.Class(DefaultClass, 500)
	q := g.StartQuery()
	q.SetLimit(100)
	if q.Over() {
		t.Fatal("over before any charge")
	}
	q.Grow(90)
	if q.Over() {
		t.Fatal("over under every limit")
	}
	q.Grow(20) // query limit (100) exceeded
	if !q.Over() {
		t.Fatal("query limit not enforced")
	}
	q.Shrink(20)
	q2 := g.Class(DefaultClass, 0).StartQuery()
	q2.Grow(450) // class total 540 > 500
	if !q.Over() || !q2.Over() {
		t.Fatal("class limit not enforced")
	}
	q2.Finish()
	if q.Over() {
		t.Fatal("finish did not release class charge")
	}
	if g.Used() != 90 {
		t.Fatalf("node used = %d, want 90", g.Used())
	}
	q.Finish()
	if g.Used() != 0 {
		t.Fatalf("node used after finish = %d", g.Used())
	}
	if g.MaxQueryPeak() < 110 {
		t.Fatalf("peak = %d, want >= 110", g.MaxQueryPeak())
	}
}

func TestSpillCodecRoundTrip(t *testing.T) {
	g := testGov(0)
	q := g.StartQuery()
	defer q.Finish()
	in := []types.Row{
		{types.NewInt(-5), types.NewFloat(0.1), types.NewString("x")},
		{types.NewInt(1 << 40), types.NewFloat(math.Inf(1)), types.NewString("")},
		{types.NewInt(0), types.NewFloat(-0.0), types.NewString("日本語")},
	}
	w := newSpillWriter(q, "codec")
	for _, r := range in {
		if err := w.add(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	c := newSpillCursor(q, w.name)
	var out []types.Row
	for {
		r, ok, err := c.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, r)
	}
	sameRowsBits(t, in, out)
	if g.SpillBytes() == 0 || g.SpillReadBytes() == 0 {
		t.Fatal("spill byte counters not advanced")
	}
}

// govPlans are the three materializing shapes, built fresh per run so each
// execution owns its operators.
var govPlans = map[string]func(qm *QueryMem) *Plan{
	"sort": func(qm *QueryMem) *Plan {
		return From(NewMemSource(salesSchema.Cols, govRows(20000))).WithMem(qm).
			Sort(SortKey{Col: "region"}, SortKey{Col: "item", Desc: true})
	},
	"join": func(qm *QueryMem) *Plan {
		left := govRows(8000)
		right := make([]types.Row, 0, 4000)
		for i := 0; i < 4000; i++ {
			right = append(right, types.Row{types.NewInt(int64(i % 97)), types.NewFloat(float64(i) * 0.25)})
		}
		rs := []types.Column{{Name: "r_key", Type: types.Int}, {Name: "r_val", Type: types.Float}}
		return From(NewMemSource(salesSchema.Cols, left)).WithMem(qm).
			Join(From(NewMemSource(rs, right)), []string{"region"}, []string{"r_key"})
	},
	"agg": func(qm *QueryMem) *Plan {
		rows := make([]types.Row, 0, 30000)
		for i := 0; i < 30000; i++ {
			rows = append(rows, sale(int64(i), int64(i%997), float64(i%773)*0.3, "itm"))
		}
		return From(NewMemSource(salesSchema.Cols, rows)).WithMem(qm).
			Agg([]string{"region"},
				Agg{Sum, ColName("amount"), "total"},
				Agg{Count, nil, "n"},
				Agg{Avg, ColName("amount"), "avg"},
				Agg{Min, ColName("amount"), "lo"},
				Agg{Max, ColName("id"), "hi"},
			)
	},
	"semijoin": func(qm *QueryMem) *Plan {
		right := make([]types.Row, 0, 8000)
		for i := 0; i < 8000; i++ {
			right = append(right, types.Row{types.NewInt(int64((i * 2) % 97)), types.NewFloat(float64(i))})
		}
		rs := []types.Column{{Name: "r_key", Type: types.Int}, {Name: "r_val", Type: types.Float}}
		return From(NewMemSource(salesSchema.Cols, govRows(6000))).WithMem(qm).
			SemiJoin(From(NewMemSource(rs, right)), []string{"region"}, []string{"r_key"})
	},
	"antijoin": func(qm *QueryMem) *Plan {
		right := make([]types.Row, 0, 8000)
		for i := 0; i < 8000; i++ {
			right = append(right, types.Row{types.NewInt(int64((i * 2) % 97)), types.NewFloat(float64(i))})
		}
		rs := []types.Column{{Name: "r_key", Type: types.Int}, {Name: "r_val", Type: types.Float}}
		return From(NewMemSource(salesSchema.Cols, govRows(6000))).WithMem(qm).
			AntiJoin(From(NewMemSource(rs, right)), []string{"region"}, []string{"r_key"})
	},
}

// TestSpillEquivalence is the core degradation property: a tiny budget
// must change only where state lives, never a single output bit.
func TestSpillEquivalence(t *testing.T) {
	for name, build := range govPlans {
		t.Run(name, func(t *testing.T) {
			want, err := build(nil).RunCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			g := testGov(16 << 10)
			got, err := build(g.StartQuery()).RunCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			sameRowsBits(t, want, got)
			if g.Spills() == 0 || g.SpillBytes() == 0 {
				t.Fatalf("budget did not force a spill (spills=%d bytes=%d)", g.Spills(), g.SpillBytes())
			}
			if g.LiveSpillFiles() != 0 {
				t.Fatalf("leaked %d spill files", g.LiveSpillFiles())
			}
		})
	}
}

// TestSpillSkewHitsDepthCap drives every row through one partition: the
// recursive re-partitioning cannot split it, so the ladder bottoms out at
// an in-memory join of the partition, counted as an over-budget event —
// results still exact.
func TestSpillSkewHitsDepthCap(t *testing.T) {
	mk := func(n int) []types.Row {
		rows := make([]types.Row, 0, n)
		for i := 0; i < n; i++ {
			rows = append(rows, types.Row{types.NewInt(7), types.NewFloat(float64(i))})
		}
		return rows
	}
	ls := []types.Column{{Name: "l_key", Type: types.Int}, {Name: "l_val", Type: types.Float}}
	rs := []types.Column{{Name: "r_key", Type: types.Int}, {Name: "r_val", Type: types.Float}}
	build := func(qm *QueryMem) *Plan {
		return From(NewMemSource(ls, mk(200))).WithMem(qm).
			Join(From(NewMemSource(rs, mk(200))), []string{"l_key"}, []string{"r_key"})
	}
	want, err := build(nil).RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	g := testGov(2 << 10)
	got, err := build(g.StartQuery()).RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameRowsBits(t, want, got)
	if g.OverBudget() == 0 {
		t.Fatal("depth cap never recorded an over-budget event")
	}
	if g.LiveSpillFiles() != 0 {
		t.Fatalf("leaked %d spill files", g.LiveSpillFiles())
	}
}

// TestSpillWriteFaultFailsCleanly injects certain write failure on every
// spill file: each governed shape must return the error with nil rows,
// leak no files, and leave the governor reusable.
func TestSpillWriteFaultFailsCleanly(t *testing.T) {
	for name, build := range govPlans {
		t.Run(name, func(t *testing.T) {
			g := testGov(16 << 10)
			g.Device().SetFaultPlan(&disk.FaultPlan{
				Seed:  11,
				Rules: []disk.FaultRule{{WriteErrRate: 1}},
			})
			rows, err := build(g.StartQuery()).RunCtx(context.Background())
			if err == nil {
				t.Fatal("spill write failure did not fail the query")
			}
			if rows != nil {
				t.Fatalf("partial results escaped: %d rows", len(rows))
			}
			if g.LiveSpillFiles() != 0 {
				t.Fatalf("leaked %d spill files", g.LiveSpillFiles())
			}
			if g.Used() != 0 {
				t.Fatalf("charges not released: %d", g.Used())
			}
			// The engine is not poisoned: disarm faults and rerun on the
			// same governor.
			g.Device().SetFaultPlan(nil)
			want, err := build(nil).RunCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got, err := build(g.StartQuery()).RunCtx(context.Background())
			if err != nil {
				t.Fatalf("governor poisoned after fault: %v", err)
			}
			sameRowsBits(t, want, got)
		})
	}
}

// TestSpillCrashFailsCleanly crashes the spill device mid-spill
// (crash-after-N): the query fails, nothing leaks, and after Revive the
// governor serves queries again.
func TestSpillCrashFailsCleanly(t *testing.T) {
	g := testGov(16 << 10)
	g.Device().SetFaultPlan(&disk.FaultPlan{Seed: 3, CrashAfterWrites: 3})
	rows, err := govPlans["sort"](g.StartQuery()).RunCtx(context.Background())
	if err == nil {
		t.Fatal("device crash did not fail the query")
	}
	if rows != nil {
		t.Fatalf("partial results escaped: %d rows", len(rows))
	}
	if g.LiveSpillFiles() != 0 {
		t.Fatalf("leaked %d spill files", g.LiveSpillFiles())
	}
	g.Device().Revive()
	want, err := govPlans["sort"](nil).RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := govPlans["sort"](g.StartQuery()).RunCtx(context.Background())
	if err != nil {
		t.Fatalf("governor unusable after revive: %v", err)
	}
	sameRowsBits(t, want, got)
}

// cancelAfterSource cancels a context after serving `after` batches, then
// keeps serving; the join build must stop pulling almost immediately.
type cancelAfterSource struct {
	src    Source
	after  int
	served int
	cancel context.CancelFunc
}

func (c *cancelAfterSource) Schema() []types.Column { return c.src.Schema() }

func (c *cancelAfterSource) Next() *Batch {
	if c.served == c.after {
		c.cancel()
	}
	c.served++
	return c.src.Next()
}

// TestJoinBuildCancellation: a cancelled query must abandon the hash-table
// build promptly instead of materializing the whole right side first.
func TestJoinBuildCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// 100k build rows = ~98 batches; cancel after 2.
	right := make([]types.Row, 0, 100000)
	for i := 0; i < 100000; i++ {
		right = append(right, types.Row{types.NewInt(int64(i))})
	}
	rs := []types.Column{{Name: "r_key", Type: types.Int}}
	cs := &cancelAfterSource{src: NewMemSource(rs, right), after: 2, cancel: cancel}
	o := newHashJoin(InnerJoin, NewMemSource(salesSchema.Cols, govRows(100)), cs,
		[]string{"region"}, []string{"r_key"}, 1, ctx, nil)
	if b := o.Next(); b != nil {
		t.Fatalf("cancelled join produced a batch of %d rows", b.N)
	}
	if cs.served > 4 {
		t.Fatalf("build pulled %d batches after cancellation", cs.served)
	}
}

// TestSpillBytesPinned pins the bytes of every spill file that a forced
// spill writes at DOP 1 under a 16 KB budget: the external sort's runs,
// the grace join's partitions and outputs, and the hash aggregate's state
// and row partitions. A change to how operators hold rows must not change
// a byte of what they spill.
func TestSpillBytesPinned(t *testing.T) {
	want := map[string]string{
		"sort": "6095b3df277d2996565080a2c2fc2666ec0c930b1ba2d2d7e8d56579bdda533d",
		"join": "8f069251a2d47d30057a07187bcfa5d64ed335f4c4549fc518d7f5d2b8f6fe91",
		"agg":  "3be8e396b57958b3f58dca0deb71276a67e36d1bdfa4dedd7dcb69672a748391",
	}
	defer func() { spillTap = nil }()
	for _, name := range []string{"sort", "join", "agg"} {
		h := sha256.New()
		var files, bytes int
		seen := map[string]bool{}
		spillTap = func(file string, frame []byte) {
			if !seen[file] {
				seen[file] = true
				files++
			}
			bytes += len(frame)
			h.Write([]byte(file))
			h.Write(frame)
		}
		g := testGov(16 << 10)
		if _, err := govPlans[name](g.StartQuery()).RunCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s: spill digest = %s (%d files, %d bytes), want %s", name, got, files, bytes, want[name])
		}
	}
}
