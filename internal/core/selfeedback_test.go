package core

import (
	"context"
	"testing"

	"htap/internal/disk"
	"htap/internal/exec"
	"htap/internal/planner"
)

// feedbackCost shrinks the index-descend charge so a genuinely selective
// key range can beat the columnar scan: at the cold 5% heuristic the row
// path costs 1 + 4000*0.05*8 = 1601 against a columnar 72, and after
// observing a ~0.05% selection density it costs ~17. The flip between
// those two regimes is what the test pins.
func feedbackCost() planner.CostParams {
	p := planner.DefaultCostParams()
	p.RowSeek = 1
	return p
}

func newFeedbackEngine(t *testing.T, off bool) *EngineC {
	t.Helper()
	e := NewEngineC(ConfigC{
		Schemas:        testSchemas(),
		Shards:         2,
		Disk:           disk.MemConfig(),
		Cost:           feedbackCost(),
		SelFeedbackOff: off,
	})
	t.Cleanup(e.Close)
	for i := int64(1); i <= 4000; i++ {
		if err := e.Load("acct", acct(i, i%7, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	e.LoadColumns("acct", []string{"id", "region", "bal"})
	e.Sync()
	return e
}

// observeSelective runs pushed-down scans matching one row of 4000,
// feeding near-zero selection densities into the engine's EWMA. The probe
// must match SOMETHING: a predicate outside every zone map prunes every
// segment, and a pruned segment is never scanned, so it observes nothing.
func observeSelective(t *testing.T, e *EngineC) {
	t.Helper()
	for i := 0; i < 3; i++ {
		n := e.Query(context.Background(), "acct", nil, nil).
			Filter(exec.Cmp(exec.EQ, exec.ColName("id"), exec.ConstInt(5))).
			Count()
		if n != 1 {
			t.Fatalf("probe scan matched %d rows, want 1", n)
		}
	}
	if s, ok := e.PlannerFeedback().Selectivity("acct"); !ok || s > 0.01 {
		t.Fatalf("observed selectivity = %v, %v; want near-zero recorded", s, ok)
	}
}

// TestSelFeedbackFlipsAccessPath is the regression gate for default-on
// selectivity feedback: the same key-range query routes to the columnar
// path under the cold 5% heuristic, and to the row index once the EWMA has
// seen how selective scans on the table actually are. With SelFeedbackOff
// the observation must change nothing.
func TestSelFeedbackFlipsAccessPath(t *testing.T) {
	ctx := context.Background()
	// The filter, stated once, is both the cost model's KeyRange input and
	// the exact row selection on either path.
	point := func(e *EngineC) int {
		return e.Query(ctx, "acct", nil, exec.Cmp(exec.EQ, exec.ColName("id"), exec.ConstInt(5))).Count()
	}

	e := newFeedbackEngine(t, false)
	_, coldFallbacks := e.PushdownStats()
	if got := point(e); got != 1 {
		t.Fatalf("cold key-range scan saw %d rows, want 1", got)
	}
	if _, f := e.PushdownStats(); f != coldFallbacks {
		t.Fatal("cold key-range scan fell back to the row store; cost setup is wrong")
	}

	observeSelective(t, e)
	_, before := e.PushdownStats()
	if got := point(e); got != 1 {
		t.Fatalf("fed key-range scan saw %d rows, want 1", got)
	}
	if _, after := e.PushdownStats(); after != before+1 {
		t.Fatal("observed selectivity did not flip the key-range scan to the row path")
	}

	// Control: with consumption disabled, the same observations leave the
	// decision on the columnar path.
	off := newFeedbackEngine(t, true)
	observeSelective(t, off)
	_, offBefore := off.PushdownStats()
	if got := point(off); got != 1 {
		t.Fatalf("SelFeedbackOff key-range scan saw %d rows, want 1", got)
	}
	if _, offAfter := off.PushdownStats(); offAfter != offBefore {
		t.Fatal("SelFeedbackOff engine changed paths; feedback leaked into the cost model")
	}
}
