package ch

import (
	"context"
	"testing"

	"htap/internal/core"
	"htap/internal/exec"
)

// countingEngine counts the snapshots RunQuery opens and the scans each of
// them plans.
type countingEngine struct {
	core.Engine
	snaps []*countingSnapshot
}

type countingSnapshot struct {
	core.Snapshot
	queries int
}

func (e *countingEngine) Snapshot(ctx context.Context) core.Snapshot {
	s := &countingSnapshot{Snapshot: e.Engine.Snapshot(ctx)}
	e.snaps = append(e.snaps, s)
	return s
}

func (s *countingSnapshot) Query(table string, cols []string, pred *exec.ScanPred) *exec.Plan {
	s.queries++
	return s.Snapshot.Query(table, cols, pred)
}

// Every scan of a CH query — the ones run mid-body at a phase barrier
// included — reads the one snapshot RunQuery opens for it.
func TestRunQueryOpensOneSnapshot(t *testing.T) {
	inner := newEngineA()
	defer inner.Close()
	loadSmall(t, inner, 1)
	for n := 1; n <= 22; n++ {
		e := &countingEngine{Engine: inner}
		if _, err := RunQuery(context.Background(), e, n); err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		if len(e.snaps) != 1 {
			t.Fatalf("Q%d opened %d snapshots, want 1", n, len(e.snaps))
		}
		if e.snaps[0].queries == 0 {
			t.Fatalf("Q%d planned no scan on its snapshot", n)
		}
	}
}
