package ch

import (
	"context"
	"errors"
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

func (s *countingSnapshot) Query(table string, cols []string, filter exec.Expr) *exec.Plan {
	s.queries++
	return s.Snapshot.Query(table, cols, filter)
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

// sinkFailEngine's scans report a failure through their plan's error
// sink, as a remote fragment whose fetch failed does.
type sinkFailEngine struct{ core.Engine }

type sinkFailSnapshot struct{ core.Snapshot }

var errSinkScan = errors.New("scan failed while running")

func (e sinkFailEngine) Snapshot(ctx context.Context) core.Snapshot {
	return sinkFailSnapshot{e.Engine.Snapshot(ctx)}
}

func (s sinkFailSnapshot) Query(table string, cols []string, filter exec.Expr) *exec.Plan {
	p := s.Snapshot.Query(table, cols, filter)
	p.ErrSink()(errSinkScan)
	return p
}

// A scan failure reported to a plan's error sink fails the CH query:
// the rows the query assembled from the failed scan are not returned.
func TestRunQueryReportsSinkErrors(t *testing.T) {
	inner := newEngineA()
	defer inner.Close()
	loadSmall(t, inner, 1)
	rows, err := RunQuery(context.Background(), sinkFailEngine{inner}, 1)
	if !errors.Is(err, errSinkScan) || rows != nil {
		t.Fatalf("RunQuery = (%d rows, %v), want (nil, %v)", len(rows), err, errSinkScan)
	}
}
