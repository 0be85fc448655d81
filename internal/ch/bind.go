package ch

import (
	"context"
	"fmt"
	"time"

	"htap/internal/core"
	"htap/internal/exec"
	"htap/internal/obs"
	"htap/internal/types"
)

// Engine is the engine surface the CH-benCHmark workload needs: a
// transactional entry point for the five TPC-C transactions and analytical
// snapshots for the 22 queries. core.Engine satisfies it, and so does the
// network client's remote engine — the same driver code runs in-process and
// over the wire.
type Engine interface {
	core.Beginner
	Snapshot(ctx context.Context) core.Snapshot
}

// boundQueryer is one snapshot behind the context-free Queryer surface the
// 22 query functions are written against: every scan a query issues —
// including those run mid-body at a phase barrier — reads the same
// snapshot and inherits its context, which is how cancellation reaches
// column scans deep inside a multi-join plan. It also records the first
// engine-level scan failure — a plan carrying an error (exec.FromError), or
// one a scan reported to its plan's error sink while running (a remote
// fragment) — so RunQuery can report it instead of returning rows
// assembled from silently-empty scans.
//
// When the engine runs under a memory governor, every Query call starts a
// fresh per-query accountant — but one CH query builds several plans that
// join into a single tree. boundQueryer adopts the first plan's accountant
// and rebinds later plans to it (finishing their fresh ones immediately),
// so the whole CH query is charged against one budget and cleaned up as
// one unit.
type boundQueryer struct {
	snap  core.Snapshot
	err   error
	qm    *exec.QueryMem
	plans []*exec.Plan   // every scan plan handed out, for their error sinks
	buf   [16]*exec.Plan // backs plans: a CH query plans fewer scans
}

func (b *boundQueryer) Query(table string, cols []string, filter exec.Expr) *exec.Plan {
	p := b.snap.Query(table, cols, filter)
	if qm := p.Mem(); qm != nil {
		if b.qm == nil {
			b.qm = qm
		} else if qm != b.qm {
			qm.Finish()
			p = p.WithMem(b.qm)
		}
	}
	if err := p.Err(); err != nil && b.err == nil {
		b.err = err
	}
	if b.plans == nil {
		b.plans = b.buf[:0]
	}
	b.plans = append(b.plans, p)
	return p
}

// Close releases the snapshot the queries read.
func (b *boundQueryer) Close() { b.snap.Close() }

// BoundQueryer is a Queryer over one snapshot. Close it when its queries
// have run.
type BoundQueryer interface {
	Queryer
	Close()
}

// Bind adapts an Engine to the Queryer interface: a snapshot opened under
// ctx. Queries run through the returned Queryer stop scanning when ctx is
// cancelled; use RunQuery to also surface the context error and scan
// failures.
func Bind(ctx context.Context, e Engine) BoundQueryer {
	return &boundQueryer{snap: e.Snapshot(ctx)}
}

// RunQuery executes CH query n (1..22) against e under ctx, in one
// snapshot. When ctx is cancelled or times out mid-query, the scans abandon
// their remaining segments and RunQuery returns the context error
// (context.Canceled or context.DeadlineExceeded) with nil rows — partial
// results never escape. A scan that fails outright (a remote engine whose
// request errored after retries) is reported the same way: nil rows and the
// scan error, never a result that is indistinguishable from an empty table.
func RunQuery(ctx context.Context, e Engine, n int) ([]types.Row, error) {
	q := Queries()[n]
	if q == nil {
		return nil, fmt.Errorf("ch: no such query Q%d", n)
	}
	start := time.Now()
	bq := &boundQueryer{snap: e.Snapshot(ctx)}
	defer bq.Close()
	rows := q(bq)
	for _, p := range bq.plans {
		if err := p.MemErr(); err != nil && bq.err == nil {
			bq.err = err
		}
	}
	if bq.qm != nil {
		// The executed plan's deferred FinishMem already drained the shared
		// accountant; this defensive Finish covers plans a query built but
		// never ran (Finish is idempotent). A spill failure means the rows
		// were assembled from a partially-spilled operator: suppress them.
		memErr := bq.qm.Err()
		bq.qm.Finish()
		if memErr != nil && bq.err == nil {
			bq.err = memErr
		}
	}
	err := ctx.Err()
	if err == nil {
		err = bq.err
	}
	if err != nil {
		rows = nil
	}
	// Offer every run — success or failure — to the slow-query log.
	// RunQuery is the single chokepoint: local benchmarks call it
	// directly and the server calls it for remote clients, so each query
	// execution is observed exactly once per process.
	observeSlow(ctx, n, start, int64(len(rows)), err)
	return rows, err
}

// observeSlow records one finished CH query in obs.DefaultSlowLog,
// attaching the trace ID and rendered profile when ctx carries them.
func observeSlow(ctx context.Context, n int, start time.Time, rows int64, err error) {
	sq := obs.SlowQuery{
		Class: fmt.Sprintf("q%d", n),
		Start: start,
		Dur:   time.Since(start),
		Rows:  rows,
	}
	if sp := obs.SpanFromContext(ctx); sp != nil {
		sq.TraceID = sp.TraceID()
	}
	if prof := exec.ProfileFrom(ctx); prof != nil {
		sq.Profile = prof.Render()
	}
	if err != nil {
		sq.Err = err.Error()
	}
	obs.DefaultSlowLog.Observe(sq)
}
