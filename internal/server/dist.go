package server

import (
	"context"
	"fmt"

	"htap/internal/core"
	"htap/internal/exec"
	"htap/internal/obs"
	"htap/internal/types"
	"htap/internal/wire"
)

// This file is the server half of distributed execution: the PREPARE vote
// for cross-shard transactions and the FRAGMENT scan for scatter–gather
// queries. Both reuse the session's existing admission, watchdog, and
// trace plumbing — a shard server is just a server.

// txPreparer is the optional vote surface of an engine transaction.
// Engines that validate locks and snapshots as each write arrives are
// implicitly prepared; ones with deferred validation expose it here.
type txPreparer interface{ Prepare() error }

// handlePrepare votes on the session's open transaction — phase one of a
// coordinator-driven cross-shard commit. After MsgOK, the coordinator
// holds this shard's promise that MsgCommit cannot fail validation.
func (c *session) handlePrepare(payload []byte) error {
	if c.tx == nil {
		return c.sendErr(&wire.Error{Code: wire.CodeBadRequest, Msg: "no open transaction"})
	}
	m, err := wire.DecodePrepare(payload)
	if err != nil {
		return c.sendErr(&wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()})
	}
	if m.TraceID != 0 {
		sp := obs.Trace.StartRemote("server.prepare", m.TraceID, m.SpanID)
		defer sp.End()
	}
	if p, ok := c.tx.(txPreparer); ok {
		if err := p.Prepare(); err != nil {
			return c.sendErr(err)
		}
	}
	// Engines without a Prepare surface acquired every lock and passed
	// every snapshot check when the writes were forwarded; reaching this
	// point with the transaction still open IS the yes vote.
	return c.send(wire.MsgOK, nil)
}

// handleFragment runs a scan fragment — a plain remote table scan, or one
// carrying the coordinator's pushed-down work: project the requested
// columns, re-apply the pushed predicates through the local Filter rewrite
// — so they fuse into encoded column scans and prune zone maps exactly as a
// local query's would — run the aggregate or top-k spec if there is one,
// and stream the survivors.
func (c *session) handleFragment(payload []byte) error {
	m, err := wire.DecodeFragment(payload)
	if err != nil {
		return c.sendErr(badRequest("%v", err))
	}
	f, err := c.checkFragment(m)
	if err != nil {
		return c.sendErr(err)
	}
	sp := obs.Trace.StartRemote("server.fragment", m.TraceID, m.SpanID).Attr("table", m.Table)
	return c.runOLAP(m.Deadline, m.Profile, sp, func(ctx context.Context) (olapReply, error) {
		plan := c.srv.cfg.Engine.Query(ctx, m.Table, m.Cols, f.pred)
		for _, e := range f.filters {
			plan = plan.Filter(e)
		}
		if m.Agg != nil {
			groups, err := plan.PartialAgg(m.Agg.GroupBy, f.aggs)
			if err != nil {
				return nil, err
			}
			return func(eos wire.EOS) error { return c.streamPartials(groups, f.aggs, eos) }, nil
		}
		if m.TopK != nil {
			plan = plan.TopK(int(m.TopK.K), f.topK...)
		}
		sch := plan.Schema()
		rows, err := plan.RunCtx(ctx)
		if err != nil {
			return nil, err
		}
		return func(eos wire.EOS) error { return c.stream(sch, rows, eos) }, nil
	})
}

// fragment is a wire.Fragment's pushed-down work in exec form.
type fragment struct {
	pred    *exec.ScanPred
	filters []exec.Expr
	aggs    []exec.Agg     // m.Agg's aggregates
	topK    []exec.SortKey // m.TopK's keys
}

// checkFragment validates every name and bound in m before any of it
// reaches exec, whose binder treats unknown columns as programmer error
// (panic); wire input is not trusted.
func (c *session) checkFragment(m wire.Fragment) (fragment, error) {
	var f fragment
	sch := c.srv.cfg.Engine.Schema(m.Table)
	if sch == nil {
		return f, fmt.Errorf("%w: %s", core.ErrNoTable, m.Table)
	}
	for _, col := range m.Cols {
		if sch.ColIndex(col) < 0 {
			return f, badRequest("no column %q in %s", col, m.Table)
		}
	}
	for _, fp := range m.Preds {
		pp, err := pushedPredOf(fp)
		if err != nil {
			return f, badRequest("%v", err)
		}
		if !inProjection(pp.Col, m.Cols) {
			return f, badRequest("predicate column %q not in projection", pp.Col)
		}
		f.filters = append(f.filters, pp.Expr())
	}
	if m.HasPred {
		f.pred = &exec.ScanPred{Col: m.PredCol, Lo: m.PredLo, Hi: m.PredHi}
	}
	if m.Agg != nil {
		aggs, err := fragAggsOf(m.Agg, m.Cols)
		if err != nil {
			return f, badRequest("%v", err)
		}
		f.aggs = aggs
	}
	if m.TopK != nil {
		if m.TopK.K < 1 || m.TopK.K > maxFragTopK {
			return f, badRequest("top-k bound %d outside [1, %d]", m.TopK.K, maxFragTopK)
		}
		for _, k := range m.TopK.Keys {
			if !inProjection(k.Col, m.Cols) {
				return f, badRequest("top-k column %q not in projection", k.Col)
			}
			f.topK = append(f.topK, exec.SortKey{Col: k.Col, Desc: k.Desc})
		}
	}
	return f, nil
}

// maxFragTopK bounds the per-fragment top-k heap a frame may request;
// wire input is not trusted to size server allocations.
const maxFragTopK = 1 << 20

func inProjection(col string, cols []string) bool {
	for _, c := range cols {
		if c == col {
			return true
		}
	}
	return false
}

// fragAggsOf validates a wire aggregate spec against the fragment's
// projection and rebuilds the exec aggregates. Only bare projected
// columns travel — the coordinator declined anything richer.
func fragAggsOf(spec *wire.FragAgg, cols []string) ([]exec.Agg, error) {
	for _, g := range spec.GroupBy {
		if !inProjection(g, cols) {
			return nil, fmt.Errorf("group-by column %q not in projection", g)
		}
	}
	aggs := make([]exec.Agg, len(spec.Aggs))
	for i, a := range spec.Aggs {
		kind := exec.AggKind(a.Kind)
		if kind < exec.Sum || kind > exec.Max {
			return nil, fmt.Errorf("bad aggregate kind %d", a.Kind)
		}
		aggs[i] = exec.Agg{Kind: kind, Name: fmt.Sprintf("a%d", i)}
		if kind != exec.Count {
			if !inProjection(a.Col, cols) {
				return nil, fmt.Errorf("aggregate column %q not in projection", a.Col)
			}
			aggs[i].Expr = exec.ColName(a.Col)
		}
	}
	return aggs, nil
}

// streamPartials is the pushed-aggregation stream: MsgPartial frames of
// encoded group states, then MsgEOS whose Rows trailer counts groups.
func (c *session) streamPartials(groups []*exec.PartialGroup, aggs []exec.Agg, eos wire.EOS) error {
	eos.Rows = int64(len(groups))
	for len(groups) > 0 {
		n := streamBatch
		if n > len(groups) {
			n = len(groups)
		}
		p := wire.Partial{Groups: make([]types.Row, n)}
		for i, g := range groups[:n] {
			p.Groups[i] = exec.EncodePartial(g, aggs)
		}
		if err := c.send(wire.MsgPartial, p.Encode(nil)); err != nil {
			return err
		}
		groups = groups[n:]
	}
	return c.send(wire.MsgEOS, eos.Encode(nil))
}

// rangeMover is the optional rebalance surface of the served engine —
// implemented by the distributed coordinator, absent on single-shard
// engines.
type rangeMover interface {
	MoveRange(ctx context.Context, lo, hi, dest int) (int64, int64, error)
}

// handleRebalance moves a warehouse range between shards — the admin
// surface of online rebalancing. Only a coordinator engine can serve it.
func (c *session) handleRebalance(payload []byte) error {
	m, err := wire.DecodeRebalance(payload)
	if err != nil {
		return c.sendErr(&wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()})
	}
	mover, ok := c.srv.cfg.Engine.(rangeMover)
	if !ok {
		return c.sendErr(&wire.Error{Code: wire.CodeBadRequest, Msg: "engine is not a distributed coordinator"})
	}
	ctx, cancel := c.reqCtx(m.Deadline)
	defer cancel()
	moved, version, err := mover.MoveRange(ctx, int(m.Lo), int(m.Hi), int(m.Dest))
	if err != nil {
		return c.sendErr(err)
	}
	return c.send(wire.MsgRebalanceInfo, wire.RebalanceInfo{Moved: moved, Version: version}.Encode(nil))
}

// pushedPredOf converts a wire predicate back to its exec form, rejecting
// malformed kinds and operators instead of letting them bind.
func pushedPredOf(fp wire.FragPred) (exec.PushedPred, error) {
	switch fp.Kind {
	case wire.FragPredCmp:
		if fp.Op < uint8(exec.EQ) || fp.Op > uint8(exec.GE) {
			return exec.PushedPred{}, fmt.Errorf("bad comparison op %d", fp.Op)
		}
		return exec.PushedPred{Kind: exec.PushCmp, Col: fp.Col, Op: exec.CmpOp(fp.Op), Datum: fp.Datum}, nil
	case wire.FragPredPrefix:
		return exec.PushedPred{Kind: exec.PushPrefix, Col: fp.Col, Prefix: fp.Prefix}, nil
	case wire.FragPredInSet:
		return exec.PushedPred{Kind: exec.PushInSet, Col: fp.Col, Ints: fp.Ints}, nil
	default:
		return exec.PushedPred{}, fmt.Errorf("bad predicate kind %d", fp.Kind)
	}
}
