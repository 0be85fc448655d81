package server

import (
	"context"
	"fmt"
	"slices"

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
// columns, hand the pushed conjuncts to Query as its filter — so they fuse
// into encoded column scans and prune zone maps exactly as a local query's
// would — run the aggregate or top-k spec if there is one, and stream the
// survivors.
func (c *session) handleFragment(payload []byte) error {
	m, err := wire.DecodeFragment(payload)
	if err != nil {
		return c.sendErr(badRequest("%v", err))
	}
	filter, aggs, err := c.checkFragment(m)
	if err != nil {
		return c.sendErr(err)
	}
	sp := obs.Trace.StartRemote("server.fragment", m.TraceID, m.SpanID).Attr("table", m.Table)
	return c.runOLAP(m.Deadline, m.Profile, sp, func(ctx context.Context) (olapReply, error) {
		plan := c.srv.cfg.Engine.Query(ctx, m.Table, m.Cols, filter)
		if m.Agg != nil {
			groups, err := plan.PartialAgg(m.Agg.GroupBy, aggs)
			if err != nil {
				return nil, err
			}
			return func(eos wire.EOS) error { return c.streamPartials(groups, aggs, eos) }, nil
		}
		if m.TopK != nil {
			plan = plan.TopK(int(m.TopK.K), m.TopK.Keys...)
		}
		sch := plan.Schema()
		rows, err := plan.RunCtx(ctx)
		if err != nil {
			return nil, err
		}
		return func(eos wire.EOS) error { return c.stream(sch, rows, eos) }, nil
	})
}

// checkFragment validates every name and bound in m before any of it
// reaches exec, whose binder treats unknown columns as programmer error
// (panic); wire input is not trusted. It returns m's pushed work in exec
// form: the conjunction of its predicates (nil when there are none) and
// its aggregates.
func (c *session) checkFragment(m wire.Fragment) (filter exec.Expr, aggs []exec.Agg, err error) {
	sch := c.srv.cfg.Engine.Schema(m.Table)
	if sch == nil {
		return nil, nil, fmt.Errorf("%w: %s", core.ErrNoTable, m.Table)
	}
	for _, col := range m.Cols {
		if sch.ColIndex(col) < 0 {
			return nil, nil, badRequest("no column %q in %s", col, m.Table)
		}
	}
	var conj []exec.Expr
	for _, p := range m.Preds {
		if !slices.Contains(m.Cols, p.Col) {
			return nil, nil, badRequest("predicate column %q not in projection", p.Col)
		}
		conj = append(conj, p.Expr())
	}
	if len(conj) > 0 {
		filter = exec.And(conj...)
	}
	if m.Agg != nil {
		if aggs, err = fragAggsOf(m.Agg, m.Cols); err != nil {
			return nil, nil, badRequest("%v", err)
		}
	}
	if m.TopK != nil {
		if m.TopK.K < 1 || m.TopK.K > maxFragTopK {
			return nil, nil, badRequest("top-k bound %d outside [1, %d]", m.TopK.K, maxFragTopK)
		}
		for _, k := range m.TopK.Keys {
			if !slices.Contains(m.Cols, k.Col) {
				return nil, nil, badRequest("top-k column %q not in projection", k.Col)
			}
		}
	}
	return filter, aggs, nil
}

// maxFragTopK bounds the per-fragment top-k heap a frame may request;
// wire input is not trusted to size server allocations.
const maxFragTopK = 1 << 20

// fragAggsOf validates a wire aggregate spec against the fragment's
// projection and rebuilds the exec aggregates. Only bare projected
// columns travel — the coordinator declined anything richer.
func fragAggsOf(spec *wire.FragAgg, cols []string) ([]exec.Agg, error) {
	for _, g := range spec.GroupBy {
		if !slices.Contains(cols, g) {
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
			if !slices.Contains(cols, a.Col) {
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
