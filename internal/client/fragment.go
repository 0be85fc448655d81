package client

import (
	"context"

	"htap/internal/exec"
	"htap/internal/obs"
	"htap/internal/types"
	"htap/internal/wire"
)

// FragmentSource is a lazy remote scan: an exec.Source that does not touch
// the network until the plan actually pulls from it. The window between
// construction and first pull is what makes distributed pushdown work —
// Plan.Filter's rewrite runs in that window and offers this source its
// bound conjuncts (exec.PredPusher), which travel to the server inside the
// fragment frame instead of filtering rows after they crossed the wire.
//
// A fetch failure is reported to the OnError sink (the distributed
// coordinator routes it into the query's error path) and the source reads
// as exhausted; it never fabricates rows.
type FragmentSource struct {
	r      *Remote
	ctx    context.Context
	m      wire.Fragment
	schema []types.Column
	onErr  func(error)

	started bool
	inner   exec.Source
}

// Fragment builds a lazy source over table on this endpoint: a plain
// table scan until the plan pushes work into it. schema is the projected
// result schema (the caller knows it from the catalog; the wire carries
// only the column names).
func (r *Remote) Fragment(ctx context.Context, table string, schema []types.Column) *FragmentSource {
	cols := make([]string, len(schema))
	for i, c := range schema {
		cols[i] = c.Name
	}
	m := wire.Fragment{Deadline: deadlineOf(ctx), Table: table, Cols: cols, Profile: exec.ProfileFrom(ctx) != nil}
	return &FragmentSource{r: r, ctx: ctx, m: m, schema: schema}
}

// OnError registers the sink that receives a fetch failure. Without a sink
// the failure still poisons the source (no rows), but only the sink can
// turn it into a query-level error.
func (s *FragmentSource) OnError(fn func(error)) { s.onErr = fn }

// Schema implements exec.Source without fetching.
func (s *FragmentSource) Schema() []types.Column { return s.schema }

// PushPred implements exec.PredPusher: an accepted conjunct travels in
// the frame and is evaluated on the server, inside the shard engine's own
// scan pushdown machinery. Once the fragment has been sent nothing more
// can be pushed.
func (s *FragmentSource) PushPred(p exec.PushedPred) bool {
	if s.started {
		return false
	}
	s.m.Preds = append(s.m.Preds, p)
	return true
}

// fetch runs the fragment once, materializing the shard's (filtered,
// projected) rows.
func (s *FragmentSource) fetch() {
	if s.started {
		return
	}
	s.started = true
	rows, err := s.r.stream(s.ctx, wire.MsgFragment, func(traceID, spanID uint64) []byte {
		s.m.TraceID, s.m.SpanID = traceID, spanID
		return s.m.Encode(nil)
	})
	if err != nil {
		if s.onErr != nil {
			s.onErr(err)
		}
		return
	}
	s.inner = exec.NewMemSource(s.schema, rows)
}

// Next implements exec.Source; the first call triggers the remote fetch.
func (s *FragmentSource) Next() *exec.Batch {
	s.fetch()
	if s.inner == nil {
		return nil
	}
	return s.inner.Next()
}

// Split implements exec.Splitter so parallel plans can fan out over the
// fetched rows; splitting forces the fetch. A failed fragment does not
// split — the sequential path then observes the poisoned source.
func (s *FragmentSource) Split(n int) []exec.Source {
	s.fetch()
	if s.inner == nil {
		return nil
	}
	if sp, ok := s.inner.(exec.Splitter); ok {
		return sp.Split(n)
	}
	return nil
}

// hasCol reports whether the fragment's projection carries col.
func (s *FragmentSource) hasCol(col string) bool {
	for _, c := range s.schema {
		if c.Name == col {
			return true
		}
	}
	return false
}

// CanPushAgg reports whether this fragment could carry the aggregation
// in its frame: not yet sent, no other spec, every group-by column in
// the projection, and every aggregate either COUNT(*) or over a bare
// projected column (expressions don't travel over the wire). The
// coordinator dry-checks every remote member before converting any of
// them, so a mixed verdict never leaves a fragment half-switched.
func (s *FragmentSource) CanPushAgg(groupBy []string, aggs []exec.Agg) bool {
	if s.started || s.m.Agg != nil || s.m.TopK != nil {
		return false
	}
	for _, g := range groupBy {
		if !s.hasCol(g) {
			return false
		}
	}
	for _, a := range aggs {
		if a.Kind < exec.Sum || a.Kind > exec.Max {
			return false
		}
		if a.Kind == exec.Count {
			continue
		}
		col, ok := exec.BareColumn(a.Expr)
		if !ok || !s.hasCol(col) {
			return false
		}
	}
	return true
}

// PushAgg switches the fragment to partial-aggregation mode: the frame
// carries the aggregate spec, the server streams MsgPartial group
// states, and the returned PartialSource decodes them. The batch-stream
// path is disabled (Next reads as exhausted) — the combine operator is
// now the only consumer.
func (s *FragmentSource) PushAgg(groupBy []string, aggs []exec.Agg) exec.PartialSource {
	if !s.CanPushAgg(groupBy, aggs) {
		return nil
	}
	spec := &wire.FragAgg{GroupBy: append([]string(nil), groupBy...)}
	for _, a := range aggs {
		fn := wire.FragAggFn{Kind: uint8(a.Kind)}
		if a.Kind != exec.Count {
			fn.Col, _ = exec.BareColumn(a.Expr)
		}
		spec.Aggs = append(spec.Aggs, fn)
	}
	s.m.Agg = spec
	s.started = true // block the batch fetch path
	return &partialFragment{s: s, nKey: len(groupBy), aggs: aggs}
}

// CanPushTopK reports whether this fragment could carry the top-k spec:
// not yet sent, no other spec, every sort key in the projection.
func (s *FragmentSource) CanPushTopK(keys []exec.SortKey) bool {
	if s.started || s.m.Agg != nil || s.m.TopK != nil {
		return false
	}
	for _, k := range keys {
		if !s.hasCol(k.Col) {
			return false
		}
	}
	return true
}

// PushTopK attaches a top-k spec: the server bounds the fragment's
// reply to the k smallest rows under keys (total order). The reply
// stays a normal batch stream, so the source keeps serving Next.
func (s *FragmentSource) PushTopK(k int, keys []exec.SortKey) bool {
	if !s.CanPushTopK(keys) {
		return false
	}
	s.m.TopK = &wire.FragTopK{K: int64(k), Keys: append([]exec.SortKey(nil), keys...)}
	return true
}

// partialFragment is the remote half of a pushed aggregation: one
// fragment round-trip returning decoded partial groups. Failures
// (transport, protocol, malformed groups) are reported to the parent
// fragment's error sink and the source reads as exhausted.
type partialFragment struct {
	s    *FragmentSource
	nKey int
	aggs []exec.Agg

	fetched bool
	groups  []*exec.PartialGroup
	pos     int
}

func (p *partialFragment) fetch() {
	if p.fetched {
		return
	}
	p.fetched = true
	var groups []*exec.PartialGroup
	err := p.s.r.do(p.s.ctx, wire.ClassOLAP, func(c *conn, sp *obs.Span) error {
		if sp != nil {
			p.s.m.TraceID, p.s.m.SpanID = sp.TraceID(), sp.SpanID()
		}
		typ, payload, err := c.roundTrip(p.s.ctx, wire.MsgFragment, p.s.m.Encode(nil))
		if err != nil {
			return err
		}
		rows, eos, err := readPartialStream(p.s.ctx, c, typ, payload)
		if err != nil {
			return err
		}
		adoptRemoteProfile(p.s.ctx, eos)
		gs := make([]*exec.PartialGroup, 0, len(rows))
		for _, r := range rows {
			g, derr := exec.DecodePartial(r, p.nKey, p.aggs)
			if derr != nil {
				// Frames decoded but the group contents are invalid: a
				// server-side protocol violation. The stream position is
				// consumed, but trust in the peer is not — fail the conn
				// and surface a non-retryable error.
				c.broken.Store(true)
				return derr
			}
			gs = append(gs, g)
		}
		groups = gs
		return nil
	})
	if err != nil {
		if p.s.onErr != nil {
			p.s.onErr(err)
		}
		return
	}
	p.groups = groups
}

// NextPartial implements exec.PartialSource; the first call triggers
// the remote fetch.
func (p *partialFragment) NextPartial() *exec.PartialGroup {
	p.fetch()
	if p.pos >= len(p.groups) {
		return nil
	}
	g := p.groups[p.pos]
	p.pos++
	return g
}
