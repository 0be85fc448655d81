package exec

import (
	"context"
	"fmt"
	"strings"

	"htap/internal/types"
)

// This file is the executor half of distributed aggregate pushdown.
// A source that can evaluate grouped aggregation close to the data —
// the dist coordinator's scatter union — implements AggPusher; Plan.Agg
// offers it the aggregation before building a central hash aggregate.
// When the offer is accepted the plan becomes a combineAggOp: each
// shard ships combinable partial states (one PartialGroup per group)
// instead of raw rows, and the coordinator merges them with exactly the
// same mergeAggState machinery the parallel in-engine aggregate uses to
// merge worker tables. Because SUM/AVG accumulate exactly, as an integer
// multiple of 2^-1074 rounded once at render (see exactsum.go), the
// combined result is bit-identical to gathering every row centrally —
// the equivalence tests assert exact equality, not epsilon closeness.

// AggState is one aggregate accumulator, exported opaquely so partial
// groups can cross package boundaries. Build them with NewPartialAgg or
// DecodePartial; combine them by handing the groups back to a plan.
type AggState = aggState

// PartialGroup is one group's key and per-aggregate partial states, as
// produced by a shard-side partial aggregation.
type PartialGroup struct {
	Key    types.Row
	States []AggState
}

// PartialSource streams partial groups. NextPartial returns nil when
// exhausted; a failing source reports through its error sink (see
// Plan.ErrSink) and then reads as exhausted, never as empty data.
type PartialSource interface {
	NextPartial() *PartialGroup
}

// AggPusher is offered a grouped aggregation by Plan.Agg. A non-nil
// return accepts the offer: one PartialSource per shard, in shard
// order. Returning nil declines (the plan falls back to a central
// aggregate over the raw row stream).
type AggPusher interface {
	PushAgg(groupBy []string, aggs []Agg, par int, ctx context.Context) []PartialSource
}

// TopKPusher is offered a bounded top-k by Plan.TopK. Accepting (true)
// means the source now yields at most k rows per shard in the keys'
// total order; the plan still applies its own final top-k, so accepting
// is an optimization, never a correctness transfer.
type TopKPusher interface {
	PushTopK(k int, keys []SortKey) bool
}

// BareColumn reports whether e is a plain column reference, and its
// name. Remote fragments can only push aggregates over bare columns —
// arbitrary expressions don't travel over the wire.
func BareColumn(e Expr) (string, bool) {
	if c, ok := e.(*colRef); ok {
		return c.name, true
	}
	return "", false
}

// UnionMembers exposes the member sources of a union built by NewUnion,
// in shard order, provided iteration has not started. It returns nil
// for any other source — in particular for the rewritten pipelines that
// filter pushdown can leave behind, which is exactly when per-member
// aggregate pushdown must not fire.
func UnionMembers(s Source) []Source {
	if u, ok := s.(*unionSource); ok && u.cur == 0 {
		return u.srcs
	}
	return nil
}

// NewPartialAgg builds the shard-side half of a pushed-down
// aggregation over in: a hash aggregate that stops before rendering,
// streaming its groups' raw states in first-seen order. par splits the
// input like any in-engine aggregate; the part-ordered merge keeps the
// group order a pure function of the input order.
func NewPartialAgg(in Source, groupBy []string, aggs []Agg, par int, ctx context.Context) PartialSource {
	return &partialAggSrc{o: newHashAgg(in, groupBy, aggs, par, ctx, nil)}
}

type partialAggSrc struct {
	o    *hashAggOp
	done bool
	ord  []*aggGroup
	pos  int
}

func (s *partialAggSrc) NextPartial() *PartialGroup {
	if !s.done {
		s.ord = s.o.buildTable().order
		s.done = true
	}
	if s.pos >= len(s.ord) {
		return nil
	}
	g := s.ord[s.pos]
	s.pos++
	return &PartialGroup{Key: g.key, States: g.states}
}

// combineAggOp is the coordinator half: merge per-shard partial groups
// in shard order into one table, then render with the descriptor
// aggregate's own finalizer. Merging shard tables in shard order is the
// same discipline the parallel aggregate applies to worker tables, and
// for the same reason — group output order (and the merge order of the
// exact sums) depends only on shard order, never on arrival timing.
type combineAggOp struct {
	o     *hashAggOp // descriptor: schema, agg kinds, render; its input is never drained
	parts []PartialSource
	done  bool
	out   []types.Row
	pos   int
}

func (c *combineAggOp) Schema() []types.Column { return c.o.schema }

func (c *combineAggOp) run() {
	t := newAggTable(c.o)
	for _, ps := range c.parts {
		if ps == nil {
			continue
		}
		for {
			pg := ps.NextPartial()
			if pg == nil {
				break
			}
			if len(pg.States) != len(c.o.aggs) {
				continue // DecodePartial enforces arity; skip rather than corrupt
			}
			t.fold(pg.Key, pg.States)
		}
	}
	c.out = c.o.render(t.order)
	c.done = true
}

func (c *combineAggOp) explain() (string, []Source) {
	aggs := make([]string, len(c.o.aggs))
	for i, a := range c.o.aggs {
		aggs[i] = a.Name
	}
	return fmt.Sprintf("CombinePartialAgg(shards=%d, groups=%d, aggs=[%s])",
		len(c.parts), len(c.o.keyCols), strings.Join(aggs, ", ")), nil
}

func (c *combineAggOp) Next() *Batch {
	if !c.done {
		c.run()
	}
	return nextRows(c.o.schema, c.out, &c.pos)
}

// EncodePartial serializes one partial group for the wire: [key...,
// then per aggregate sum (exact accumulator bytes in a String datum —
// Go strings are binary-safe), isum, count, min, max]. Unused min/max
// slots carry an Int(0) placeholder for fixed arity. An aggregate's spill
// record is the same encoding behind its ord.
func EncodePartial(g *PartialGroup, aggs []Agg) types.Row {
	r := make(types.Row, 0, len(g.Key)+5*len(aggs))
	r = append(r, g.Key...)
	zero := types.NewInt(0)
	for ai := range aggs {
		st := &g.States[ai]
		r = append(r, types.NewString(string(st.sum.encode())), types.NewInt(st.isum), types.NewInt(st.count))
		if aggs[ai].Kind == Min && st.count > 0 {
			r = append(r, st.min)
		} else {
			r = append(r, zero)
		}
		if aggs[ai].Kind == Max && st.count > 0 {
			r = append(r, st.max)
		} else {
			r = append(r, zero)
		}
	}
	return r
}

// DecodePartial parses an EncodePartial record arriving off the wire or
// out of a spill file, rejecting wrong arity, wrong accumulator kinds,
// and negative counts before any state reaches an aggregation table.
func DecodePartial(r types.Row, nKey int, aggs []Agg) (*PartialGroup, error) {
	if len(r) != nKey+5*len(aggs) {
		return nil, fmt.Errorf("exec: partial group has %d datums, want %d", len(r), nKey+5*len(aggs))
	}
	g := &PartialGroup{Key: r[:nKey:nKey], States: make([]AggState, len(aggs))}
	for ai := range aggs {
		off := nKey + 5*ai
		if r[off].Kind != types.String {
			return nil, fmt.Errorf("exec: partial sum state is %v, want String", r[off].Kind)
		}
		sum, err := decodeExactSum([]byte(r[off].Str()))
		if err != nil {
			return nil, err
		}
		if r[off+1].Kind != types.Int || r[off+2].Kind != types.Int {
			return nil, fmt.Errorf("exec: partial isum/count must be Int")
		}
		if r[off+2].I < 0 {
			return nil, fmt.Errorf("exec: partial count %d is negative", r[off+2].I)
		}
		g.States[ai] = AggState{
			sum:   sum,
			isum:  r[off+1].I,
			count: r[off+2].I,
			min:   r[off+3],
			max:   r[off+4],
		}
	}
	return g, nil
}

// PartialAgg runs the shard-side half of a pushed aggregation over this
// plan's pipeline and materializes every partial group — the server's
// entry point for a fragment carrying an aggregate spec. Errors from
// the pipeline (cancellation, fragment failures wired to the plan's
// error sinks) surface here, before any group is shipped.
func (p *Plan) PartialAgg(groupBy []string, aggs []Agg) ([]*PartialGroup, error) {
	if p.err != nil {
		return nil, p.err
	}
	defer p.FinishMem()
	src := NewPartialAgg(p.src, groupBy, aggs, p.par, p.ctx)
	var out []*PartialGroup
	for {
		pg := src.NextPartial()
		if pg == nil {
			break
		}
		out = append(out, pg)
	}
	if err := p.MemErr(); err != nil {
		return nil, err
	}
	if p.ctx != nil {
		if err := p.ctx.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
