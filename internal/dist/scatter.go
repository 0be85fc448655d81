package dist

import (
	"context"
	"fmt"

	"htap/internal/client"
	"htap/internal/core"
	"htap/internal/exec"
	"htap/internal/types"
)

// fragRef pairs a remote fragment with its shard name, so Query can wire
// both the plan's error sink and the endpoint health report.
type fragRef struct {
	shard string
	src   *client.FragmentSource
}

// scatter builds the gather source for one table scan: a union of
// per-shard sources in shard (= warehouse) order, wrapped in the merge
// counter. Local shards contribute their snapshot's analytical source;
// remote shards contribute a lazy fragment whose unsent window lets
// Plan.Filter push predicates into the frame. Replicated tables live on
// every shard, so only shard 0 scans — anything else would duplicate rows.
func (s *snapshot) scatter(table string, cols []string, pred *exec.ScanPred) (exec.Source, []fragRef) {
	d, ctx := s.d, s.ctx
	sch := d.byName[table]
	if sch == nil {
		return exec.NewUnion(), nil // carries the construction error
	}
	shards := d.shards
	if replicated(table) {
		shards = shards[:1]
	}
	proj := projectedSchema(sch, cols)
	srcs := make([]exec.Source, len(shards))
	var frags []fragRef
	for i, sh := range shards {
		if sh.local != nil {
			srcs[i] = s.local[i].(localSource).Source(table, cols, pred)
			continue
		}
		fs := sh.remote.Fragment(ctx, table, proj, pred)
		srcs[i] = fs
		frags = append(frags, fragRef{shard: sh.name, src: fs})
	}
	scatterFragments.Add(int64(len(srcs)))
	return &mergeCount{inner: exec.NewUnion(srcs...), d: d}, frags
}

// projectedSchema resolves the scan's output schema from the catalog;
// unknown columns pass through as Int so the binder (which validates
// names itself) reports them, not a panic here.
func projectedSchema(sch *types.Schema, cols []string) []types.Column {
	if cols == nil {
		return sch.Cols
	}
	out := make([]types.Column, len(cols))
	for i, c := range cols {
		out[i] = types.Column{Name: c, Type: types.Int}
		if j := sch.ColIndex(c); j >= 0 {
			out[i] = sch.Cols[j]
		}
	}
	return out
}

// mergeCount is the coordinator's gather point: an order-preserving
// pass-through (exec.PassThrough) over the shard union that counts the
// rows merged back from shards. Being a PassThrough keeps the pushdown
// rewrite flowing into the union's children — and from there into local
// column scans or remote fragment frames — and splitting for parallel
// merge delegates to the union's part-ordered Split, each part keeping
// the count.
type mergeCount struct {
	inner exec.Source
	d     *Engine // for the pushdown switch; nil on Split parts
}

// Schema implements exec.Source.
func (m *mergeCount) Schema() []types.Column { return m.inner.Schema() }

// Next implements exec.Source.
func (m *mergeCount) Next() *exec.Batch {
	b := m.inner.Next()
	if b != nil {
		mergeRowsTotal.Add(int64(b.N))
	}
	return b
}

// InnerSource implements exec.PassThrough.
func (m *mergeCount) InnerSource() exec.Source { return m.inner }

// SetInnerSource implements exec.PassThrough.
func (m *mergeCount) SetInnerSource(s exec.Source) { m.inner = s }

// PushAgg implements exec.AggPusher: Plan.Agg offers the aggregation
// when this gather point is its direct input — i.e. every filter fused
// into the shard scans and nothing else in between. Acceptance is
// all-or-none across shards: local members aggregate in-process
// (exec.NewPartialAgg over the member source, arbitrary expressions);
// remote members ship the spec in their fragment frame, which restricts
// them to bare-column aggregates — if any remote member can't carry the
// spec, the whole offer is declined and the plan gathers raw rows.
func (m *mergeCount) PushAgg(groupBy []string, aggs []exec.Agg, par int, ctx context.Context) []exec.PartialSource {
	if m.d == nil || !m.d.pushdown.Load() {
		return nil
	}
	members := exec.UnionMembers(m.inner)
	if members == nil {
		return nil
	}
	for _, s := range members {
		if fs, ok := s.(*client.FragmentSource); ok {
			if !fs.CanPushAgg(groupBy, aggs) {
				return nil
			}
		}
	}
	out := make([]exec.PartialSource, len(members))
	for i, s := range members {
		if fs, ok := s.(*client.FragmentSource); ok {
			ps := fs.PushAgg(groupBy, aggs)
			if ps == nil {
				return nil
			}
			out[i] = &countingPartial{inner: ps}
			continue
		}
		out[i] = &countingPartial{inner: exec.NewPartialAgg(s, groupBy, aggs, par, ctx)}
	}
	partialPushdowns.Inc()
	return out
}

// countingPartial counts groups merged at the coordinator — the pushed
// plans' analogue of mergeRowsTotal, kept as a separate series so the
// merge-row reduction stays visible.
type countingPartial struct {
	inner exec.PartialSource
}

func (c *countingPartial) NextPartial() *exec.PartialGroup {
	g := c.inner.NextPartial()
	if g != nil {
		partialGroups.Inc()
	}
	return g
}

// PushTopK implements exec.TopKPusher: bound each shard member to the k
// smallest rows under keys before gathering. Local members wrap in the
// executor's own top-k operator; remote members ship the spec in their
// fragment frame (their reply stays a batch stream, now at most k
// rows). The plan keeps its final top-k over the union, so declining
// half-way (any remote member refusing) just declines the whole offer.
func (m *mergeCount) PushTopK(k int, keys []exec.SortKey) bool {
	if m.d == nil || !m.d.pushdown.Load() {
		return false
	}
	members := exec.UnionMembers(m.inner)
	if members == nil {
		return false
	}
	for _, s := range members {
		if fs, ok := s.(*client.FragmentSource); ok {
			if !fs.CanPushTopK(keys) {
				return false
			}
		}
	}
	wrapped := make([]exec.Source, len(members))
	for i, s := range members {
		if fs, ok := s.(*client.FragmentSource); ok {
			if !fs.PushTopK(k, keys) {
				return false
			}
			wrapped[i] = fs
			continue
		}
		wrapped[i] = exec.NewTopK(s, k, keys)
	}
	m.inner = exec.NewUnion(wrapped...)
	topkPushdowns.Inc()
	return true
}

// Split implements exec.Splitter by delegating to the inner union; parts
// concatenate in shard order, preserving the sequential row order.
func (m *mergeCount) Split(n int) []exec.Source {
	sp, ok := m.inner.(exec.Splitter)
	if !ok {
		return nil
	}
	parts := sp.Split(n)
	if parts == nil {
		return nil
	}
	out := make([]exec.Source, len(parts))
	for i, p := range parts {
		out[i] = &mergeCount{inner: p}
	}
	return out
}

// PartitionLoad wraps a shard server's engine so a full deterministic
// generator pass loads only that shard's slice: rows owned by warehouses
// in [its range] plus every replicated dimension row. Running the same
// generator on every shard keeps derived global state — notably the
// history-key allocator — identical across shard processes, so the
// coordinator's handshake watermark is consistent no matter which shard
// reports it.
func PartitionLoad(e core.Engine, warehouses, index, count int) (core.Engine, error) {
	rt, err := newRouter(warehouses, count)
	if err != nil {
		return nil, err
	}
	if index < 0 || index >= count {
		return nil, fmt.Errorf("dist: shard index %d out of range [0,%d)", index, count)
	}
	return &loadFilter{Engine: e, rt: rt, idx: index}, nil
}

type loadFilter struct {
	core.Engine
	rt  router
	idx int
}

// Load keeps replicated rows and rows whose warehouse falls in this
// shard's range; everything else is silently skipped (another shard owns
// it).
func (f *loadFilter) Load(table string, row types.Row) error {
	if replicated(table) {
		return f.Engine.Load(table, row)
	}
	sch := f.Engine.Schema(table)
	if sch == nil {
		return fmt.Errorf("dist: no schema for %s", table)
	}
	w, ok := rowWarehouse(table, sch.Key(row), row)
	if !ok {
		return fmt.Errorf("dist: cannot route %s row", table)
	}
	if f.rt.shardOf(w) != f.idx {
		return nil
	}
	return f.Engine.Load(table, row)
}
