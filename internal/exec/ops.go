package exec

import (
	"context"
	"sync"
	"time"

	"htap/internal/types"
)

// orBackground guards against nil contexts from legacy call paths.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// Source produces batches. Next returns nil when exhausted.
type Source interface {
	Schema() []types.Column
	Next() *Batch
}

// ScanPred is an advisory single-column integer range used for zone-map
// pruning and planner selectivity estimates. Plans must still apply the
// full filter; the predicate only lets scans skip whole segments.
type ScanPred struct {
	Col    string
	Lo, Hi int64
}

// --- filter ---

type filterOp struct {
	in   Source
	expr Expr
	sel  []int32 // the passing rows of the current batch
}

func (o *filterOp) Schema() []types.Column { return o.in.Schema() }

func (o *filterOp) Next() *Batch {
	for {
		b := o.in.Next()
		if b == nil {
			return nil
		}
		sel := o.sel[:0]
		for i := 0; i < b.N; i++ {
			if o.expr.Eval(b, i).Int() != 0 {
				sel = append(sel, int32(i))
			}
		}
		o.sel = sel
		switch len(sel) {
		case 0: // nothing passed: on to the next batch
		case b.N:
			return b
		default:
			return gatherBatch(b, sel)
		}
	}
}

// Split partitions the input and wraps each part in its own filter, so a
// scan-filter pipeline runs whole on each worker. The bound expression is
// shared: evaluation is read-only.
func (o *filterOp) Split(n int) []Source {
	parts := trySplit(o.in, n)
	if parts == nil {
		return nil
	}
	out := make([]Source, len(parts))
	for i, p := range parts {
		out[i] = &filterOp{in: p, expr: o.expr}
	}
	return out
}

// --- project ---

// NamedExpr pairs an output column name with its defining expression.
type NamedExpr struct {
	Name string
	Expr Expr
}

type projectOp struct {
	in     Source
	schema []types.Column
	exprs  []Expr
}

func newProject(in Source, exprs []NamedExpr) *projectOp {
	schema := make([]types.Column, len(exprs))
	bound := make([]Expr, len(exprs))
	for i, ne := range exprs {
		schema[i] = types.Column{Name: ne.Name, Type: ne.Expr.Type(in.Schema())}
		bound[i] = ne.Expr.Bind(in.Schema())
	}
	return &projectOp{in: in, schema: schema, exprs: bound}
}

func (o *projectOp) Schema() []types.Column { return o.schema }

func (o *projectOp) Next() *Batch {
	b := o.in.Next()
	if b == nil {
		return nil
	}
	out := NewBatch(o.schema, b.N)
	for i := 0; i < b.N; i++ {
		for c, e := range o.exprs {
			out.Cols[c].Append(e.Eval(b, i))
		}
	}
	out.N = b.N
	return out
}

// Split mirrors filterOp.Split: per-worker projection over the split
// input, sharing the read-only bound expressions.
func (o *projectOp) Split(n int) []Source {
	parts := trySplit(o.in, n)
	if parts == nil {
		return nil
	}
	out := make([]Source, len(parts))
	for i, p := range parts {
		out[i] = &projectOp{in: p, schema: o.schema, exprs: o.exprs}
	}
	return out
}

// --- limit ---

type limitOp struct {
	in   Source
	left int
}

func (o *limitOp) Schema() []types.Column { return o.in.Schema() }

func (o *limitOp) Next() *Batch {
	if o.left <= 0 {
		return nil
	}
	b := o.in.Next()
	if b == nil {
		return nil
	}
	if b.N <= o.left {
		o.left -= b.N
		return b
	}
	out := NewBatch(b.Schema, o.left)
	for i := 0; i < o.left; i++ {
		out.appendFrom(b.Cols, i)
	}
	o.left = 0
	return out
}

// --- plan builder ---

// Plan is a fluent builder over a Source pipeline. A plan may carry an
// error (FromError): builder methods short-circuit on it and RunCtx /
// CountCtx report it instead of executing, so a failed scan source — a
// remote query whose transport died, say — cannot masquerade as an
// empty table.
type Plan struct {
	src  Source
	err  error
	par  int             // degree of parallelism; <= 1 means sequential
	ctx  context.Context // operator context (cancellation); nil = background
	qm   *QueryMem       // memory accountant; nil = ungoverned
	aux  []*QueryMem     // accountants adopted from joined plans, for Finish
	rerr []*errSlot      // deferred runtime errors (ErrSink), checked like MemErr
	prof *QueryProfile   // operator profiling; nil = disabled (zero cost)
}

// errSlot holds one deferred runtime error; the first recorded wins.
type errSlot struct {
	mu  sync.Mutex
	err error
}

func (s *errSlot) set(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

func (s *errSlot) get() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ErrSink returns a function that records a runtime error against the
// plan. Sources that discover failures only while the plan is running — a
// remote scan whose transport died mid-query, say — report through a sink,
// and RunCtx/CountCtx surface the error exactly like a spill failure
// instead of letting the poisoned source masquerade as an empty table.
// Join adoption carries sinks across plan composition, so a failure on a
// joined input still fails the joined query. Safe for concurrent use.
func (p *Plan) ErrSink() func(error) {
	s := &errSlot{}
	p.rerr = append(p.rerr, s)
	return s.set
}

// derive builds the next plan in the chain, carrying the parallelism
// degree, context, memory accountants, and profile forward. Under an
// attached profile every derived operator is wrapped in a statsOp.
func (p *Plan) derive(src Source) *Plan {
	if p.prof != nil {
		if _, ok := src.(*statsOp); !ok {
			src = newStatsOp(src)
		}
	}
	return &Plan{src: src, par: p.par, ctx: p.ctx, qm: p.qm, aux: p.aux, rerr: p.rerr, prof: p.prof}
}

// adopt records right's accountants on p so FinishMem releases them too;
// a join output plan owns both inputs' lifecycles.
func (p *Plan) adopt(right *Plan) *Plan {
	if right.qm != nil && right.qm != p.qm {
		p.aux = append(p.aux, right.qm)
	}
	for _, m := range right.aux {
		if m != p.qm {
			p.aux = append(p.aux, m)
		}
	}
	p.rerr = append(p.rerr, right.rerr...)
	return p
}

// Ctx binds a context to the plan's operators: blocking operators (join
// build, spill partitioning) poll it and abandon work promptly when it is
// cancelled. Call it on the plan root before adding operators; engines do.
func (p *Plan) Ctx(ctx context.Context) *Plan {
	p.ctx = ctx
	if prof := ProfileFrom(ctx); prof != nil {
		p.enableProfile(prof)
	}
	return p
}

// WithMem attaches a memory accountant: materializing operators added
// after this call charge it and spill through its governor when over
// budget. Call it on the plan root before adding operators.
func (p *Plan) WithMem(qm *QueryMem) *Plan {
	p.qm = qm
	return p
}

// Mem returns the plan's accountant (nil when ungoverned).
func (p *Plan) Mem() *QueryMem { return p.qm }

// MemErr reports the first spill failure recorded by any of the plan's
// accountants, nil if none.
func (p *Plan) MemErr() error {
	if err := p.qm.Err(); err != nil {
		return err
	}
	for _, m := range p.aux {
		if err := m.Err(); err != nil {
			return err
		}
	}
	for _, s := range p.rerr {
		if err := s.get(); err != nil {
			return err
		}
	}
	return nil
}

// FinishMem releases all accountants' charges and spill files. RunCtx and
// CountCtx call it; it is idempotent, so defensive callers may call it
// again.
func (p *Plan) FinishMem() {
	p.qm.Finish()
	for _, m := range p.aux {
		m.Finish()
	}
}

// From starts a plan at a source. A source carrying a construction error
// (NewUnion of zero sources, say) becomes an error-carrying plan, exactly
// as if built with FromError.
func From(s Source) *Plan {
	if es, ok := s.(*errSource); ok {
		return FromError(es.err)
	}
	return &Plan{src: s}
}

// Parallel sets the plan's degree of parallelism: how many partitions
// splittable pipelines fan out into. The shared worker pool bounds actual
// concurrency separately. Results are deterministic at any fixed degree;
// across degrees, float aggregates may differ by summation-order rounding
// only. Call it on the plan root (engines do, with their configured
// degree) before adding operators.
func (p *Plan) Parallel(n int) *Plan {
	if n < 1 {
		n = 1
	}
	p.par = n
	return p
}

// FromError returns a plan carrying err: every plan derived from it
// carries the error too, and running any of them yields no rows and err.
// Engine implementations whose Query path can fail (the network client)
// return it so callers can tell "empty table" from "query failed".
func FromError(err error) *Plan {
	return &Plan{src: NewMemSource(nil, nil), err: err}
}

// Err reports the error the plan carries (nil for healthy plans).
func (p *Plan) Err() error { return p.err }

// Filter keeps rows where e is true. Single-column comparisons against
// constants are pushed down into column scans (see pushdown.go), where
// they evaluate on encoded vectors and prune segments via zone maps;
// everything else runs in a residual filter operator. The rewrite never
// changes results, only where predicates are evaluated.
func (p *Plan) Filter(e Expr) *Plan {
	if p.err != nil {
		return p
	}
	src := p.src
	// The pushdown rewrite recognizes scans and unions by concrete type;
	// unwrap the profiling shim so pushdown still fires (the scan keeps its
	// attached counters, and derive re-wraps the rewritten pipeline).
	if so, ok := src.(*statsOp); ok {
		switch so.inner.(type) {
		case *colScan, *unionSource, PassThrough, PredPusher:
			src = so.inner
		}
	}
	return p.derive(pushFilter(src, e.Bind(src.Schema())))
}

// Project computes named expressions.
func (p *Plan) Project(exprs ...NamedExpr) *Plan {
	if p.err != nil {
		return p
	}
	return p.derive(newProject(p.src, exprs))
}

// Join inner-joins with right on equality of the paired key columns.
func (p *Plan) Join(right *Plan, leftCols, rightCols []string) *Plan {
	if p.err != nil {
		return p
	}
	if right.err != nil {
		return right
	}
	return p.derive(newHashJoin(InnerJoin, p.src, right.src, leftCols, rightCols, p.par, p.ctx, p.qm)).adopt(right)
}

// SemiJoin keeps left rows with a match in right (EXISTS).
func (p *Plan) SemiJoin(right *Plan, leftCols, rightCols []string) *Plan {
	if p.err != nil {
		return p
	}
	if right.err != nil {
		return right
	}
	return p.derive(newHashJoin(LeftSemiJoin, p.src, right.src, leftCols, rightCols, p.par, p.ctx, p.qm)).adopt(right)
}

// AntiJoin keeps left rows without a match in right (NOT EXISTS).
func (p *Plan) AntiJoin(right *Plan, leftCols, rightCols []string) *Plan {
	if p.err != nil {
		return p
	}
	if right.err != nil {
		return right
	}
	return p.derive(newHashJoin(LeftAntiJoin, p.src, right.src, leftCols, rightCols, p.par, p.ctx, p.qm)).adopt(right)
}

// Agg groups by the named columns (nil for a global aggregate) and computes
// aggs.
func (p *Plan) Agg(groupBy []string, aggs ...Agg) *Plan {
	if p.err != nil {
		return p
	}
	// A source that can evaluate the aggregation close to the data — the
	// dist scatter union — is offered it first. Only a source that is
	// still the bare scatter (no residual filters, joins, or projections
	// in between) accepts; anything else declines and aggregates here
	// over the gathered rows. Unwrap the profiling shim like Filter does
	// so pushdown still fires on profiled plans.
	src := p.src
	if so, ok := src.(*statsOp); ok {
		if _, ok := so.inner.(AggPusher); ok {
			src = so.inner
		}
	}
	if ap, ok := src.(AggPusher); ok {
		if parts := ap.PushAgg(groupBy, aggs, p.par, p.ctx); parts != nil {
			o := newHashAgg(src, groupBy, aggs, p.par, p.ctx, p.qm)
			return p.derive(&combineAggOp{o: o, parts: parts})
		}
	}
	return p.derive(newHashAgg(p.src, groupBy, aggs, p.par, p.ctx, p.qm))
}

// Distinct removes duplicate rows.
func (p *Plan) Distinct() *Plan {
	if p.err != nil {
		return p
	}
	cols := make([]string, len(p.src.Schema()))
	for i, c := range p.src.Schema() {
		cols[i] = c.Name
	}
	return p.Agg(cols)
}

// Sort orders the output.
func (p *Plan) Sort(keys ...SortKey) *Plan {
	if p.err != nil {
		return p
	}
	return p.derive(&sortOp{in: p.src, keys: keys, ctx: orBackground(p.ctx), mem: p.qm})
}

// Limit truncates the output to n rows.
func (p *Plan) Limit(n int) *Plan {
	if p.err != nil {
		return p
	}
	return p.derive(&limitOp{in: p.src, left: n})
}

// Schema returns the plan's output schema.
func (p *Plan) Schema() []types.Column { return p.src.Schema() }

// Run executes the plan, materializing all output rows.
func (p *Plan) Run() []types.Row {
	rows, _ := p.RunCtx(context.Background())
	return rows
}

// RunCtx executes the plan, materializing all output rows. When ctx is
// cancelled or its deadline passes, execution stops — the context-aware
// scan sources at the bottom of the pipeline abandon their remaining
// segments, which unwinds blocking operators (sort, aggregate, join build)
// as well — and the context error is returned alongside whatever rows were
// already produced. Callers must treat the rows as incomplete whenever the
// error is non-nil. A spill failure in a memory-governed plan returns nil
// rows and the spill error: partial results never escape. Either way the
// plan's memory accountants are finished — charges released, spill files
// removed. The rows of each batch are cut from one datum slab.
func (p *Plan) RunCtx(ctx context.Context) ([]types.Row, error) {
	parts, err := drainPlan(p, ctx, func(rows []types.Row, b *Batch) []types.Row {
		w := len(b.Cols)
		slab := make([]types.Datum, b.N*w)
		for c, col := range b.Cols {
			for i := 0; i < b.N; i++ {
				slab[i*w+c] = col.Datum(i)
			}
		}
		for i := 0; i < b.N; i++ {
			// Capped, so a caller's append cannot spill into the next row.
			rows = append(rows, slab[i*w:(i+1)*w:(i+1)*w])
		}
		return rows
	})
	if parts == nil {
		return nil, err
	}
	rows := parts[0]
	for _, r := range parts[1:] {
		rows = append(rows, r...)
	}
	return rows, err
}

// Count executes the plan, returning only the row count.
func (p *Plan) Count() int {
	n, _ := p.CountCtx(context.Background())
	return n
}

// CountCtx executes the plan under ctx, returning the row count; the count
// is partial whenever the returned error is non-nil.
func (p *Plan) CountCtx(ctx context.Context) (int, error) {
	parts, err := drainPlan(p, ctx, func(n int, b *Batch) int { return n + b.N })
	n := 0
	for _, c := range parts {
		n += c
	}
	return n, err
}

// drainPlan is the one plan drain. It splits the plan's source for its
// degree of parallelism (one part when the source cannot split or the
// plan is sequential), folds each part's batches into the part's own
// accumulator with add, and finishes the plan's accountants. Part order
// is the sequential row order. It returns nil parts and the error when
// the plan carries one or a spill failed, and otherwise the parts and
// ctx's error: a cancelled scan drains early and looks exhausted, so the
// cancellation is reported rather than truncated results passed off as
// complete.
func drainPlan[T any](p *Plan, ctx context.Context, add func(T, *Batch) T) ([]T, error) {
	if p.err != nil {
		return nil, p.err
	}
	defer p.FinishMem()
	if p.prof != nil {
		start := time.Now()
		defer func() { p.prof.capture(p, time.Since(start)) }()
	}
	ctx = orBackground(ctx)
	parts := trySplit(p.src, p.par)
	if parts == nil {
		parts = []Source{p.src}
	} else {
		parallelPlans.Inc()
	}
	acc := make([]T, len(parts))
	drain(ctx, parts, func(w int, b *Batch) { acc[w] = add(acc[w], b) })
	if err := p.MemErr(); err != nil {
		return nil, err
	}
	return acc, ctx.Err()
}

// drain runs every part on the shared pool until the part is exhausted or
// ctx is done, handing each batch to sink with its part's index.
func drain(ctx context.Context, parts []Source, sink func(part int, b *Batch)) {
	tasks := make([]func(), len(parts))
	for w, src := range parts {
		tasks[w] = func() {
			for ctx.Err() == nil {
				b := src.Next()
				if b == nil {
					return
				}
				sink(w, b)
			}
		}
	}
	SharedPool().Run(tasks)
}
