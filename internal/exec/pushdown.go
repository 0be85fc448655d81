package exec

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"htap/internal/bitmap"
	"htap/internal/colstore"
	"htap/internal/obs"
	"htap/internal/types"
)

// Predicate pushdown: Plan.Filter decomposes a filter into conjuncts and
// pushes the single-column comparisons into column scans, where they are
// evaluated directly on the encoded segment vectors (see colstore's
// FilterVec) to produce a per-segment selection bitmap. The scan then
// late-materializes only selected positions of only the projected columns,
// so a dropped row never decodes a string. Conjuncts the scan cannot
// evaluate on encoded data stay behind in a residual Filter operator, and
// filters distribute over unions, so layered and sharded stores push per
// child. A pushed conjunct keeps exactly the rows the residual filter
// would keep: the encoded comparisons replicate types.Datum.Compare.

var (
	pushPredsTotal  = obs.Default.Counter("htap_exec_pushdown_predicates_total", nil)
	pushSegsPruned  = obs.Default.Counter("htap_exec_pushdown_segments_pruned_total", nil)
	pushRunsTotal   = obs.Default.Counter("htap_exec_pushdown_runs_shortcircuited_total", nil)
	pushRowsScanned = obs.Default.Counter("htap_exec_pushdown_rows_scanned_total", nil)
	pushRowsMat     = obs.Default.Counter("htap_exec_pushdown_rows_materialized_total", nil)
)

// PushdownRows returns the cumulative pushed-down scan volume: rows whose
// selection bits were evaluated and rows actually materialized. Benchmark
// harnesses sample it around a run to report rows-materialized-per-query.
func PushdownRows() (scanned, materialized int64) {
	return pushRowsScanned.Value(), pushRowsMat.Value()
}

// PushKind classifies a pushable conjunct.
type PushKind uint8

// Pushable conjunct shapes: col ⊗ const, a string prefix, an int IN-set.
const (
	PushCmp PushKind = iota + 1
	PushPrefix
	PushInSet
)

// colPred is one filter conjunct a column scan evaluates directly on
// encoded segment vectors.
type colPred struct {
	kind   PushKind
	col    string             // column name, present in both scan output and table schema
	op     CmpOp              // PushCmp comparison
	d      types.Datum        // PushCmp comparand
	prefix string             // PushPrefix
	set    map[int64]struct{} // PushInSet (shared read-only with the source expression)
	idx    int                // table-schema column ordinal (encoded vector index)
	outIdx int                // scan-output ordinal, for filtering materialized overlay rows
}

func (p *colPred) String() string {
	switch p.kind {
	case PushPrefix:
		return fmt.Sprintf("%s LIKE %q%%", p.col, p.prefix)
	case PushInSet:
		return fmt.Sprintf("%s IN (...%d)", p.col, len(p.set))
	default:
		return fmt.Sprintf("(%s %s %s)", p.col, p.op, p.d)
	}
}

// matchRow evaluates the predicate against a materialized row (delta
// overlay rows bypass the encoded path). Semantics match the expression
// the predicate was extracted from bit for bit.
func (p *colPred) matchRow(r types.Row) bool {
	switch p.kind {
	case PushPrefix:
		return strings.HasPrefix(r[p.outIdx].Str(), p.prefix)
	case PushInSet:
		_, ok := p.set[r[p.outIdx].Int()]
		return ok
	default:
		return cmpOpMatch(p.op, r[p.outIdx].Compare(p.d))
	}
}

func cmpOpMatch(op CmpOp, c int) bool {
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	default:
		return c >= 0
	}
}

// predOp maps the executor's comparison operator to colstore's.
func predOp(op CmpOp) colstore.PredOp {
	return [...]colstore.PredOp{0, colstore.PredEQ, colstore.PredNE, colstore.PredLT,
		colstore.PredLE, colstore.PredGT, colstore.PredGE}[op]
}

// flipCmp rewrites `const op col` as `col flip(op) const`.
func flipCmp(op CmpOp) CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default:
		return op
	}
}

// splitConjuncts flattens nested ANDs into a conjunct list.
func splitConjuncts(e Expr, out []Expr) []Expr {
	if a, ok := e.(*andExpr); ok {
		for _, t := range a.terms {
			out = splitConjuncts(t, out)
		}
		return out
	}
	return append(out, e)
}

// asColPred recognizes a pushable conjunct of a bound filter: col ⊗ const,
// const ⊗ col, HasPrefix(col, p), or InInts(col, ...). NULL comparands are
// never pushed (their comparison semantics stay with the residual filter).
func asColPred(e Expr) (colPred, bool) {
	switch t := e.(type) {
	case *cmpExpr:
		if c, ok := t.l.(*colRef); ok {
			if k, ok2 := t.r.(*constExpr); ok2 && !k.d.IsNull() {
				return colPred{kind: PushCmp, col: c.name, op: t.op, d: k.d}, true
			}
		}
		if k, ok := t.l.(*constExpr); ok && !k.d.IsNull() {
			if c, ok2 := t.r.(*colRef); ok2 {
				return colPred{kind: PushCmp, col: c.name, op: flipCmp(t.op), d: k.d}, true
			}
		}
	case *likeExpr:
		if c, ok := t.col.(*colRef); ok {
			return colPred{kind: PushPrefix, col: c.name, prefix: t.prefix}, true
		}
	case *inExpr:
		if c, ok := t.col.(*colRef); ok {
			return colPred{kind: PushInSet, col: c.name, set: t.set}, true
		}
	}
	return colPred{}, false
}

// PushedPred is the exported, transport-friendly form of one pushable
// conjunct: col ⊗ const, a string prefix, or an int IN-set. A source that
// evaluates predicates elsewhere — a remote shard fragment — accepts these
// from the pushdown rewrite, ships them over the wire, and the far side
// rebuilds the expression with Expr. Ints is kept sorted so the encoding
// is deterministic.
type PushedPred struct {
	Kind   PushKind
	Col    string
	Op     CmpOp       // PushCmp
	Datum  types.Datum // PushCmp comparand (never NULL)
	Prefix string      // PushPrefix
	Ints   []int64     // PushInSet, sorted ascending
}

// AsPushedPred recognizes a pushable conjunct in its exported form; the
// accepted shapes are exactly those fuseFilter pushes into column scans.
func AsPushedPred(e Expr) (PushedPred, bool) {
	cp, ok := asColPred(e)
	if !ok {
		return PushedPred{}, false
	}
	p := PushedPred{Kind: cp.kind, Col: cp.col, Op: cp.op, Datum: cp.d, Prefix: cp.prefix}
	if cp.kind == PushInSet {
		p.Ints = make([]int64, 0, len(cp.set))
		for v := range cp.set {
			p.Ints = append(p.Ints, v)
		}
		slices.Sort(p.Ints)
	}
	return p, true
}

// Expr rebuilds the predicate as an expression with identical semantics;
// the receiving shard filters through the ordinary pushdown path, so the
// conjunct keeps exactly the rows it would have kept at the coordinator.
func (p PushedPred) Expr() Expr {
	switch p.Kind {
	case PushPrefix:
		return HasPrefix(ColName(p.Col), p.Prefix)
	case PushInSet:
		return InInts(ColName(p.Col), p.Ints...)
	default:
		return Cmp(p.Op, ColName(p.Col), ConstDatum(p.Datum))
	}
}

// PredPusher is a source that can evaluate pushable conjuncts itself,
// typically by shipping them to a remote shard before any rows are
// fetched. PushPred offers one conjunct; returning true means the source
// will apply it and the rewrite drops it from the residual filter, so an
// accepted conjunct must keep exactly the rows the residual filter would
// have kept.
type PredPusher interface {
	Source
	PushPred(PushedPred) bool
}

// PassThrough is an order-preserving pass-through shim over one inner
// source — a row counter, a tracing wrapper. The pushdown rewrite (and
// parallel splitting, via the shim's own Split) applies to the inner
// pipeline in place, so scans beneath the shim still fuse predicates.
type PassThrough interface {
	Source
	InnerSource() Source
	SetInnerSource(Source)
}

// pushFilter places the bound filter expr above src, pushing what it can
// into column scans. Filters distribute over unions, so the rewrite
// recurses into unstarted union children; sources that cannot evaluate a
// conjunct on encoded data keep it in a residual filter operator. Row
// order and semantics are unchanged — only where each conjunct is
// evaluated moves.
func pushFilter(src Source, expr Expr) Source {
	switch s := src.(type) {
	case *colScan:
		return s.fuseFilter(expr)
	case *unionSource:
		if s.cur == 0 {
			for i, c := range s.srcs {
				s.srcs[i] = pushFilter(c, expr)
			}
			return s
		}
	case PassThrough:
		s.SetInnerSource(pushFilter(s.InnerSource(), expr))
		return s
	case PredPusher:
		return fusePusher(s, expr)
	}
	return &filterOp{in: src, expr: expr}
}

// fusePusher offers each pushable conjunct to a PredPusher source and
// keeps declined or unpushable conjuncts in a residual filter, exactly
// like fuseFilter does for column scans.
func fusePusher(s PredPusher, expr Expr) Source {
	var residual []Expr
	for _, e := range splitConjuncts(expr, nil) {
		if p, ok := AsPushedPred(e); ok && s.PushPred(p) {
			pushPredsTotal.Inc()
			continue
		}
		residual = append(residual, e)
	}
	return withResidual(s, residual)
}

// withResidual wraps src in a filter of the conjuncts it did not take.
func withResidual(src Source, residual []Expr) Source {
	switch len(residual) {
	case 0:
		return src
	case 1:
		return &filterOp{in: src, expr: residual[0]}
	default:
		return &filterOp{in: src, expr: &andExpr{terms: residual}}
	}
}

// fuseFilter attaches the pushable conjuncts of expr to the scan and
// returns the scan, wrapped in a residual filter when some conjuncts could
// not be pushed. A scan that already produced rows cannot change its
// selection retroactively and keeps the whole filter downstream.
func (s *colScan) fuseFilter(expr Expr) Source {
	if s.done || s.seg != nil {
		return &filterOp{in: s, expr: expr}
	}
	var residual []Expr
	for _, e := range splitConjuncts(expr, nil) {
		p, ok := asColPred(e)
		if !ok || !s.acceptPred(&p) {
			residual = append(residual, e)
			continue
		}
		s.pushed = append(s.pushed, p)
		pushPredsTotal.Inc()
	}
	if len(s.pushed) == 0 {
		return &filterOp{in: s, expr: expr}
	}
	s.selObs = s.v.SelObserver()
	return withResidual(s, residual)
}

// acceptPred resolves the predicate's column against the scan's table and
// validates that the (column type, comparand) pairing can be evaluated on
// encoded vectors with Datum.Compare semantics.
func (s *colScan) acceptPred(p *colPred) bool {
	ti := s.v.Schema.ColIndex(p.col)
	oi := -1
	for i, c := range s.schema {
		if c.Name == p.col {
			oi = i
			break
		}
	}
	if ti < 0 || oi < 0 {
		return false
	}
	switch ct := s.v.Schema.Cols[ti].Type; p.kind {
	case PushCmp:
		switch ct {
		case types.Int, types.Float:
			if p.d.Kind != types.Int && p.d.Kind != types.Float {
				return false
			}
		case types.String:
			if p.d.Kind != types.String {
				return false
			}
		default:
			return false
		}
	case PushPrefix:
		if ct != types.String {
			return false
		}
	case PushInSet:
		if ct != types.Int {
			return false
		}
	}
	p.idx, p.outIdx = ti, oi
	return true
}

// zonesPrune reports whether the segment's zone maps prove that no row can
// satisfy every pushed predicate; int, float, and string bounds all
// participate. Pruning is conservative: false only means "must evaluate".
func (s *colScan) zonesPrune(seg *colstore.Segment) bool {
	for i := range s.pushed {
		p := &s.pushed[i]
		z := &seg.Zones[p.idx]
		switch p.kind {
		case PushPrefix:
			if z.PruneStrPrefix(p.prefix) {
				return true
			}
		case PushCmp:
			if zonePruneCmp(z, s.v.Schema.Cols[p.idx].Type, p.op, p.d) {
				return true
			}
		}
	}
	return false
}

func zonePruneCmp(z *colstore.ZoneMap, ct types.ColType, op CmpOp, d types.Datum) bool {
	if op == NE {
		return false
	}
	switch ct {
	case types.Int:
		if d.Kind != types.Int {
			return false // mixed numeric comparand: row-filter only
		}
		lo, hi := intRange(op, d.I)
		return lo > hi || z.PruneInt(lo, hi)
	case types.Float:
		v := d.Float()
		switch op {
		case EQ:
			return z.PruneFloat(v, v)
		case LT, LE:
			return z.PruneFloat(math.Inf(-1), v)
		default: // GT, GE
			return z.PruneFloat(v, math.Inf(1))
		}
	case types.String:
		switch op {
		case EQ:
			return z.PruneStr(d.S, d.S, true)
		case LT, LE:
			return z.PruneStr("", d.S, true)
		default: // GT, GE
			return z.PruneStr(d.S, "", false)
		}
	}
	return false
}

// intRange is the INT interval [lo, hi] that `col op v` keeps (lo > hi
// when it keeps nothing); NE keeps the whole line.
func intRange(op CmpOp, v int64) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	switch op {
	case EQ:
		lo, hi = v, v
	case LT:
		if v == math.MinInt64 {
			return 0, -1
		}
		hi = v - 1
	case LE:
		hi = v
	case GT:
		if v == math.MaxInt64 {
			return 0, -1
		}
		lo = v + 1
	case GE:
		lo = v
	}
	return lo, hi
}

// IntBounds is how a scan reads a filter it does not apply itself: the
// tightest [lo, hi] that filter's pushable conjuncts with INT comparands
// place on column col, and whether any does. Rows outside the bounds fail
// the filter; rows inside may still fail it, so the plan keeps applying
// it. lo > hi means no row passes. A nil filter places no bounds.
func IntBounds(filter Expr, col string) (lo, hi int64, ok bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	for _, e := range splitConjuncts(filter, nil) {
		p, pushable := asColPred(e)
		if !pushable || p.kind != PushCmp || p.col != col || p.d.Kind != types.Int {
			continue
		}
		l, h := intRange(p.op, p.d.I)
		lo, hi, ok = max(lo, l), min(hi, h), true
	}
	return lo, hi, ok
}

// Pushable reports whether any conjunct of filter has a shape a scan can
// evaluate on encoded segments (and prune zone maps with). A nil filter
// has none.
func Pushable(filter Expr) bool {
	for _, e := range splitConjuncts(filter, nil) {
		if _, ok := asColPred(e); ok {
			return true
		}
	}
	return false
}

// computeSel evaluates the pushed predicates over the encoded vectors of
// m's segment: all-selected, minus the version's delete bitmap, minus every
// predicate's rejections. Returns (nil, true) when zone maps prune the whole segment.
// Deterministic for a fixed segment state, so DOP-1 and DOP-N scans select
// identical rows.
func (s *colScan) computeSel(m colstore.Morsel) (*bitmap.Bitmap, bool) {
	seg := m.Seg
	if s.zonesPrune(seg) {
		pushSegsPruned.Inc()
		return nil, true
	}
	sel := bitmap.New(seg.N)
	sel.Fill(seg.N)
	if m.Del.Any() {
		sel.AndNot(m.Del)
	}
	for i := range s.pushed {
		if sel.Count() == 0 {
			break
		}
		p := &s.pushed[i]
		v := seg.Cols[p.idx]
		var runs int
		switch p.kind {
		case PushPrefix:
			colstore.FilterStrPrefix(v.(colstore.StrVector), p.prefix, sel)
		case PushInSet:
			runs = colstore.FilterIntSet(v.(colstore.IntVector), p.set, sel)
		default:
			runs = colstore.FilterVec(v, predOp(p.op), p.d, sel)
		}
		if runs > 0 {
			pushRunsTotal.Add(int64(runs))
		}
	}
	if s.selObs != nil && seg.N > 0 {
		s.selObs(float64(sel.Count()) / float64(seg.N))
	}
	return sel, false
}

// matchOverlayRow applies every pushed predicate to a materialized overlay
// row (already projected to the scan's output schema).
func (s *colScan) matchOverlayRow(r types.Row) bool {
	for i := range s.pushed {
		if !s.pushed[i].matchRow(r) {
			return false
		}
	}
	return true
}

// gather appends v's values at ascending positions pos to dst — the late
// materialization step: only selected rows of projected columns decode.
func gather(dst *Col, v colstore.Vector, pos []int) {
	switch vv := v.(type) {
	case colstore.IntVector:
		if dst.Kind == types.Int {
			dst.Ints = colstore.GatherInts(vv, pos, dst.Ints)
			return
		}
	case colstore.FloatVector:
		if dst.Kind == types.Float {
			dst.Floats = colstore.GatherFloats(vv, pos, dst.Floats)
			return
		}
	case colstore.StrVector:
		if dst.Kind == types.String {
			dst.Strs = colstore.GatherStrs(vv, pos, dst.Strs)
			return
		}
	}
	for _, i := range pos {
		dst.Append(v.Datum(i))
	}
}
