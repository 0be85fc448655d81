package exec

import (
	"context"
	"errors"
	"sort"

	"htap/internal/bitmap"
	"htap/internal/colstore"
	"htap/internal/delta"
	"htap/internal/rowstore"
	"htap/internal/types"
)

// --- memory source ---

type memSource struct {
	schema []types.Column
	rows   []types.Row
	pos    int
}

// NewMemSource serves pre-materialized rows; tests and delta overlays use
// it.
func NewMemSource(schema []types.Column, rows []types.Row) Source {
	return &memSource{schema: schema, rows: rows}
}

func (s *memSource) Schema() []types.Column { return s.schema }

func (s *memSource) Next() *Batch { return nextRows(s.schema, s.rows, &s.pos) }

// Split partitions the remaining rows into contiguous ranges sharing the
// backing slice; part-order concatenation reproduces the sequential scan.
func (s *memSource) Split(n int) []Source {
	rows := s.rows[s.pos:]
	s.pos = len(s.rows)
	if len(rows) == 0 {
		return nil
	}
	chunk := (len(rows) + n - 1) / n
	var parts []Source
	for lo := 0; lo < len(rows); lo += chunk {
		hi := lo + chunk
		if hi > len(rows) {
			hi = len(rows)
		}
		parts = append(parts, &memSource{schema: s.schema, rows: rows[lo:hi]})
	}
	return parts
}

// --- row-store scan ---

// NewRowScan scans the row store at snapshot ts, projecting cols (all
// columns when nil). This is the row-side access path of the hybrid
// row/column technique. The scan only reads filter (nil = none): the
// bounds its conjuncts place on the key column narrow the B+-tree walk,
// the "row-based index scan" half of the paper's hybrid SPJ example, and
// the plan still applies the filter itself. The scan materializes eagerly
// but polls ctx every few hundred rows, so a cancelled query abandons the
// walk instead of finishing it; the truncated result is discarded by
// Plan.RunCtx, which reports the context error.
func NewRowScan(ctx context.Context, st *rowstore.Store, ts uint64, cols []string, filter Expr) Source {
	ctx = orBackground(ctx)
	schema, idxs := projectSchema(st.Schema, cols)
	var rows []types.Row
	lo, hi, _ := IntBounds(filter, st.Schema.Cols[st.Schema.KeyCol].Name)
	n := 0
	st.ScanRange(ts, lo, hi, func(_ int64, r types.Row) bool {
		if n++; n&255 == 0 && ctx.Err() != nil {
			return false
		}
		out := make(types.Row, len(idxs))
		for i, c := range idxs {
			out[i] = r[c]
		}
		rows = append(rows, out)
		return true
	})
	return NewMemSource(schema, rows)
}

func projectSchema(s *types.Schema, cols []string) ([]types.Column, []int) {
	if cols == nil {
		idxs := make([]int, len(s.Cols))
		for i := range idxs {
			idxs[i] = i
		}
		return s.Cols, idxs
	}
	schema := make([]types.Column, len(cols))
	idxs := make([]int, len(cols))
	for i, name := range cols {
		j := s.MustCol(name)
		schema[i] = s.Cols[j]
		idxs[i] = j
	}
	return schema, idxs
}

// --- column-store scan ---

// colScan is a cursor over the table's morsels followed by the delta
// overlay's rows. An unsplit scan is the one-part case: Split hands
// contiguous morsel ranges, and the overlay rows, to parts of this same
// type, so every degree of parallelism runs the one loop in Next.
type colScan struct {
	ctx     context.Context
	v       *colstore.Version
	schema  []types.Column
	idxs    []int
	overlay *delta.Overlay

	morsels []colstore.Morsel // unscanned morsels; the head may be partly scanned
	overRem []types.Row
	done    bool

	// Cursor: the head morsel's next row (-1 before it is entered) and the
	// segment it lies in — whether zone maps pruned the segment, and the
	// selection its rows pass: the pushed predicates' bitmap (sel), else
	// the live rows of the version's delete bitmap (del).
	row    int
	seg    *colstore.Segment
	skip   bool
	sel    *bitmap.Bitmap
	del    *bitmap.Bitmap
	posBuf []int

	// Pushed-down predicates (see pushdown.go): evaluated on encoded
	// vectors into a per-segment selection bitmap; rows are then
	// late-materialized from the selected positions only.
	pushed []colPred
	selObs func(sel float64)

	// Profiling (nil when disabled): scanned/materialized row counters the
	// pushed path feeds, shared with split parts.
	st *OpStats
}

func (s *colScan) attachStats(st *OpStats) { s.st = st }

// NewColScan scans one version of a column table, merging an optional
// delta overlay: the paper's "in-memory delta and column scan" when the
// overlay comes from a Mem delta, its "log-based delta and column scan"
// when it comes from a Log delta, and its pure "column scan" when the
// overlay is nil. A filter reaches the scan through Plan.Filter, whose
// pushed conjuncts prune segments by their zone maps. The version is
// immutable, so the scan reads one state of the table however long it
// runs. The scan polls ctx between batches, so cancelling the context
// stops a multi-segment scan mid-flight; Plan.RunCtx surfaces the context
// error.
func NewColScan(ctx context.Context, v *colstore.Version, cols []string, overlay *delta.Overlay) Source {
	schema, idxs := projectSchema(v.Schema, cols)
	s := &colScan{ctx: orBackground(ctx), v: v, schema: schema, idxs: idxs, overlay: overlay, row: -1}
	s.morsels = v.Morsels(MorselRows)
	if overlay != nil {
		// Materialize in key order: overlay.Rows is a map, and map
		// iteration order must not leak into query results.
		keys := make([]int64, 0, len(overlay.Rows))
		for k := range overlay.Rows {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			r := overlay.Rows[k]
			out := make(types.Row, len(idxs))
			for i, c := range idxs {
				out[i] = r[c]
			}
			s.overRem = append(s.overRem, out)
		}
	}
	return s
}

func (s *colScan) Schema() []types.Column { return s.schema }

// Next packs up to BatchSize rows across morsel and segment boundaries,
// then tops the batch up from the overlay rows.
func (s *colScan) Next() *Batch {
	if s.done {
		return nil
	}
	if s.ctx.Err() != nil {
		// Cancelled or past deadline: abandon the remaining segments. The
		// batch-granular check bounds post-cancel work to one batch.
		s.done = true
		return nil
	}
	b := NewBatch(s.schema, BatchSize)
	for b.N < BatchSize && len(s.morsels) > 0 {
		m := s.morsels[0]
		if s.row < 0 {
			s.enter(m)
		}
		if !s.skip {
			s.gatherRows(b, m)
		}
		if s.skip || s.row >= m.Hi {
			s.morsels = s.morsels[1:]
			s.row = -1
		}
	}
	for b.N < BatchSize && len(s.overRem) > 0 {
		r := s.overRem[len(s.overRem)-1]
		s.overRem = s.overRem[:len(s.overRem)-1]
		if len(s.pushed) > 0 && !s.matchOverlayRow(r) {
			continue
		}
		b.AppendRow(r)
	}
	if b.N == 0 {
		s.done = true
		return nil
	}
	return b
}

// enter starts morsel m. On the first morsel of a segment its selection
// is built: computeSel, which may prune the segment by its zone maps, when
// predicates are pushed, otherwise the morsel's delete bitmap, read as its
// clear bits.
func (s *colScan) enter(m colstore.Morsel) {
	s.row = m.Lo
	if m.Seg != s.seg {
		s.seg = m.Seg
		if len(s.pushed) > 0 {
			s.sel, s.skip = s.computeSel(m)
		} else {
			s.del = m.Del
		}
	}
	if !s.skip && len(s.pushed) > 0 {
		pushRowsScanned.Add(int64(m.Hi - m.Lo))
		if s.st != nil {
			s.st.scanned.Add(int64(m.Hi - m.Lo))
		}
	}
}

// gatherRows late-materializes the head morsel's selected rows from s.row
// on, minus the keys the overlay masks, until b holds BatchSize rows: the
// one place rows leave column segments. Only projected columns decode,
// through the typed Gather kernels.
func (s *colScan) gatherRows(b *Batch, m colstore.Morsel) {
	if s.posBuf == nil {
		s.posBuf = make([]int, 0, BatchSize)
	}
	pos := s.posBuf[:0]
	i := s.row
	for ; i < m.Hi && b.N+len(pos) < BatchSize; i++ {
		if s.sel != nil {
			if i = s.sel.NextSet(i); i < 0 || i >= m.Hi {
				i = m.Hi
				break
			}
		} else if s.del.Get(i) {
			continue
		}
		if s.overlay != nil {
			if _, masked := s.overlay.Masked[m.Seg.Keys[i]]; masked {
				continue
			}
		}
		pos = append(pos, i)
	}
	s.row = i
	if len(pos) == 0 {
		return
	}
	for c, idx := range s.idxs {
		gather(b.Cols[c], m.Seg.Cols[idx], pos)
	}
	b.N += len(pos)
	if len(s.pushed) > 0 {
		pushRowsMat.Add(int64(len(pos)))
		if s.st != nil {
			s.st.matzd.Add(int64(len(pos)))
		}
	}
}

// Split cuts the unstarted scan into parts over contiguous runs of
// morsels, one per worker, plus a trailing part holding the overlay rows.
// Boundaries depend only on segment sizes and n — so repeated runs at the
// same parallelism degree touch rows in the same order — and part-order
// concatenation equals the unsplit scan. The morsels handed out are what
// htap_exec_morsels_total counts.
func (s *colScan) Split(n int) []Source {
	if s.done || s.seg != nil {
		return nil
	}
	s.done = true
	morselsTotal.Add(int64(len(s.morsels)))
	chunk := (len(s.morsels) + n - 1) / n
	var parts []Source
	for lo := 0; lo < len(s.morsels); lo += chunk {
		parts = append(parts, s.part(s.morsels[lo:min(lo+chunk, len(s.morsels))], nil))
	}
	if len(s.overRem) > 0 {
		parts = append(parts, s.part(nil, s.overRem))
	}
	return parts
}

// part is a fresh cursor over ms and over. Parts share the scan's
// immutable version, predicates, overlay and profiling counters.
func (s *colScan) part(ms []colstore.Morsel, over []types.Row) *colScan {
	p := *s
	p.morsels, p.overRem, p.done = ms, over, false
	return &p
}

// --- union ---

type unionSource struct {
	srcs []Source
	cur  int
}

// attachStats forwards the profiling node to scan children, so a wrapped
// union aggregates its layers' pushdown selectivity into one node.
func (s *unionSource) attachStats(st *OpStats) {
	for _, c := range s.srcs {
		if a, ok := c.(statAttacher); ok {
			a.attachStats(st)
		}
	}
}

// errSource is a source that exists only to carry a construction-time
// error. It yields no rows; From recognizes it and returns an
// error-carrying plan (FromError), so misconstructed sources surface as
// query errors instead of panics or silently empty tables.
type errSource struct{ err error }

func (s *errSource) Schema() []types.Column { return nil }
func (s *errSource) Next() *Batch           { return nil }

// NewUnion concatenates sources with identical schemas; layered stores
// (main + delta layers) scan as a union. A union of zero sources is a
// construction error: the result carries it (see errSource) rather than
// panicking, and a plan built from it reports the error when run.
func NewUnion(srcs ...Source) Source {
	if len(srcs) == 0 {
		return &errSource{err: errors.New("exec: union of zero sources")}
	}
	for _, s := range srcs {
		if es, ok := s.(*errSource); ok {
			return es
		}
	}
	for _, s := range srcs[1:] {
		if len(s.Schema()) != len(srcs[0].Schema()) {
			panic("exec: union schema mismatch")
		}
	}
	return &unionSource{srcs: srcs}
}

func (s *unionSource) Schema() []types.Column { return s.srcs[0].Schema() }

func (s *unionSource) Next() *Batch {
	for s.cur < len(s.srcs) {
		if b := s.srcs[s.cur].Next(); b != nil {
			return b
		}
		s.cur++
	}
	return nil
}

// Split partitions every child and concatenates the parts in child order,
// so part-order concatenation preserves the union's sequential row order.
// Children that cannot split become single parts, which still parallelizes
// a union of shards across the shards themselves.
func (s *unionSource) Split(n int) []Source {
	if s.cur > 0 {
		return nil
	}
	s.cur = len(s.srcs)
	per := (n + len(s.srcs) - 1) / len(s.srcs)
	var parts []Source
	for _, c := range s.srcs {
		if ps := trySplit(c, per); ps != nil {
			parts = append(parts, ps...)
		} else {
			parts = append(parts, c)
		}
	}
	return parts
}
