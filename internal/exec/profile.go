// Query-level profiling: EXPLAIN ANALYZE operator statistics.
//
// Profiling is opt-in per plan. When a context carries a *QueryProfile
// (WithProfile), Plan.Ctx wraps the plan root — and derive wraps every
// operator added afterwards — in a statsOp that counts rows, batches, and
// wall time as batches flow through it. The wrapper is pass-through: it
// forwards batches untouched and delegates Split, so a profiled plan
// executes the same operators over the same morsels in the same order as
// an unprofiled one, and its rows are bit-identical at any fixed DOP (the
// golden test in internal/ch pins this). When no profile is attached,
// nothing is wrapped and the only cost is one context lookup per plan.
//
// Wall time is inclusive: an operator's time covers its children (the
// wrapper times Next calls, and blocking operators do their work inside
// the first Next). Under a parallel plan, part times sum across workers,
// so a root's wall time approximates CPU time, not elapsed time; the
// per-plan elapsed time is tracked separately by RunCtx.
package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"htap/internal/obs"
	"htap/internal/types"
)

var (
	profileQueriesTotal = obs.Default.Counter("htap_exec_profile_queries_total", nil)
	profilePlansTotal   = obs.Default.Counter("htap_exec_profile_plans_total", nil)
)

// OpStats is one operator's profile counters. Split parts share their
// operator's OpStats, so all fields are atomics.
type OpStats struct {
	rowsOut    atomic.Int64
	batches    atomic.Int64
	wallNS     atomic.Int64
	scanned    atomic.Int64 // pushdown path: rows whose selection bits were evaluated
	matzd      atomic.Int64 // pushdown path: rows late-materialized
	spillParts atomic.Int64 // spill partitions this operator created
}

// addSpillParts records spill partitions created by the operator; safe on
// a nil receiver so un-profiled spill paths cost one comparison.
func (st *OpStats) addSpillParts(n int) {
	if st != nil {
		st.spillParts.Add(int64(n))
	}
}

// annotate renders the bracketed stats suffix for one analyzed operator.
func (st *OpStats) annotate() string {
	var b strings.Builder
	fmt.Fprintf(&b, " [rows=%d batches=%d wall=%s",
		st.rowsOut.Load(), st.batches.Load(), fmtDur(st.wallNS.Load()))
	if sc := st.scanned.Load(); sc > 0 {
		m := st.matzd.Load()
		fmt.Fprintf(&b, " sel=%.1f%% scanned=%d materialized=%d",
			100*float64(m)/float64(sc), sc, m)
	}
	if sp := st.spillParts.Load(); sp > 0 {
		fmt.Fprintf(&b, " spill_parts=%d", sp)
	}
	b.WriteByte(']')
	return b.String()
}

func fmtDur(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// statAttacher is implemented by operators that feed counters into their
// wrapper's OpStats directly (scan selectivity, spill partitions).
type statAttacher interface {
	attachStats(*OpStats)
}

// statsOp wraps one operator, timing and counting its Next calls. Batches
// pass through untouched.
type statsOp struct {
	inner Source
	st    *OpStats
}

func newStatsOp(inner Source) *statsOp {
	s := &statsOp{inner: inner, st: &OpStats{}}
	if a, ok := inner.(statAttacher); ok {
		a.attachStats(s.st)
	}
	return s
}

func (s *statsOp) Schema() []types.Column { return s.inner.Schema() }

func (s *statsOp) Next() *Batch {
	start := time.Now()
	b := s.inner.Next()
	s.st.wallNS.Add(time.Since(start).Nanoseconds())
	if b != nil {
		s.st.rowsOut.Add(int64(b.N))
		s.st.batches.Add(1)
	}
	return b
}

// Split delegates to the wrapped operator and rewraps every part with the
// shared OpStats, so a split pipeline stays instrumented at every level
// and part counters aggregate into the one operator node.
func (s *statsOp) Split(n int) []Source {
	parts := trySplit(s.inner, n)
	if parts == nil {
		return nil
	}
	out := make([]Source, len(parts))
	for i, p := range parts {
		out[i] = &statsOp{inner: p, st: s.st}
	}
	return out
}

// explain delegates to the wrapped operator, so Plan.Explain renders a
// profiled plan identically to an unprofiled one.
func (s *statsOp) explain() (string, []Source) {
	return describe(s.inner)
}

// QueryProfile accumulates one query's execution profile: every plan the
// query ran (a CH query may run several), elapsed execution time, and the
// memory/spill footprint from the query's accountant. Safe for use by one
// query at a time; plans capture under the mutex.
type QueryProfile struct {
	mu         sync.Mutex
	arch       string
	plans      []string // analyzed plan renderings, in execution order
	execNS     int64
	admitNS    int64
	spillNS    int64
	spillBytes int64
	peakMem    int64
}

// NewQueryProfile returns an empty profile; thread it into execution with
// WithProfile.
func NewQueryProfile() *QueryProfile {
	profileQueriesTotal.Inc()
	return &QueryProfile{}
}

type profileCtxKey struct{}

// WithProfile returns a context carrying prof; plans whose Ctx sees it
// collect per-operator statistics into it.
func WithProfile(ctx context.Context, prof *QueryProfile) context.Context {
	return context.WithValue(orBackground(ctx), profileCtxKey{}, prof)
}

// ProfileFrom returns the profile carried by ctx, nil if none.
func ProfileFrom(ctx context.Context) *QueryProfile {
	if ctx == nil {
		return nil
	}
	prof, _ := ctx.Value(profileCtxKey{}).(*QueryProfile)
	return prof
}

// SetArch records the architecture label, first writer wins (one query
// runs on one engine).
func (qp *QueryProfile) SetArch(arch string) {
	if qp == nil {
		return
	}
	qp.mu.Lock()
	if qp.arch == "" {
		qp.arch = arch
	}
	qp.mu.Unlock()
}

// SetAdmitNS records the admission wait attributed to the query (servers
// measure it; local execution has none).
func (qp *QueryProfile) SetAdmitNS(ns int64) {
	if qp == nil {
		return
	}
	qp.mu.Lock()
	qp.admitNS = ns
	qp.mu.Unlock()
}

// AddRemote merges a server-side profile received over the wire: the
// rendered plan text plus the server's attributed times.
func (qp *QueryProfile) AddRemote(rendered string, execNS, admitNS, spillNS int64) {
	if qp == nil {
		return
	}
	qp.mu.Lock()
	if rendered != "" {
		qp.plans = append(qp.plans, rendered)
	}
	qp.execNS += execNS
	qp.admitNS += admitNS
	qp.spillNS += spillNS
	qp.mu.Unlock()
}

// ExecNS returns the summed elapsed execution time of the query's plans.
func (qp *QueryProfile) ExecNS() int64 {
	if qp == nil {
		return 0
	}
	qp.mu.Lock()
	defer qp.mu.Unlock()
	return qp.execNS
}

// AdmitNS returns the admission wait attributed to the query.
func (qp *QueryProfile) AdmitNS() int64 {
	if qp == nil {
		return 0
	}
	qp.mu.Lock()
	defer qp.mu.Unlock()
	return qp.admitNS
}

// SpillNS returns the spill I/O time attributed to the query.
func (qp *QueryProfile) SpillNS() int64 {
	if qp == nil {
		return 0
	}
	qp.mu.Lock()
	defer qp.mu.Unlock()
	return qp.spillNS
}

// Plans returns the analyzed plan renderings captured so far.
func (qp *QueryProfile) Plans() []string {
	if qp == nil {
		return nil
	}
	qp.mu.Lock()
	defer qp.mu.Unlock()
	out := make([]string, len(qp.plans))
	copy(out, qp.plans)
	return out
}

// capture records one executed plan: its analyzed rendering, its elapsed
// time, and the accountant's footprint. Accountant counters accumulate
// monotonically across a query's plans (CH queries share one accountant),
// so merging by max yields the query totals.
func (qp *QueryProfile) capture(p *Plan, elapsed time.Duration) {
	profilePlansTotal.Inc()
	rendered := p.ExplainAnalyze()
	qp.mu.Lock()
	qp.plans = append(qp.plans, rendered)
	qp.execNS += elapsed.Nanoseconds()
	if qm := p.qm; qm != nil {
		if v := qm.Peak(); v > qp.peakMem {
			qp.peakMem = v
		}
		if v := qm.SpillBytes(); v > qp.spillBytes {
			qp.spillBytes = v
		}
		if v := qm.SpillNS(); v > qp.spillNS {
			qp.spillNS = v
		}
	}
	qp.mu.Unlock()
	// Export the plan summary as span attributes when the query runs under
	// a trace, linking operator-level numbers into the distributed trace.
	if sp := obs.SpanFromContext(p.ctx); sp != nil {
		root, _ := describe(p.src)
		child := sp.Child("exec.plan").
			Attr("op", root).
			AttrInt("exec_ns", elapsed.Nanoseconds())
		if so, ok := p.src.(*statsOp); ok {
			child.AttrInt("rows", so.st.rowsOut.Load())
		}
		if qm := p.qm; qm != nil {
			child.AttrInt("peak_mem_bytes", qm.Peak()).
				AttrInt("spill_bytes", qm.SpillBytes())
		}
		child.End()
	}
}

// Render serializes the profile: a summary line plus each analyzed plan.
// This is the form the slow-query log retains and the wire protocol ships
// back to remote clients.
//
// A plan captured via AddRemote is itself a complete rendering (it starts
// with its own "profile:" header, carrying the server's arch and memory
// footprint); a profile that holds exactly one of those and nothing local
// — the ordinary remote-query case — renders as the server's profile
// verbatim rather than re-wrapping it under an empty local header.
func (qp *QueryProfile) Render() string {
	if qp == nil {
		return ""
	}
	qp.mu.Lock()
	defer qp.mu.Unlock()
	if len(qp.plans) == 1 && strings.HasPrefix(qp.plans[0], "profile:") {
		return qp.plans[0]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "profile: arch=%s exec=%s admit=%s spill=%s peak_mem=%dB spill_bytes=%dB\n",
		orDash(qp.arch), fmtDur(qp.execNS), fmtDur(qp.admitNS), fmtDur(qp.spillNS),
		qp.peakMem, qp.spillBytes)
	n := 0
	for _, pl := range qp.plans {
		if strings.HasPrefix(pl, "profile:") {
			fmt.Fprintf(&b, "remote:\n%s", pl)
			continue
		}
		n++
		fmt.Fprintf(&b, "plan %d:\n%s", n, pl)
	}
	return b.String()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// enableProfile attaches prof to the plan and wraps the root source; call
// on the plan root before adding operators (Ctx does).
func (p *Plan) enableProfile(prof *QueryProfile) *Plan {
	if p.err != nil || prof == nil {
		return p
	}
	p.prof = prof
	if _, ok := p.src.(*statsOp); !ok {
		p.src = newStatsOp(p.src)
	}
	return p
}

// Profile attaches a profile directly (the context-free equivalent of
// running under WithProfile); call on the plan root before adding
// operators.
func (p *Plan) Profile(prof *QueryProfile) *Plan {
	return p.enableProfile(prof)
}

// ExplainAnalyze renders the plan's operator tree in the same shape as
// Explain, annotated with each profiled operator's collected statistics.
// Run the plan first; an unexecuted plan renders zero counters, and an
// unprofiled plan renders without annotations.
func (p *Plan) ExplainAnalyze() string {
	var b strings.Builder
	analyzeInto(&b, p.src, 0)
	if p.qm != nil {
		fmt.Fprintf(&b, "memory: peak=%dB spill_bytes=%dB spill_parts=%d spill_io=%s\n",
			p.qm.Peak(), p.qm.SpillBytes(), p.qm.SpillParts(), fmtDur(p.qm.SpillNS()))
	}
	return b.String()
}

func analyzeInto(b *strings.Builder, s Source, depth int) {
	desc, children := describe(s)
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(desc)
	switch t := s.(type) {
	case *statsOp:
		b.WriteString(t.st.annotate())
	case *colScan:
		// A scan left unwrapped by a pushdown rewrite still carries its
		// attached counters; render the selectivity it observed.
		if st := t.st; st != nil {
			if sc := st.scanned.Load(); sc > 0 {
				m := st.matzd.Load()
				fmt.Fprintf(b, " [sel=%.1f%% scanned=%d materialized=%d]",
					100*float64(m)/float64(sc), sc, m)
			}
		}
	}
	b.WriteByte('\n')
	for _, c := range children {
		analyzeInto(b, c, depth+1)
	}
}
