// Memory governor: hierarchical budgets for analytical execution.
//
// The paper's resource-isolation chapter treats memory as the resource an
// HTAP node cannot overcommit: one oversized analytical query OOMs the
// process every tenant shares. The governor makes execution memory a
// budgeted resource with three nested levels — node, workload class, query
// — charged and released by the materializing operators (hash-join build,
// hash aggregation, sort) as their state grows. Going over budget is not an
// error: operators that can spill (join.go, agg.go, sort.go) degrade to
// partitioned disk-backed algorithms through the simulated disk substrate,
// so spill I/O is latency-charged and fault-injectable like every other
// I/O in the repository. Only an actual spill-I/O failure fails the query,
// and it fails cleanly: QueryMem records the first error, Plan.RunCtx
// returns it with nil rows, and Finish removes every spill file.
package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"htap/internal/disk"
	"htap/internal/obs"
	"htap/internal/types"
)

// Governor metrics (process-wide; every governor feeds them).
var (
	memBudgetGauge  = obs.Default.Gauge("htap_exec_mem_budget_bytes", nil)
	memUsedGauge    = obs.Default.Gauge("htap_exec_mem_used_bytes", nil)
	memPeakGauge    = obs.Default.Gauge("htap_exec_mem_query_peak_bytes", nil)
	memOverTotal    = obs.Default.Counter("htap_exec_mem_over_budget_total", nil)
	spillBytesTotal = obs.Default.Counter("htap_exec_spill_bytes_total", nil)
	spillReadTotal  = obs.Default.Counter("htap_exec_spill_read_bytes_total", nil)
	spillPartsTotal = obs.Default.Counter("htap_exec_spill_partitions_total", nil)
	spillFilesGauge = obs.Default.Gauge("htap_exec_spill_files", nil)
	spillRetryTotal = obs.Default.Counter("htap_exec_spill_retries_total", nil)

	spillsJoin = obs.Default.Counter("htap_exec_spills_total", obs.L("op", "join"))
	spillsAgg  = obs.Default.Counter("htap_exec_spills_total", obs.L("op", "agg"))
	spillsSort = obs.Default.Counter("htap_exec_spills_total", obs.L("op", "sort"))
)

// Governor is the node-level memory accountant. Budgets nest: the node
// limit caps the sum over all classes, a class limit caps its queries, and
// a per-query limit caps one query. Any exceeded level makes the owning
// queries' operators spill. A zero limit at any level means "unlimited" at
// that level (the other levels still apply).
type Governor struct {
	limit int64
	dev   *disk.Device

	used       atomic.Int64
	qseq       atomic.Int64
	queryLimit atomic.Int64 // default per-query budget; 0 = none

	mu      sync.Mutex
	classes map[string]*ClassGov

	// Per-governor stats, so tests and the chaos gate can assert on one
	// governor without untangling the process-wide metric series.
	overBudget atomic.Int64
	spillBytes atomic.Int64
	spillRead  atomic.Int64
	spills     atomic.Int64
	liveFiles  atomic.Int64
	peak       atomic.Int64 // max per-query peak observed
}

// DefaultClass is the class queries charge when none is named; analytical
// execution is the only spender today.
const DefaultClass = "olap"

// NewGovernor builds a governor with the given node budget in bytes
// (0 = unlimited) spilling through dev; a nil dev gets an uncharged
// in-memory device.
func NewGovernor(limit int64, dev *disk.Device) *Governor {
	if dev == nil {
		dev = disk.New(disk.MemConfig())
	}
	g := &Governor{limit: limit, dev: dev, classes: map[string]*ClassGov{}}
	memBudgetGauge.SetInt(limit)
	return g
}

// SetQueryLimit sets the default per-query budget applied by StartQuery
// (0 = none).
func (g *Governor) SetQueryLimit(n int64) { g.queryLimit.Store(n) }

// Class returns the named class accountant, creating it with the given
// limit (0 = unlimited). The limit of an existing class is left unchanged.
func (g *Governor) Class(name string, limit int64) *ClassGov {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.classes[name]
	if c == nil {
		c = &ClassGov{g: g, name: name, limit: limit}
		g.classes[name] = c
	}
	return c
}

// StartQuery opens a query-level accountant in the default class. The
// caller must Finish it (Plan.RunCtx does, for plans carrying it).
func (g *Governor) StartQuery() *QueryMem {
	return g.Class(DefaultClass, 0).StartQuery()
}

// Device returns the spill device.
func (g *Governor) Device() *disk.Device { return g.dev }

// Limit returns the node budget in bytes (0 = unlimited).
func (g *Governor) Limit() int64 { return g.limit }

// Used returns the bytes currently charged across all queries.
func (g *Governor) Used() int64 { return g.used.Load() }

// Pressure returns Used/Limit, or 0 when the node budget is unlimited.
// The server's admission control sheds OLAP work above a threshold.
func (g *Governor) Pressure() float64 {
	if g.limit <= 0 {
		return 0
	}
	return float64(g.used.Load()) / float64(g.limit)
}

// SpillBytes returns the bytes this governor's queries spilled to disk.
func (g *Governor) SpillBytes() int64 { return g.spillBytes.Load() }

// SpillReadBytes returns the spill bytes read back.
func (g *Governor) SpillReadBytes() int64 { return g.spillRead.Load() }

// Spills returns how many operators switched to a spilling algorithm.
func (g *Governor) Spills() int64 { return g.spills.Load() }

// LiveSpillFiles returns the number of spill files currently on disk;
// zero once every query has finished.
func (g *Governor) LiveSpillFiles() int64 { return g.liveFiles.Load() }

// OverBudget returns how often an operator had to keep state in memory
// despite the budget (degradation ladder exhausted: recursion depth cap,
// or the final aggregate group set).
func (g *Governor) OverBudget() int64 { return g.overBudget.Load() }

// MaxQueryPeak returns the largest per-query charged peak observed, the
// "materialized footprint" the chaos gate sizes its hostile budget from.
func (g *Governor) MaxQueryPeak() int64 { return g.peak.Load() }

// ClassGov is one workload class's accountant.
type ClassGov struct {
	g     *Governor
	name  string
	limit int64
	used  atomic.Int64
}

// StartQuery opens a query-level accountant in this class with the
// governor's default per-query budget.
func (c *ClassGov) StartQuery() *QueryMem {
	q := &QueryMem{g: c.g, c: c, id: c.g.qseq.Add(1), limit: c.g.queryLimit.Load()}
	return q
}

// QueryMem is one query's memory accountant and spill-file registry. All
// methods are safe on a nil receiver (no governor attached: charging is
// free and Over never holds), and Grow/Shrink/file methods are safe for
// concurrent use by parallel plan parts.
type QueryMem struct {
	g     *Governor
	c     *ClassGov
	id    int64
	limit int64

	used atomic.Int64
	peak atomic.Int64
	seq  atomic.Int64

	// Per-query spill accounting (the governor-level counters aggregate
	// across queries); query profiles and EXPLAIN ANALYZE read these.
	spillB     atomic.Int64 // bytes written to spill files
	spillNS    atomic.Int64 // time spent in spill I/O (writes + reads)
	spillParts atomic.Int64 // spill partitions/runs created

	mu    sync.Mutex
	files map[string]struct{}
	err   error
}

// SetLimit overrides this query's budget (0 = none). Call before running
// the plan.
func (q *QueryMem) SetLimit(n int64) {
	if q != nil {
		q.limit = n
	}
}

// Grow charges n bytes against the query, class, and node budgets.
func (q *QueryMem) Grow(n int64) {
	if q == nil || n == 0 {
		return
	}
	u := q.used.Add(n)
	for {
		p := q.peak.Load()
		if u <= p || q.peak.CompareAndSwap(p, u) {
			break
		}
	}
	q.c.used.Add(n)
	memUsedGauge.SetInt(q.g.used.Add(n))
}

// Shrink releases n bytes.
func (q *QueryMem) Shrink(n int64) {
	if q == nil || n == 0 {
		return
	}
	q.used.Add(-n)
	q.c.used.Add(-n)
	memUsedGauge.SetInt(q.g.used.Add(-n))
}

// Over reports whether any budget level is exceeded; operators consult it
// at growth points and switch to their spilling algorithm when it holds.
func (q *QueryMem) Over() bool {
	if q == nil {
		return false
	}
	if q.limit > 0 && q.used.Load() > q.limit {
		return true
	}
	if q.c.limit > 0 && q.c.used.Load() > q.c.limit {
		return true
	}
	return q.g.limit > 0 && q.g.used.Load() > q.g.limit
}

// Fail records the first spill failure. The query's operators stop
// producing and Plan.RunCtx reports the error with nil rows.
func (q *QueryMem) Fail(err error) {
	if q == nil || err == nil {
		return
	}
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.mu.Unlock()
}

// Err returns the recorded spill failure, if any.
func (q *QueryMem) Err() error {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// noteOver counts a degradation-ladder exhaustion: state kept in memory
// despite the budget.
func (q *QueryMem) noteOver() {
	if q == nil {
		return
	}
	q.g.overBudget.Add(1)
	memOverTotal.Inc()
}

// noteSpill counts one operator switching to its spilling algorithm.
func (q *QueryMem) noteSpill(c *obs.Counter, partitions int) {
	if q == nil {
		return
	}
	c.Inc()
	q.g.spills.Add(1)
	q.spillParts.Add(int64(partitions))
	spillPartsTotal.Add(int64(partitions))
}

// addSpillParts counts additional spill partitions (external-sort runs
// beyond the first note).
func (q *QueryMem) addSpillParts(n int64) {
	if q != nil {
		q.spillParts.Add(n)
	}
}

// noteSpillIO charges spill I/O to the query: bytes written (reads pass
// 0) and the time the device spent on the transfer.
func (q *QueryMem) noteSpillIO(bytes int64, ns int64) {
	if q == nil {
		return
	}
	q.spillB.Add(bytes)
	q.spillNS.Add(ns)
}

// Peak returns the query's peak charged bytes.
func (q *QueryMem) Peak() int64 {
	if q == nil {
		return 0
	}
	return q.peak.Load()
}

// SpillBytes returns the bytes this query wrote to spill files.
func (q *QueryMem) SpillBytes() int64 {
	if q == nil {
		return 0
	}
	return q.spillB.Load()
}

// SpillNS returns the time this query spent in spill I/O, nanoseconds.
func (q *QueryMem) SpillNS() int64 {
	if q == nil {
		return 0
	}
	return q.spillNS.Load()
}

// SpillParts returns the spill partitions/runs this query created.
func (q *QueryMem) SpillParts() int64 {
	if q == nil {
		return 0
	}
	return q.spillParts.Load()
}

// newFile registers and names a fresh spill file. Names are unique per
// query and process-unique via the query id, so concurrent plan parts
// never collide.
func (q *QueryMem) newFile(kind string) string {
	name := fmt.Sprintf("spill/q%d/%s-%d", q.id, kind, q.seq.Add(1))
	q.mu.Lock()
	if q.files == nil {
		q.files = map[string]struct{}{}
	}
	q.files[name] = struct{}{}
	q.mu.Unlock()
	spillFilesGauge.SetInt(q.g.liveFiles.Add(1))
	return name
}

// removeFile deletes a consumed spill file eagerly, keeping the disk
// footprint bounded by the live working set rather than the query's total
// spill volume.
func (q *QueryMem) removeFile(name string) {
	q.mu.Lock()
	_, ok := q.files[name]
	delete(q.files, name)
	q.mu.Unlock()
	if ok {
		q.g.dev.Remove(name)
		spillFilesGauge.SetInt(q.g.liveFiles.Add(-1))
	}
}

// Finish releases all residual charges and removes every remaining spill
// file. It drains rather than latching: a query that keeps executing
// after an intermediate Finish (a CH query materializing a subquery plan
// mid-build) is cleaned up fully by the final Finish. Safe after failure;
// Plan.RunCtx calls it, and defensive callers (ch.RunQuery) call it again.
func (q *QueryMem) Finish() {
	if q == nil {
		return
	}
	if u := q.used.Swap(0); u != 0 {
		q.c.used.Add(-u)
		memUsedGauge.SetInt(q.g.used.Add(-u))
	}
	p := q.peak.Load()
	for {
		gp := q.g.peak.Load()
		if p <= gp || q.g.peak.CompareAndSwap(gp, p) {
			break
		}
	}
	memPeakGauge.SetInt(q.g.peak.Load())
	q.mu.Lock()
	files := make([]string, 0, len(q.files))
	for f := range q.files {
		files = append(files, f)
	}
	q.files = nil
	q.mu.Unlock()
	for _, f := range files {
		q.g.dev.Remove(f)
		spillFilesGauge.SetInt(q.g.liveFiles.Add(-1))
	}
}

// --- size estimation ---

// datumBytes estimates the in-memory footprint of one datum: the Datum
// struct plus string payload.
func datumBytes(d types.Datum) int64 {
	n := int64(32)
	if d.Kind == types.String {
		n += int64(len(d.S))
	}
	return n
}

// rowBytes estimates a materialized row's footprint.
func rowBytes(r types.Row) int64 {
	n := int64(24) // slice header
	for _, d := range r {
		n += datumBytes(d)
	}
	return n
}

// rowsBytes is rowBytes summed over b's rows, without materializing them.
func rowsBytes(b *Batch) int64 {
	n := int64(b.N) * (24 + 32*int64(len(b.Cols)))
	for _, c := range b.Cols {
		for _, str := range c.Strs {
			n += int64(len(str))
		}
	}
	return n
}

// batchAppendBytes estimates the cost of appending batch b to columnar
// operator state: 8 bytes per scalar cell, string payloads at length.
func batchAppendBytes(b *Batch) int64 {
	var n int64
	for _, c := range b.Cols {
		switch c.Kind {
		case types.String:
			for _, s := range c.Strs {
				n += int64(len(s)) + 16
			}
		default:
			n += int64(b.N) * 8
		}
	}
	return n
}
