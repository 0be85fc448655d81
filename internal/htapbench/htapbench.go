// Package htapbench implements the mixed-workload execution rules and
// metrics of the paper's §2.3.
//
// Two end-to-end execution rules are provided:
//
//   - CH-benCHmark rule (Run with TargetTpmC == 0): OLTP workers and OLAP
//     streams run unthrottled side by side; the benchmark reports both
//     tpmC (New-Order transactions per minute) and QphH (analytical
//     queries per hour), plus freshness samples.
//   - HTAPBench rule (TargetTpmC > 0): the OLTP side is paced to a fixed
//     transaction rate and the metric of interest is the QphH the system
//     sustains at that guaranteed OLTP service level — HTAPBench's
//     "business value under a transactional SLA" idea.
//
// The isolation/freshness evaluation practice of §2.3(2) is covered by
// RunIsolationProbe, which measures OLTP degradation caused by turning the
// OLAP side on.
package htapbench

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"htap/internal/ch"
	"htap/internal/core"
	"htap/internal/exec"
	"htap/internal/obs"
	"htap/internal/types"
)

// Engine is what a mixed run drives: the CH workload surface plus the
// sync and freshness hooks the harness samples. core.Engine satisfies it;
// so does the network client's remote engine, which is how cmd/chbench
// -remote reuses this harness unchanged over the wire.
type Engine interface {
	ch.Engine
	Arch() core.Arch
	Query(ctx context.Context, table string, cols []string, filter exec.Expr) *exec.Plan
	Sync()
	Freshness() core.Freshness
}

// CHRunner is an optional Engine refinement: execute CH query n where the
// data lives and return only the result rows. The network client provides
// it so AP streams ship one small aggregated result per query instead of
// pulling whole tables through client-side joins.
type CHRunner interface {
	RunCH(ctx context.Context, n int) ([]types.Row, error)
}

// Config parameterizes a mixed run.
type Config struct {
	Engine    Engine
	Scale     ch.Scale
	TPWorkers int
	APStreams int
	Duration  time.Duration
	// QuerySet lists the CH query numbers the AP streams cycle through
	// (nil = all 22).
	QuerySet []int
	// TargetTpmC, when positive, paces the OLTP side (HTAPBench rule).
	TargetTpmC float64
	// SyncInterval runs engine.Sync in the background (0 = none).
	SyncInterval time.Duration
	Seed         int64
	// Profile enables per-query profiling on the AP streams: every
	// analytical query runs under a root trace span and an EXPLAIN
	// ANALYZE profile (propagated over the wire in remote mode), feeding
	// Result.QueryBreakdown and the Slowest* fields. The OLTP side is
	// never profiled — the wrappers would be pure overhead on point
	// transactions.
	Profile bool
	// Ctx, when non-nil, bounds the whole run: cancelling it stops the
	// workers early, and in-flight queries abandon their scans.
	Ctx context.Context
}

// Result reports the metrics of one run.
type Result struct {
	Elapsed time.Duration

	Txns     int64
	NewOrder int64
	TpmC     float64 // New-Order transactions per minute
	TPS      float64 // all transactions per second

	Queries int64
	QphH    float64 // analytical queries per hour

	TxnErrors int64
	// QueryErrors counts AP queries that failed or were shed; they are
	// excluded from Queries, QphH, and the latency histograms.
	QueryErrors int64

	AvgTxnLatency   time.Duration
	AvgQueryLatency time.Duration

	// Per-class latency distributions: one entry per TPC-C transaction
	// class that ran and one per CH query (Q1..Q22) in the query set.
	TxnClasses   []ClassLatency
	QueryClasses []ClassLatency

	// Freshness samples (staleness of the analytical view).
	FreshAvgLagTS   float64
	FreshMaxLagTS   uint64
	FreshAvgLagTime time.Duration
	FreshMaxLagTime time.Duration

	// Late-materialization accounting across the run: rows the pushed-down
	// scans considered versus rows they decoded (deltas of the process-wide
	// htap_exec_pushdown_* counters, see DESIGN.md "Late materialization &
	// predicate pushdown"). RowsMaterializedPerQuery averages the decoded
	// rows over the successful analytical queries. All three stay zero in
	// remote mode, where queries execute in the server process.
	PushdownScannedRows      int64
	PushdownMaterializedRows int64
	RowsMaterializedPerQuery float64

	// QueryBreakdown attributes each query class's tail latency to
	// admission wait, execution, and spill I/O (Profile mode only). The
	// three p99s come from separate histograms, so they need not sum to
	// the end-to-end class p99.
	QueryBreakdown []ClassBreakdown
	// Slowest* describe the single slowest successful profiled query:
	// its class, duration, and rendered EXPLAIN ANALYZE tree.
	SlowestClass   string
	SlowestDur     time.Duration
	SlowestProfile string
}

// ClassBreakdown is the attributed latency split of one query class.
type ClassBreakdown struct {
	Class    string
	Count    int64
	AdmitP99 time.Duration
	ExecP99  time.Duration
	SpillP99 time.Duration
}

// ClassLatency is the latency distribution of one workload class within a
// run (percentiles are histogram estimates, ~3% relative error).
type ClassLatency struct {
	Class string
	Count int64
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
}

// classHist records one class's latencies twice: into a run-local histogram
// (the Result percentiles must cover this run only) and into the registered
// htap_bench_* series (cumulative across runs, scraped via -metrics).
type classHist struct {
	local *obs.Histogram
	reg   *obs.Histogram
}

func newClassHist(metric, arch, class string) *classHist {
	return &classHist{
		local: obs.NewHistogram(),
		reg:   obs.Default.Histogram(metric, obs.L("arch", arch, "class", class)),
	}
}

func (c *classHist) observe(d time.Duration) {
	c.local.ObserveDuration(d)
	c.reg.ObserveDuration(d)
}

func (c *classHist) latency(class string) ClassLatency {
	qs := c.local.Quantiles(0.5, 0.95, 0.99)
	return ClassLatency{
		Class: class, Count: int64(c.local.Count()),
		P50: time.Duration(qs[0]), P95: time.Duration(qs[1]), P99: time.Duration(qs[2]),
	}
}

// Run executes the mixed workload and reports metrics.
func Run(cfg Config) Result {
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	root := cfg.Ctx
	if root == nil {
		root = context.Background()
	}
	// The run context is cancelled when the measurement window closes, so
	// in-flight transactions and queries stop scanning instead of
	// overrunning the window.
	ctx, cancel := context.WithCancel(root)
	defer cancel()
	driver := ch.NewDriver(cfg.Engine, cfg.Scale)
	queries := pickQueries(cfg.QuerySet)

	// Per-class histograms, keyed by TPC-C class and CH query number. The
	// maps are built before the workers start and only read concurrently.
	archL := cfg.Engine.Arch().Label()
	txnHists := make(map[ch.TxnType]*classHist, 5)
	for t := ch.NewOrderTxn; t <= ch.StockLevelTxn; t++ {
		txnHists[t] = newClassHist("htap_bench_txn_duration_ns", archL, t.String())
	}
	queryHists := make(map[int]*classHist, len(queries))
	for _, q := range queries {
		queryHists[q.num] = newClassHist("htap_bench_query_duration_ns", archL, fmt.Sprintf("q%d", q.num))
	}

	// Attributed-latency histograms and slowest-query tracking (Profile
	// mode). Run-local only: the split is a per-run result, not a
	// process-wide series.
	var breakHists map[int]*breakdown
	if cfg.Profile {
		breakHists = make(map[int]*breakdown, len(queries))
		for _, q := range queries {
			breakHists[q.num] = &breakdown{
				admit: obs.NewHistogram(), exec: obs.NewHistogram(), spill: obs.NewHistogram(),
			}
		}
	}
	var (
		slowMu      sync.Mutex
		slowDur     time.Duration
		slowClass   string
		slowProfile string
	)

	var (
		stop       atomic.Bool
		txnErrs    atomic.Int64
		txnNanos   atomic.Int64
		queryCount atomic.Int64
		queryErrs  atomic.Int64
		queryNanos atomic.Int64
		wg         sync.WaitGroup
	)

	// Pacing for the HTAPBench rule: a token bucket at TargetTpmC/60 tps.
	var tokens chan struct{}
	if cfg.TargetTpmC > 0 {
		tokens = make(chan struct{}, 64)
		interval := time.Duration(float64(time.Minute) / cfg.TargetTpmC)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for !stop.Load() {
				<-tick.C
				select {
				case tokens <- struct{}{}:
				default:
				}
			}
		}()
	}

	for w := 0; w < cfg.TPWorkers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*1000 + seed))
			for !stop.Load() {
				if tokens != nil {
					select {
					case <-tokens:
					case <-time.After(time.Millisecond):
						continue
					}
				}
				start := time.Now()
				t, err := driver.RunOneTyped(ctx, rng)
				if err != nil {
					if ctx.Err() != nil {
						return // window closed mid-transaction: not an error
					}
					txnErrs.Add(1)
				} else {
					el := time.Since(start)
					txnNanos.Add(int64(el))
					txnHists[t].observe(el)
				}
			}
		}(int64(w))
	}

	for s := 0; s < cfg.APStreams; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*7777 + seed))
			runner, _ := cfg.Engine.(CHRunner)
			for !stop.Load() {
				q := queries[rng.Intn(len(queries))]
				qctx := ctx
				var prof *exec.QueryProfile
				var sp *obs.Span
				if cfg.Profile {
					// Root the trace at the client so remote retries and the
					// server-side spans all hang off one trace.
					prof = exec.NewQueryProfile()
					sp = obs.Trace.Start("client.query").AttrInt("q", int64(q.num))
					qctx = exec.WithProfile(obs.ContextWithSpan(ctx, sp), prof)
				}
				start := time.Now()
				var qerr error
				if runner != nil {
					_, qerr = runner.RunCH(qctx, q.num)
				} else {
					_, qerr = ch.RunQuery(qctx, cfg.Engine, q.num)
				}
				if sp != nil {
					sp.End()
				}
				if ctx.Err() != nil {
					return // window closed mid-query: the result is partial
				}
				if qerr != nil {
					// Shed (ErrOverloaded) or failed queries return in
					// backoff time, not scan time: counting them would
					// inflate QphH and skew the latency histograms.
					queryErrs.Add(1)
					continue
				}
				el := time.Since(start)
				queryNanos.Add(int64(el))
				queryCount.Add(1)
				queryHists[q.num].observe(el)
				if prof != nil {
					bh := breakHists[q.num]
					bh.admit.ObserveDuration(time.Duration(prof.AdmitNS()))
					bh.exec.ObserveDuration(time.Duration(prof.ExecNS()))
					bh.spill.ObserveDuration(time.Duration(prof.SpillNS()))
					slowMu.Lock()
					if el > slowDur {
						slowDur = el
						slowClass = fmt.Sprintf("q%d", q.num)
						slowProfile = prof.Render()
					}
					slowMu.Unlock()
				}
			}
		}(int64(s))
	}

	if cfg.SyncInterval > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(cfg.SyncInterval)
			defer t.Stop()
			for !stop.Load() {
				<-t.C
				cfg.Engine.Sync()
			}
		}()
	}

	// Freshness sampler.
	var lagSumTS, lagSamples uint64
	var lagMaxTS uint64
	var lagSumTime, lagMaxTime time.Duration
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for !stop.Load() {
			<-t.C
			s := cfg.Engine.Freshness()
			lagSumTS += s.LagTS
			lagSamples++
			if s.LagTS > lagMaxTS {
				lagMaxTS = s.LagTS
			}
			lagSumTime += s.LagTime
			if s.LagTime > lagMaxTime {
				lagMaxTime = s.LagTime
			}
		}
	}()

	pdScan0, pdMat0 := exec.PushdownRows()
	start := time.Now()
	select {
	case <-time.After(cfg.Duration):
	case <-ctx.Done():
	}
	stop.Store(true)
	cancel()
	wg.Wait()
	elapsed := time.Since(start)
	pdScan1, pdMat1 := exec.PushdownRows()

	counts := driver.Counts()
	total := int64(0)
	for _, n := range counts {
		total += n
	}
	res := Result{
		Elapsed:     elapsed,
		Txns:        total,
		NewOrder:    driver.NewOrders(),
		Queries:     queryCount.Load(),
		TxnErrors:   txnErrs.Load(),
		QueryErrors: queryErrs.Load(),
	}
	mins := elapsed.Minutes()
	res.TpmC = float64(res.NewOrder) / mins
	res.TPS = float64(res.Txns) / elapsed.Seconds()
	res.QphH = float64(res.Queries) / elapsed.Hours()
	if res.Txns > 0 {
		res.AvgTxnLatency = time.Duration(txnNanos.Load() / max64(res.Txns, 1))
	}
	if res.Queries > 0 {
		res.AvgQueryLatency = time.Duration(queryNanos.Load() / res.Queries)
	}
	res.PushdownScannedRows = pdScan1 - pdScan0
	res.PushdownMaterializedRows = pdMat1 - pdMat0
	if res.Queries > 0 {
		res.RowsMaterializedPerQuery = float64(res.PushdownMaterializedRows) / float64(res.Queries)
	}
	if lagSamples > 0 {
		res.FreshAvgLagTS = float64(lagSumTS) / float64(lagSamples)
		res.FreshAvgLagTime = lagSumTime / time.Duration(lagSamples)
	}
	res.FreshMaxLagTS = lagMaxTS
	res.FreshMaxLagTime = lagMaxTime
	for t := ch.NewOrderTxn; t <= ch.StockLevelTxn; t++ {
		if h := txnHists[t]; h.local.Count() > 0 {
			res.TxnClasses = append(res.TxnClasses, h.latency(t.String()))
		}
	}
	for _, q := range queries {
		if h := queryHists[q.num]; h.local.Count() > 0 {
			res.QueryClasses = append(res.QueryClasses, h.latency(fmt.Sprintf("q%d", q.num)))
		}
	}
	if cfg.Profile {
		for _, q := range queries {
			bh := breakHists[q.num]
			if bh.exec.Count() == 0 {
				continue
			}
			res.QueryBreakdown = append(res.QueryBreakdown, ClassBreakdown{
				Class:    fmt.Sprintf("q%d", q.num),
				Count:    int64(bh.exec.Count()),
				AdmitP99: time.Duration(bh.admit.Quantiles(0.99)[0]),
				ExecP99:  time.Duration(bh.exec.Quantiles(0.99)[0]),
				SpillP99: time.Duration(bh.spill.Quantiles(0.99)[0]),
			})
		}
		res.SlowestClass, res.SlowestDur, res.SlowestProfile = slowClass, slowDur, slowProfile
	}
	return res
}

// breakdown holds one query class's run-local attributed-latency
// histograms (Profile mode).
type breakdown struct {
	admit, exec, spill *obs.Histogram
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// numberedQuery pairs a CH query with its number, so per-class metrics can
// label latencies q1..q22.
type numberedQuery struct {
	num int
	fn  ch.QueryFunc
}

func pickQueries(set []int) []numberedQuery {
	all := ch.Queries()
	if len(set) == 0 {
		out := make([]numberedQuery, 0, len(all))
		for i := 1; i <= 22; i++ {
			out = append(out, numberedQuery{num: i, fn: all[i]})
		}
		return out
	}
	out := make([]numberedQuery, 0, len(set))
	for _, i := range set {
		if q, ok := all[i]; ok {
			out = append(out, numberedQuery{num: i, fn: q})
		}
	}
	return out
}

// IsolationProbe quantifies workload interference (§2.3(2)): run OLTP
// alone, then OLTP with the OLAP side on, and report the degradation.
type IsolationProbe struct {
	BaselineTPS float64
	MixedTPS    float64
	// DegradationPct is the share of OLTP throughput lost to OLAP
	// co-execution: the paper's "what percentage of performance
	// degradation the systems should pay".
	DegradationPct float64
}

// RunIsolationProbe measures OLTP throughput with and without AP streams.
func RunIsolationProbe(cfg Config) IsolationProbe {
	alone := cfg
	alone.APStreams = 0
	a := Run(alone)
	m := Run(cfg)
	p := IsolationProbe{BaselineTPS: a.TPS, MixedTPS: m.TPS}
	if a.TPS > 0 {
		p.DegradationPct = 100 * (a.TPS - m.TPS) / a.TPS
	}
	return p
}
