// Package sched implements the resource-scheduling techniques of the
// paper's §2.2(5): dynamically allocating workers between OLTP and OLAP and
// switching execution modes.
//
//   - WorkloadDriven is the SAP HANA / Siper approach: "adjusts the
//     parallelism threads of OLTP and OLAP tasks based on the performance
//     of executed workloads … when CPU resource is saturated by OLAP
//     threads, the task scheduler can decrease the parallelism of OLAP
//     while enlarging the OLTP threads." It ignores freshness (Table 2:
//     High Throughput / Low Freshness).
//   - FreshnessDriven is the RDE approach: "controls the execution of OLTP
//     and OLAP in isolation for high throughput, then periodically
//     synchronizes the data. Once the data freshness becomes low, it
//     switches to an execution mode with shared CPU, memory and data."
//     (Table 2: High Freshness / Low Throughput.)
//   - Adaptive is the §2.4 extension: workload-driven worker split plus
//     freshness-driven sync triggering, considering "both workload and
//     freshness when scheduling the resources".
package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"htap/internal/obs"
)

// Mode is the execution mode of the OLAP side.
type Mode uint8

// Execution modes: the read point of an engine's analytical snapshots. In
// Isolated mode a snapshot reads at the point the last merge ran to (stale
// reads that leave the newest delta entries alone); in Shared mode at the
// newest commit the analytical side can serve, overlaying the live delta
// (fresh reads, interference). Either way one snapshot reads one committed
// state.
const (
	Isolated Mode = iota + 1
	Shared
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Isolated:
		return "isolated"
	case Shared:
		return "shared"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Signals summarize the last scheduling epoch for a controller.
type Signals struct {
	TPCompleted int64 // transactions finished this epoch
	APCompleted int64 // queries finished this epoch
	TPDemand    int64 // transactions waiting (queue proxy)
	APDemand    int64 // queries waiting
	LagTS       uint64
	LagTime     time.Duration
}

// Decision is a controller's resource allocation for the next epoch.
type Decision struct {
	TPWorkers int
	APWorkers int
	Mode      Mode
	SyncNow   bool // force a delta merge now
}

// Controller decides the next epoch's allocation.
type Controller interface {
	Name() string
	Decide(s Signals, prev Decision) Decision
}

// --- workload-driven ---

// WorkloadDriven rebalances workers toward the starved side.
type WorkloadDriven struct {
	Total int // total workers to split
}

// Name implements Controller.
func (WorkloadDriven) Name() string { return "workload-driven" }

// Decide implements Controller.
func (w WorkloadDriven) Decide(s Signals, prev Decision) Decision {
	d := prev
	d.Mode = Isolated // throughput first; freshness is not considered
	d.SyncNow = false
	if d.TPWorkers+d.APWorkers != w.Total || d.TPWorkers <= 0 {
		d.TPWorkers = w.Total / 2
		d.APWorkers = w.Total - d.TPWorkers
	}
	// Shift one worker toward the side with proportionally more demand.
	tpPressure := pressure(s.TPDemand, s.TPCompleted)
	apPressure := pressure(s.APDemand, s.APCompleted)
	switch {
	case tpPressure > apPressure*1.5 && d.APWorkers > 1:
		d.APWorkers--
		d.TPWorkers++
	case apPressure > tpPressure*1.5 && d.TPWorkers > 1:
		d.TPWorkers--
		d.APWorkers++
	}
	return d
}

func pressure(demand, completed int64) float64 {
	if completed <= 0 {
		completed = 1
	}
	return float64(demand) / float64(completed)
}

// --- freshness-driven ---

// FreshnessDriven switches modes on a staleness threshold.
type FreshnessDriven struct {
	Total  int
	MaxLag uint64 // staleness (in commits) that triggers shared mode + sync
}

// Name implements Controller.
func (FreshnessDriven) Name() string { return "freshness-driven" }

// Decide implements Controller.
func (f FreshnessDriven) Decide(s Signals, prev Decision) Decision {
	d := prev
	if d.TPWorkers+d.APWorkers != f.Total || d.TPWorkers <= 0 {
		d.TPWorkers = f.Total / 2
		d.APWorkers = f.Total - d.TPWorkers
	}
	if s.LagTS >= f.MaxLag {
		d.Mode = Shared // read at the newest commit for freshness
		d.SyncNow = true
	} else {
		d.Mode = Isolated
		d.SyncNow = false
	}
	return d
}

// --- adaptive (extension) ---

// Adaptive combines the workload-driven split with freshness-driven sync.
type Adaptive struct {
	Total  int
	MaxLag uint64
}

// Name implements Controller.
func (Adaptive) Name() string { return "adaptive" }

// Decide implements Controller.
func (a Adaptive) Decide(s Signals, prev Decision) Decision {
	d := WorkloadDriven{Total: a.Total}.Decide(s, prev)
	if s.LagTS >= a.MaxLag {
		// Trigger a sync but keep isolated execution: freshness is restored
		// by merging rather than by paying delta-read interference.
		d.SyncNow = true
		// Lend one TP worker to the merge-heavy side if TP is saturated.
		if d.TPWorkers > 1 && s.LagTS >= 2*a.MaxLag {
			d.TPWorkers--
			d.APWorkers++
		}
	}
	return d
}

// ObserveDecision exports a controller's epoch signals and its resulting
// allocation as gauges (htap_sched_*, labeled by controller), plus a counter
// of forced syncs. Engines call it after each Decide so a scrape shows the
// scheduler's live view: queue demand per side and the OLTP/OLAP split.
func ObserveDecision(controller string, s Signals, d Decision) {
	l := obs.L("controller", controller)
	obs.Default.Gauge("htap_sched_tp_demand", l).SetInt(s.TPDemand)
	obs.Default.Gauge("htap_sched_ap_demand", l).SetInt(s.APDemand)
	obs.Default.Gauge("htap_sched_tp_share", l).Set(share(d.TPWorkers, d.APWorkers))
	obs.Default.Gauge("htap_sched_mode", l).SetInt(int64(d.Mode))
	if d.SyncNow {
		obs.Default.Counter("htap_sched_forced_syncs_total", l).Inc()
	}
}

func share(tp, ap int) float64 {
	if tp+ap == 0 {
		return 0
	}
	return float64(tp) / float64(tp+ap)
}

// --- worker pool ---

// Limiter caps the concurrency of some external resource; exec.SharedPool
// implements it for intra-query (morsel) parallelism. Attached to a Pool,
// it lets the resource controller throttle how wide a single analytical
// query fans out, not just how many queries run at once.
type Limiter interface {
	SetLimit(n int)
}

// Pool runs two resizable worker sets over unit-of-work callbacks. The TP
// task and AP task each perform one unit (one transaction, one query) and
// report whether work was available.
type Pool struct {
	tp *workerSet
	ap *workerSet

	mu      sync.Mutex
	execLim Limiter
}

// NewPool builds a pool; tasks run until Stop.
func NewPool(tpTask, apTask func() bool) *Pool {
	return &Pool{tp: newWorkerSet(tpTask, "oltp"), ap: newWorkerSet(apTask, "olap")}
}

// AttachExecLimiter couples l to the AP worker count: every Resize caps l
// at max(ap, 1), so the intra-query worker pool shrinks with the AP share.
// The caller owns restoring l's limit after the pool stops (Stop does not,
// because l outlives the experiment that attached it).
func (p *Pool) AttachExecLimiter(l Limiter) {
	p.mu.Lock()
	p.execLim = l
	p.mu.Unlock()
}

// Resize sets the worker counts.
func (p *Pool) Resize(tp, ap int) {
	p.tp.resize(tp)
	p.ap.resize(ap)
	p.mu.Lock()
	l := p.execLim
	p.mu.Unlock()
	if l != nil {
		l.SetLimit(max(ap, 1))
	}
}

// Counts returns the live worker counts.
func (p *Pool) Counts() (tp, ap int) { return p.tp.count(), p.ap.count() }

// Completed returns units completed since the last call (delta counters).
func (p *Pool) Completed() (tp, ap int64) {
	return p.tp.drainCompleted(), p.ap.drainCompleted()
}

// Stop terminates all workers and waits for them.
func (p *Pool) Stop() {
	p.tp.resize(0)
	p.ap.resize(0)
	p.tp.wait()
	p.ap.wait()
}

type workerSet struct {
	task func() bool

	mu     sync.Mutex
	target int
	live   int
	gen    []chan struct{} // per-worker stop channels

	completed atomic.Int64
	wg        sync.WaitGroup

	// Observability: htap_sched_workers{side} mirrors live, and
	// htap_sched_completed_total{side} counts units of work. Both sides of
	// every pool in the process share these series — experiments run engines
	// one at a time, so the gauges read as "the current pool".
	mWorkers *obs.Gauge
	mDone    *obs.Counter
}

func newWorkerSet(task func() bool, side string) *workerSet {
	l := obs.L("side", side)
	return &workerSet{
		task:     task,
		mWorkers: obs.Default.Gauge("htap_sched_workers", l),
		mDone:    obs.Default.Counter("htap_sched_completed_total", l),
	}
}

func (w *workerSet) resize(n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.target = n
	w.mWorkers.SetInt(int64(n))
	for w.live < n {
		stop := make(chan struct{})
		w.gen = append(w.gen, stop)
		w.live++
		w.wg.Add(1)
		go w.run(stop)
	}
	for w.live > n {
		last := w.gen[len(w.gen)-1]
		w.gen = w.gen[:len(w.gen)-1]
		close(last)
		w.live--
	}
}

func (w *workerSet) run(stop chan struct{}) {
	defer w.wg.Done()
	for {
		select {
		case <-stop:
			return
		default:
		}
		if w.task() {
			w.completed.Add(1)
			w.mDone.Inc()
			// Yield between units so TP and AP workers share cores fairly
			// even on GOMAXPROCS=1 hosts; without this a hot worker set can
			// starve the other side for whole scheduler slices.
			runtime.Gosched()
		} else {
			// No work available; back off briefly.
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}
}

func (w *workerSet) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.live
}

func (w *workerSet) drainCompleted() int64 { return w.completed.Swap(0) }

func (w *workerSet) wait() { w.wg.Wait() }
