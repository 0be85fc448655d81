package exec

import (
	"runtime"
	"sync"
	"time"

	"htap/internal/obs"
)

// Morsel-driven parallel execution. Scans expose their remaining input as
// fixed-size morsels (contiguous row ranges); operators that can partition
// themselves implement Splitter, and the sinks that consume whole pipelines
// (hash aggregation, hash-join build, Plan.RunCtx) fan the parts out over
// the shared worker pool. Two properties are deliberate:
//
//   - Morsel assignment is static and range-based: part boundaries depend
//     only on the input's shape and the parallelism degree, never on worker
//     timing, and concatenating part outputs in part order reproduces the
//     sequential row order. At a fixed parallelism degree results are
//     therefore bit-deterministic; across degrees only float aggregate
//     rounding may differ (summation order changes association, not the
//     value sequence).
//
//   - The pool never blocks a caller: a task that cannot get a worker slot
//     runs inline on the calling goroutine, so nested fan-out (an aggregate
//     part whose pipeline contains a parallel join build) cannot deadlock.

// MorselRows is the number of rows per morsel, matching the batch size so
// a morsel holds at most one batch of rows (scans pack rows from several
// morsels into a batch when deletes or predicates thin them).
const MorselRows = BatchSize

// DefaultParallelism is the degree of parallelism engines use when none is
// configured: GOMAXPROCS at query time.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// Splitter is a Source that can partition its remaining input into
// independently drainable parts. Split consumes the receiver and must be
// called before Next. Implementations return about n parts (possibly more
// or fewer), or nil when the source cannot split; concatenating the parts'
// outputs in slice order yields exactly the sequential output of the
// receiver.
type Splitter interface {
	Source
	Split(n int) []Source
}

// trySplit partitions s, returning nil when s cannot split (or n asks for
// no parallelism). A non-nil result has consumed s: callers must drain the
// parts instead, even when only one came back.
func trySplit(s Source, n int) []Source {
	if n <= 1 {
		return nil
	}
	if sp, ok := s.(Splitter); ok {
		if parts := sp.Split(n); len(parts) > 0 {
			return parts
		}
	}
	return nil
}

var (
	morselsTotal  = obs.Default.Counter("htap_exec_morsels_total", nil)
	workerBusyNS  = obs.Default.Counter("htap_exec_worker_busy_ns_total", nil)
	mergeNS       = obs.Default.Counter("htap_exec_merge_ns_total", nil)
	parallelPlans = obs.Default.Counter("htap_exec_parallel_plans_total", nil)
	poolLimit     = obs.Default.Gauge("htap_exec_pool_limit", nil)
)

// Pool bounds the goroutines analytical operators fan out to. The zero
// limit means "GOMAXPROCS at acquire time", which keeps `go test -cpu`
// honest: the limit follows the benchmark's processor count. Run never
// blocks waiting for a slot — tasks beyond the limit execute inline on the
// caller — so the pool throttles concurrency without ever stalling a
// query, and nested Run calls cannot deadlock.
type Pool struct {
	mu     sync.Mutex
	limit  int // 0 = GOMAXPROCS, resolved per acquire
	active int
}

var sharedPool = &Pool{}

// SharedPool is the process-wide worker pool all parallel operators use.
// internal/sched attaches to it to throttle analytical parallelism when
// the resource scheduler shrinks the AP share.
func SharedPool() *Pool { return sharedPool }

// SetLimit caps concurrent pool workers at n; n <= 0 restores the
// GOMAXPROCS default. In-flight workers are unaffected.
func (p *Pool) SetLimit(n int) {
	if n < 0 {
		n = 0
	}
	p.mu.Lock()
	p.limit = n
	eff := p.effLimit()
	p.mu.Unlock()
	poolLimit.SetInt(int64(eff))
}

// Limit reports the effective worker cap.
func (p *Pool) Limit() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.effLimit()
}

func (p *Pool) effLimit() int {
	if p.limit > 0 {
		return p.limit
	}
	return runtime.GOMAXPROCS(0)
}

func (p *Pool) tryAcquire() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.active >= p.effLimit() {
		return false
	}
	p.active++
	return true
}

func (p *Pool) release() {
	p.mu.Lock()
	p.active--
	p.mu.Unlock()
}

// Run executes all tasks and returns when the last one finishes. Tasks run
// on worker goroutines while slots are free and inline on the caller
// otherwise; the caller always makes progress itself.
func (p *Pool) Run(tasks []func()) {
	if len(tasks) == 1 {
		runTask(tasks[0])
		return
	}
	var wg sync.WaitGroup
	for _, t := range tasks {
		if p.tryAcquire() {
			wg.Add(1)
			go func(t func()) {
				defer wg.Done()
				defer p.release()
				runTask(t)
			}(t)
		} else {
			runTask(t)
		}
	}
	wg.Wait()
}

func runTask(t func()) {
	start := time.Now()
	t()
	workerBusyNS.Add(time.Since(start).Nanoseconds())
}
