package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"htap/internal/disk"
	"htap/internal/exec"
	"htap/internal/obs"
	"htap/internal/planner"
	"htap/internal/sched"
	"htap/internal/txn"
	"htap/internal/types"
)

// engineBase is everything the four architectures have in common: the table
// registry, the analytical mode and degree of parallelism, the memory
// governor, the htap_engine_* series and the background cadence. An
// architecture embeds it (A, C and D through walEngine) and adds only its
// storage layout.
type engineBase struct {
	memGoverned
	arch   Arch
	name   string
	ts     *tableSet
	fb     *planner.Feedback
	mode   atomic.Uint32
	par    atomic.Int32
	om     archMetrics
	obsFns []*obs.FuncHandle
	// target is the merge target, the read point of Isolated snapshots:
	// every merge raises it to the point it merges to before publishing
	// (mergePoint), and it never moves back.
	target atomic.Uint64
	// commitAt remembers when the newest writing commits committed.
	commitAt commitRing
	// mgr is the transaction manager: the timestamp oracle, the lock table
	// and the write sets of every architecture's transactions.
	mgr *txn.Manager
	// pins holds the read timestamps of open transactions and snapshots;
	// row stores prune behind its horizon.
	pins *txn.Pins
	// col is the finished engine's analytical side (replica.go); reps
	// are its replicas by table id when they are fixed at construction.
	col  columnar
	reps [][]*replica
	// store is the finished engine's transactional side (tx.go).
	store txStore

	syncMu   sync.Mutex
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// init prepares the shared state. Constructors call it first, build their
// stores, and finish with serve.
func (b *engineBase) init(a Arch, name string, schemas []*types.Schema, parallelism int) {
	b.arch, b.name = a, name
	b.ts = newTableSet(schemas)
	b.fb = planner.NewFeedback(0)
	b.om = newArchMetrics(a)
	b.mgr = txn.NewManager()
	b.pins = b.mgr.Pins()
	b.stop = make(chan struct{})
	b.mode.Store(uint32(sched.Shared))
	b.par.Store(int32(parallelism))
}

// serve publishes the finished engine e: the scrape-time gauges read its
// Freshness, dev and row versions, snapshots read through its replicas and
// transactions through its txStore.
func (b *engineBase) serve(e Engine, dev func() disk.Stats, versions func() int64) {
	b.col = e.(columnar)
	b.store = e.(txStore)
	b.obsFns = registerEngineFuncs(b.arch, e.Freshness, dev, b.pins, versions)
}

// every runs tick on a ticker until Close: the background synchronization
// cadence of the engines that have one. A non-positive d starts nothing.
func (b *engineBase) every(d time.Duration, tick func()) {
	if d <= 0 {
		return
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-b.stop:
				return
			case <-t.C:
				tick()
			}
		}
	}()
}

// Pins exposes the read timestamps the engine's open transactions and
// snapshots hold.
func (b *engineBase) Pins() *txn.Pins { return b.pins }

// Name implements Engine.
func (b *engineBase) Name() string { return b.name }

// Arch implements Engine.
func (b *engineBase) Arch() Arch { return b.arch }

// Tables implements Engine.
func (b *engineBase) Tables() []*types.Schema { return b.ts.schemas }

// Schema implements Engine.
func (b *engineBase) Schema(table string) *types.Schema { return b.ts.schema(table) }

// SetMode implements Engine.
func (b *engineBase) SetMode(m sched.Mode) { b.mode.Store(uint32(m)) }

// snapPoint is the read point a snapshot opened now pins: the
// architecture's read point in Shared mode, the merge target in Isolated
// mode.
func (b *engineBase) snapPoint() uint64 {
	if sched.Mode(b.mode.Load()) == sched.Shared {
		return b.col.readPoint()
	}
	return b.target.Load()
}

// mergePoint pins the timestamp point returns and raises the merge target
// to it inside the pin set's guard, so a snapshot that read the old target
// has published its pin before the target moves (rowFloor). The caller
// merges up to the returned point, then releases it.
func (b *engineBase) mergePoint(point func() uint64) uint64 {
	return b.pins.Pin(func() uint64 {
		ts := point()
		if ts > b.target.Load() {
			b.target.Store(ts) // raises serialize on the guard
		}
		return ts
	})
}

// Freshness implements Engine: how far the read point a snapshot opened
// now would pin trails the newest commit.
func (b *engineBase) Freshness() Freshness {
	f := Freshness{AppliedTS: b.snapPoint()}
	f.CommitTS = b.mgr.Oracle().Watermark() // after the read point: never below it
	if f.CommitTS > f.AppliedTS {
		f.LagTS = f.CommitTS - f.AppliedTS
		f.LagTime = b.commitAt.age(f.AppliedTS, f.CommitTS)
	}
	return f
}

// SetParallelism implements Paralleler.
func (b *engineBase) SetParallelism(n int) { b.par.Store(int32(n)) }

// Query implements Engine: a one-scan query in a snapshot of its own. The
// snapshot closes as soon as the plan's sources are built: column versions
// are immutable and a row scan materializes when it is planned, so the
// plan reads nothing a later commit may prune.
func (b *engineBase) Query(ctx context.Context, table string, cols []string, filter exec.Expr) *exec.Plan {
	s := b.open(ctx)
	defer s.Close()
	return s.Query(table, cols, filter)
}

// syncRound runs one synchronization round under the sync lock, span and
// metrics every architecture shares. Its merge point, the architecture's
// read point, stays pinned for the round and is the merge target before
// anything publishes. round does the architecture's merging up to it,
// hanging one child span per unit of work under sp.
func (b *engineBase) syncRound(round func(sp *obs.Span, upTo uint64)) {
	b.syncMu.Lock()
	defer b.syncMu.Unlock()
	start := time.Now()
	sp := obs.Trace.Start("sync").Attr("arch", b.arch.Label())
	upTo := b.mergePoint(b.col.readPoint)
	round(sp, upTo)
	b.pins.Release(upTo)
	sp.End()
	b.om.syncs.Inc()
	b.om.syncLat.Since(start)
}

// committed is the epilogue of a successful commit on every architecture.
// Read-only commits count and are timed like any other; only a commit that
// wrote has a timestamp of its own for Freshness to age.
func (b *engineBase) committed(start time.Time, commitTS uint64, wrote bool) {
	now := time.Now()
	b.om.commits.Inc()
	b.om.commitLat.ObserveDuration(now.Sub(start))
	if wrote {
		b.commitAt.note(commitTS, now)
	}
}

// commitRing holds the wall time of recent commits, one slot per commit
// timestamp modulo its size, and takes no lock. An age is exact while no
// more than the ring's size of timestamps lie above the read point; beyond
// that it is the oldest remembered one's (or, read mid-overwrite, newer).
type commitRing [8192]struct{ ts, at atomic.Uint64 }

func (r *commitRing) note(ts uint64, at time.Time) {
	s := &r[ts%uint64(len(r))]
	s.at.Store(uint64(at.UnixNano()))
	s.ts.Store(ts)
}

// age is how long ago the oldest remembered commit in (applied, commit]
// committed, or 0 when none is remembered.
func (r *commitRing) age(applied, commit uint64) time.Duration {
	from := applied + 1
	if n := uint64(len(r)); commit-applied > n {
		from = commit - n + 1
	}
	for ts := from; ts <= commit; ts++ {
		if s := &r[ts%uint64(len(r))]; s.ts.Load() == ts {
			return time.Since(time.Unix(0, int64(s.at.Load())))
		}
	}
	return 0
}

// txnStats is the transaction-manager part of Engine.Stats.
func (b *engineBase) txnStats() Stats {
	ts := b.mgr.Stats()
	return Stats{Commits: ts.Commits, Aborts: ts.Aborts, Conflicts: ts.Conflicts}
}

// Close implements Engine: it stops the background cadence and releases the
// scrape-time callbacks the engine still owns. Closing twice is harmless.
func (b *engineBase) Close() {
	b.stopOnce.Do(func() { close(b.stop) })
	b.wg.Wait()
	for _, h := range b.obsFns {
		obs.Default.Unregister(h)
	}
}
