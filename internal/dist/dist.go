package dist

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"htap/internal/ch"
	"htap/internal/client"
	"htap/internal/core"
	"htap/internal/exec"
	"htap/internal/sched"
	"htap/internal/twopc"
	"htap/internal/types"
)

// shardRef is one engine instance the coordinator fronts: an in-process
// core.Engine or a remote server reached through a client pool. Exactly
// one of local/remote is set.
type shardRef struct {
	name   string
	local  core.Engine
	remote *client.Remote
}

func (s *shardRef) begin(ctx context.Context) core.Tx {
	if s.local != nil {
		return s.local.Begin(ctx)
	}
	return s.remote.Begin(ctx)
}

// Engine is the distributed coordinator. It implements core.Engine, so
// every driver that runs against a single architecture — htapbench,
// chbench, the wire server — runs against N shards unchanged.
type Engine struct {
	shards []*shardRef
	rt     router // load-time layout; live ownership is rtab
	ts     []*types.Schema
	byName map[string]*types.Schema
	par    atomic.Int32
	gov    atomic.Pointer[exec.Governor]
	eps    *client.Endpoints // owned in remote mode; closed by Close
	base   string            // shard engine name, for Name()

	rtab     atomic.Pointer[routeTable] // live versioned warehouse→shard map
	pushdown atomic.Bool                // partial-agg / top-k pushdown enabled

	// Rebalance state: one move at a time (moveMu); fence blocks new
	// transactions from entering the moving range; the open-transaction
	// registry lets the move drain in-flight transactions that already
	// touched it. See rebalance.go.
	moveMu sync.Mutex
	fence  atomic.Pointer[moveFence]
	txMu   sync.Mutex
	open   map[*distTx]struct{}

	// Test hooks (rebalance gate): called between copy and fence, and
	// after branches are built but before the cutover 2PC; wrapBranch
	// injects prepare/commit faults into the cutover branches.
	afterCopy     func()
	beforeCutover func()
	wrapBranch    func(twopc.TxParticipant) twopc.TxParticipant
}

// New builds a coordinator over in-process shard engines. Shard i owns
// the i-th contiguous warehouse range (see router); engines must share a
// catalog, which the coordinator adopts from the first.
func New(warehouses int, engines ...core.Engine) (*Engine, error) {
	rt, err := newRouter(warehouses, len(engines))
	if err != nil {
		return nil, err
	}
	d := &Engine{rt: rt, base: engines[0].Name()}
	d.init()
	for i, e := range engines {
		d.shards = append(d.shards, &shardRef{name: fmt.Sprintf("shard-%d", i), local: e})
	}
	d.adoptCatalog(engines[0].Tables())
	return d, nil
}

// NewRemote builds a coordinator over remote shard servers, one per
// endpoint in registration order. The coordinator owns eps and closes it.
// Remote servers carry no catalog over the wire, so the CH-benCHmark
// catalog — the only dataset the warehouse router understands — is
// assumed.
func NewRemote(warehouses int, eps *client.Endpoints) (*Engine, error) {
	names := eps.Names()
	rt, err := newRouter(warehouses, len(names))
	if err != nil {
		return nil, err
	}
	d := &Engine{rt: rt, eps: eps}
	d.init()
	for _, n := range names {
		r := eps.Get(n)
		d.shards = append(d.shards, &shardRef{name: n, remote: r})
	}
	d.base = d.shards[0].remote.Arch().String()
	d.adoptCatalog(ch.Schemas())
	return d, nil
}

func (d *Engine) init() {
	d.rtab.Store(newRouteTable(d.rt))
	d.pushdown.Store(true)
	d.open = make(map[*distTx]struct{})
}

// SetPushdown enables or disables partial-aggregate and top-k pushdown
// (on by default). The differential equivalence suite flips it to
// compare pushed plans against raw-gather plans over identical data.
func (d *Engine) SetPushdown(on bool) { d.pushdown.Store(on) }

// RouteVersion returns the live routing-table version; each completed
// rebalance bumps it.
func (d *Engine) RouteVersion() int64 { return d.rtab.Load().version }

func (d *Engine) adoptCatalog(schemas []*types.Schema) {
	d.ts = schemas
	d.byName = make(map[string]*types.Schema, len(schemas))
	for _, s := range schemas {
		d.byName[s.Name] = s
	}
}

// Name implements core.Engine.
func (d *Engine) Name() string { return fmt.Sprintf("dist(%dx %s)", len(d.shards), d.base) }

// Arch implements core.Engine: the architecture of the shard engines.
func (d *Engine) Arch() core.Arch {
	if s := d.shards[0]; s.local != nil {
		return s.local.Arch()
	}
	return d.shards[0].remote.Arch()
}

// Shards reports the shard count.
func (d *Engine) Shards() int { return len(d.shards) }

// Tables implements core.Engine.
func (d *Engine) Tables() []*types.Schema { return d.ts }

// Schema implements core.Engine.
func (d *Engine) Schema(table string) *types.Schema { return d.byName[table] }

// Begin implements core.Engine. The transaction opens per-shard branches
// lazily as operations route to them; Commit drives one branch directly
// or all branches through two-phase commit.
func (d *Engine) Begin(ctx context.Context) core.Tx {
	if ctx == nil {
		ctx = context.Background()
	}
	t := &distTx{d: d, ctx: ctx, subs: make([]core.Tx, len(d.shards))}
	d.txMu.Lock()
	d.open[t] = struct{}{}
	d.txMu.Unlock()
	return t
}

// forget removes a finished transaction from the open registry.
func (d *Engine) forget(t *distTx) {
	d.txMu.Lock()
	delete(d.open, t)
	d.txMu.Unlock()
}

// Load implements core.Engine: rows route to their owning shard,
// replicated dimension rows land on every shard. Remote shards reject
// loads — they preload their own slice (cmd/htapd -shard-index).
func (d *Engine) Load(table string, row types.Row) error {
	sch := d.byName[table]
	if sch == nil {
		return fmt.Errorf("%w: %s", core.ErrNoTable, table)
	}
	if replicated(table) {
		for _, s := range d.shards {
			if err := d.loadOn(s, table, row); err != nil {
				return err
			}
		}
		return nil
	}
	w, ok := rowWarehouse(table, sch.Key(row), row)
	if !ok {
		return fmt.Errorf("dist: cannot route %s row", table)
	}
	return d.loadOn(d.shards[d.rtab.Load().shardOf(w)], table, row)
}

func (d *Engine) loadOn(s *shardRef, table string, row types.Row) error {
	if s.local == nil {
		return fmt.Errorf("dist: %s is remote; shard servers preload their own warehouse slice", s.name)
	}
	return s.local.Load(table, row)
}

// Sync implements core.Engine: one synchronization round on every shard.
func (d *Engine) Sync() {
	for _, s := range d.shards {
		if s.local != nil {
			s.local.Sync()
		} else {
			s.remote.Sync()
		}
	}
}

// SetMode implements core.Engine. Remote shards keep their server-side
// mode — the wire protocol has no mode control — so only in-process
// shards switch.
func (d *Engine) SetMode(m sched.Mode) {
	for _, s := range d.shards {
		if s.local != nil {
			s.local.SetMode(m)
		}
	}
}

// Freshness implements core.Engine: the coordinator is as stale as its
// most lagging shard, whose reading it returns whole. Shards draw their
// timestamps from oracles of their own, so the readings of two shards are
// not comparable and none is summed or mixed with another's (one
// cluster-wide timestamp is roadmap item 3).
func (d *Engine) Freshness() core.Freshness {
	var worst core.Freshness
	for _, s := range d.shards {
		var f core.Freshness
		if s.local != nil {
			f = s.local.Freshness()
		} else {
			f = s.remote.Freshness()
		}
		if f.LagTS > worst.LagTS || f.LagTS == worst.LagTS && f.LagTime > worst.LagTime {
			worst = f
		}
	}
	return worst
}

// Stats implements core.Engine: the sum over in-process shards. Remote
// shards export their own metrics endpoint and contribute nothing here.
func (d *Engine) Stats() core.Stats {
	var sum core.Stats
	for _, s := range d.shards {
		if s.local == nil {
			continue
		}
		st := s.local.Stats()
		sum.Commits += st.Commits
		sum.Aborts += st.Aborts
		sum.Conflicts += st.Conflicts
		sum.Merges += st.Merges
		sum.Rebuilds += st.Rebuilds
		sum.ColBytes += st.ColBytes
		sum.DeltaRows += st.DeltaRows
	}
	return sum
}

// Close implements core.Engine.
func (d *Engine) Close() {
	for _, s := range d.shards {
		if s.local != nil {
			s.local.Close()
		}
	}
	if d.eps != nil {
		d.eps.Close()
	}
}

// SetParallelism implements core.Paralleler for the coordinator's merge
// pipelines; zero restores the default (GOMAXPROCS).
func (d *Engine) SetParallelism(n int) { d.par.Store(int32(n)) }

func (d *Engine) dop() int {
	if v := d.par.Load(); v > 0 {
		return int(v)
	}
	return exec.DefaultParallelism()
}

// SetMemGovernor implements core.MemGoverned: coordinator-side merge
// operators (aggregations, sorts, joins over gathered rows) run under the
// attached budget. Shard-side budgets are the shard engines' own.
func (d *Engine) SetMemGovernor(g *exec.Governor) { d.gov.Store(g) }

// MemGovernor implements core.MemGoverned.
func (d *Engine) MemGovernor() *exec.Governor { return d.gov.Load() }

// snapshot is the coordinator's core.Snapshot: one snapshot per local
// shard, opened together; remote shards scan per call. The shards share no
// read timestamp yet (ROADMAP item 3), so ReadTS is 0.
type snapshot struct {
	d     *Engine
	ctx   context.Context
	local []core.Snapshot // by shard index; nil for remote shards
}

// localSource is what the coordinator needs of a local shard's snapshot:
// the raw access path its Query plans over (core's snapshots provide it).
type localSource interface {
	Source(table string, cols []string, pred *exec.ScanPred) exec.Source
}

// Snapshot implements core.Engine.
func (d *Engine) Snapshot(ctx context.Context) core.Snapshot {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &snapshot{d: d, ctx: ctx, local: make([]core.Snapshot, len(d.shards))}
	for i, sh := range d.shards {
		if sh.local != nil {
			s.local[i] = sh.local.Snapshot(ctx)
		}
	}
	return s
}

// ReadTS implements core.Snapshot.
func (s *snapshot) ReadTS() uint64 { return 0 }

// Close implements core.Snapshot: it closes every local shard's snapshot.
func (s *snapshot) Close() {
	for _, l := range s.local {
		if l != nil {
			l.Close()
		}
	}
}

// Query implements core.Snapshot: scatter the scan to every owning shard
// and merge. The plan is wired exactly like a single engine's — context,
// parallelism, memory accountant, profile — plus an error sink that turns
// a failed shard fragment into a query error instead of missing rows.
func (s *snapshot) Query(table string, cols []string, pred *exec.ScanPred) *exec.Plan {
	d, ctx := s.d, s.ctx
	src, frags := s.scatter(table, cols, pred)
	if prof := exec.ProfileFrom(ctx); prof != nil {
		prof.SetArch("dist")
	}
	p := exec.From(src).Parallel(d.dop()).Ctx(ctx)
	if g := d.gov.Load(); g != nil {
		p = p.WithMem(g.StartQuery())
	}
	if len(frags) > 0 {
		sink := p.ErrSink()
		for _, f := range frags {
			f := f
			f.src.OnError(func(err error) {
				sink(fmt.Errorf("dist: fragment on %s: %w", f.shard, err))
				if d.eps != nil {
					d.eps.Report(f.shard, err)
				}
			})
		}
	}
	return p
}

// Query implements core.Engine: a one-scan query in a snapshot of its own,
// closed once the shards' sources are built (see core.Engine.Query).
func (d *Engine) Query(ctx context.Context, table string, cols []string, pred *exec.ScanPred) *exec.Plan {
	s := d.Snapshot(ctx)
	defer s.Close()
	return s.Query(table, cols, pred)
}
