package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"htap/internal/ch"
	"htap/internal/client"
	"htap/internal/core"
	"htap/internal/dist"
	"htap/internal/experiments"
	"htap/internal/server"
	"htap/internal/types"
)

// spec is one workload: a deployment of architecture A. Every workload puts
// the same three-phase load on its deployment (see measure), so that every
// end-to-end metric is defined on every workload and two workloads differ
// in the layers underneath, not in what is asked of them.
type spec struct {
	name string
	why  string
	// remote puts the engine behind server.Serve on loopback and drives it
	// through one client.Connect in the same process.
	remote bool
	// shards > 0 builds dist.New over that many in-process shard engines.
	shards int
}

var specs = []*spec{
	{
		name: "local",
		why:  "arch A in-process: ch, core, txn, rowstore, wal, delta, datasync, exec, colstore do all the work; no wire, no 2PC",
	},
	{
		name:   "service",
		why:    "the same load through server and client on loopback: tiny TP frames and large AP result streams price wire/server/client",
		remote: true,
	},
	{
		name:   "dist",
		why:    "the same load on dist.New over 2 in-process shards: cross-shard 2PC and scatter-gather with partial-aggregate pushdown",
		shards: 2,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// warmTxns is the untimed transaction warm-up of every set-up.
const warmTxns = 2000

// apDOP pins the analytical degree of parallelism on every workload: one
// query uses one core. The sizing host has two, and a query that needs both
// runs at the mercy of the collector, the Sync goroutine and the host's
// other tenants; at DOP 1 its latency repeats. exec.q01_dop2_speedup prices
// the parallel path.
const apDOP = 1

// syncEvery is the background Sync period wherever TP runs (the chbench
// default).
const syncEvery = 50 * time.Millisecond

// rig is one set-up deployment.
type rig struct {
	spec *spec
	// local is the in-process engine: what the bench loads, Syncs and
	// checks, and what TP and AP run on unless the workload is remote.
	local core.Engine
	// engines are the architecture-A engines underneath local: local itself,
	// or the shards of a coordinator.
	engines []core.Engine
	// tp is what the TPC-C driver runs against.
	tp     ch.Engine
	driver *ch.Driver
	rng    *rand.Rand
	// runQuery is the workload's analytical path for CH query n.
	runQuery func(ctx context.Context, n int) ([]types.Row, error)
	closers  []func()
}

func (r *rig) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

// newEngineA builds architecture A as the experiments do; under a tracer it
// is decorated at the given layer.
func newEngineA(tr *tracer, layer, shard int, outermost bool) core.Engine {
	e := experiments.NewEngine(core.ArchA)
	if tr == nil {
		return e
	}
	return &tracedEngine{Engine: e, boundary: boundary{tr: tr, layer: layer, shard: shard, names: coreNames}, syncs: outermost}
}

// setUp builds the workload's deployment, loads the dataset, checks the 22
// golden digests through the workload's own analytical path and warms the
// transactional path. seed drives the transaction stream only; the program
// under test sees neither it nor the workload's name.
func setUp(ctx context.Context, s *spec, seed int64, tr *tracer, golden *goldenFile) (*rig, error) {
	r := &rig{spec: s, rng: rand.New(rand.NewSource(seed))}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()

	switch {
	case s.shards > 0:
		for i := 0; i < s.shards; i++ {
			r.engines = append(r.engines, newEngineA(tr, layInner, i, false))
		}
		d, err := dist.New(scale.Warehouses, r.engines...)
		if err != nil {
			return nil, err
		}
		r.local = d
		if tr != nil {
			r.local = &tracedEngine{Engine: d, boundary: boundary{tr: tr, layer: layOuter, shard: -1, names: distNames}, syncs: true}
		}
	case s.remote:
		r.local = newEngineA(tr, layInner, -1, true)
		r.engines = []core.Engine{r.local}
	default:
		r.local = newEngineA(tr, layOuter, -1, true)
		r.engines = []core.Engine{r.local}
	}
	r.closers = append(r.closers, r.local.Close)

	if _, err := ch.NewGenerator(scale).Load(r.local); err != nil {
		return nil, err
	}
	// The coordinator's own merge pipelines and each engine's scans.
	r.local.(core.Paralleler).SetParallelism(apDOP)
	for _, e := range r.engines {
		e.(core.Paralleler).SetParallelism(apDOP)
	}
	r.local.Sync()

	r.tp = r.local
	r.runQuery = func(ctx context.Context, n int) ([]types.Row, error) { return ch.RunQuery(ctx, r.local, n) }
	if s.remote {
		srv, err := server.Serve("127.0.0.1:0", server.Config{Engine: r.local})
		if err != nil {
			return nil, err
		}
		r.closers = append(r.closers, func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(sctx) // on timeout Shutdown severs the connections itself
		})
		rem, err := client.Connect(ctx, srv.Addr(), client.Options{})
		if err != nil {
			return nil, err
		}
		r.closers = append(r.closers, rem.Close)
		r.runQuery = rem.RunCH
		r.tp = rem
		if tr != nil {
			r.tp = newTracedRemote(rem, tr)
		}
	}

	for q := 1; q <= 22; q++ {
		rows, err := r.runQuery(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("set-up: Q%d: %w", q, err)
		}
		if golden != nil {
			if err := golden.check(q, rows); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
	}
	r.driver = ch.NewDriver(r.tp, scale)
	for i := 0; i < warmTxns; i++ {
		if err := r.driver.RunOne(ctx, r.rng); err != nil {
			return nil, fmt.Errorf("set-up: warm-up transaction: %w", err)
		}
	}
	r.local.Sync()
	ok = true
	return r, nil
}

// setUpTimed sets up n times and keeps the last deployment, so that set-up
// time is a median rather than one draw. The discarded deployments are
// closed and collected before the next starts: peak memory stays that of
// one deployment under load.
func setUpTimed(ctx context.Context, s *spec, seed int64, tr *tracer, golden *goldenFile, n int) (*rig, float64, error) {
	var secs []float64
	for i := 0; ; i++ {
		start := time.Now()
		r, err := setUp(ctx, s, seed, tr, golden)
		if err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i == n-1 {
			return r, median(secs), nil
		}
		r.close()
		r = nil
		runtime.GC()
		debug.FreeOSMemory()
	}
}
