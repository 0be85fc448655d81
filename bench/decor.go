package main

import (
	"context"
	"errors"

	"htap/internal/client"
	"htap/internal/core"
	"htap/internal/exec"
	"htap/internal/types"
)

// callNames are the span names of one decorated boundary.
type callNames struct {
	begin, get, insert, update, del, commit, abort, prepare string
}

func namesFor(module string) *callNames {
	return &callNames{
		begin: module + ".begin", get: module + ".get", insert: module + ".insert",
		update: module + ".update", del: module + ".delete", commit: module + ".commit",
		abort: module + ".abort", prepare: module + ".prepare",
	}
}

var (
	coreNames   = namesFor("core")
	distNames   = namesFor("dist")
	clientNames = namesFor("client")
)

// tracedEngine times every Begin, Tx call and Sync of an engine from
// outside. Analytical reads pass through untouched: an exec.Source carries
// optional pushdown and split interfaces, so wrapping it would change the
// plan being measured.
//
// The optional engine interfaces (core.Indexer, core.Paralleler,
// core.MemGoverned, the server's rangeMover probe) are forwarded, and where
// the wrapped engine lacks one the method answers as the probing caller
// would have treated its absence, so traced and untraced runs take the same
// code paths.
type tracedEngine struct {
	core.Engine
	boundary
	// syncs is set on the outermost decorator only, so one Sync round is
	// one span even when a coordinator fans it out to decorated shards.
	syncs bool
}

// boundary is one decorated layer boundary: where its spans go and what
// they are called.
type boundary struct {
	tr    *tracer
	layer int
	shard int // shard index on dist's layer 2, else -1
	names *callNames
}

// start opens a span in the op in flight; it returns a nil op when
// recording is off, which end ignores.
func (b *boundary) start() (*op, mark) {
	o := b.tr.active()
	if o == nil {
		return nil, mark{}
	}
	return o, o.enter(b.tr.now())
}

func (b *boundary) end(o *op, m mark, name string) {
	if o != nil {
		o.exit(b.layer, name, b.shard, m, b.tr.now())
	}
}

func (e *tracedEngine) Begin(ctx context.Context) core.Tx {
	o, m := e.start()
	tx := e.Engine.Begin(ctx)
	e.end(o, m, e.names.begin)
	return &tracedTx{Tx: tx, b: &e.boundary}
}

func (e *tracedEngine) Sync() {
	if !e.syncs || !e.tr.on.Load() {
		e.Engine.Sync()
		return
	}
	start := e.tr.now()
	e.Engine.Sync()
	e.tr.recordSync(start, e.tr.now())
}

// AddIndex implements core.Indexer.
func (e *tracedEngine) AddIndex(table, name string, key func(types.Row) int64) error {
	if ix, ok := e.Engine.(core.Indexer); ok {
		return ix.AddIndex(table, name, key)
	}
	return errors.New("bench: engine has no secondary indexes")
}

// IndexLookup implements core.Indexer.
func (e *tracedEngine) IndexLookup(table, name string, k int64) []int64 {
	if ix, ok := e.Engine.(core.Indexer); ok {
		return ix.IndexLookup(table, name, k)
	}
	return nil
}

// SetParallelism implements core.Paralleler.
func (e *tracedEngine) SetParallelism(n int) {
	if p, ok := e.Engine.(core.Paralleler); ok {
		p.SetParallelism(n)
	}
}

// SetMemGovernor implements core.MemGoverned.
func (e *tracedEngine) SetMemGovernor(g *exec.Governor) {
	if m, ok := e.Engine.(core.MemGoverned); ok {
		m.SetMemGovernor(g)
	}
}

// MemGovernor implements core.MemGoverned.
func (e *tracedEngine) MemGovernor() *exec.Governor {
	if m, ok := e.Engine.(core.MemGoverned); ok {
		return m.MemGovernor()
	}
	return nil
}

// MoveRange answers the server's rangeMover probe.
func (e *tracedEngine) MoveRange(ctx context.Context, lo, hi, dest int) (int64, int64, error) {
	type rangeMover interface {
		MoveRange(ctx context.Context, lo, hi, dest int) (int64, int64, error)
	}
	if m, ok := e.Engine.(rangeMover); ok {
		return m.MoveRange(ctx, lo, hi, dest)
	}
	return 0, 0, errors.New("bench: engine is not a distributed coordinator")
}

// tracedTx times each call of one transaction into the op in flight.
type tracedTx struct {
	core.Tx
	b *boundary
}

func (t *tracedTx) Get(table string, key int64) (types.Row, error) {
	o, m := t.b.start()
	r, err := t.Tx.Get(table, key)
	t.b.end(o, m, t.b.names.get)
	return r, err
}

func (t *tracedTx) Insert(table string, row types.Row) error {
	o, m := t.b.start()
	err := t.Tx.Insert(table, row)
	t.b.end(o, m, t.b.names.insert)
	return err
}

func (t *tracedTx) Update(table string, row types.Row) error {
	o, m := t.b.start()
	err := t.Tx.Update(table, row)
	t.b.end(o, m, t.b.names.update)
	return err
}

func (t *tracedTx) Delete(table string, key int64) error {
	o, m := t.b.start()
	err := t.Tx.Delete(table, key)
	t.b.end(o, m, t.b.names.del)
	return err
}

func (t *tracedTx) Commit() error {
	o, m := t.b.start()
	err := t.Tx.Commit()
	t.b.end(o, m, t.b.names.commit)
	return err
}

func (t *tracedTx) Abort() {
	o, m := t.b.start()
	t.Tx.Abort()
	t.b.end(o, m, t.b.names.abort)
}

// Prepare answers the txPreparer probe of the server and of dist's 2PC
// branches. Both treat a transaction without Prepare as already prepared,
// which is what nil says for one.
func (t *tracedTx) Prepare() error {
	p, ok := t.Tx.(interface{ Prepare() error })
	if !ok {
		return nil
	}
	o, m := t.b.start()
	err := p.Prepare()
	t.b.end(o, m, t.b.names.prepare)
	return err
}

// tracedRemote is the client-side boundary on the service workload: each Tx
// call is one request/reply round trip. Embedding the concrete client keeps
// Query, RunCH (htapbench.CHRunner), Sync and Freshness as they are.
type tracedRemote struct {
	*client.Remote
	boundary
}

func newTracedRemote(r *client.Remote, tr *tracer) *tracedRemote {
	return &tracedRemote{Remote: r, boundary: boundary{tr: tr, layer: layOuter, shard: -1, names: clientNames}}
}

func (r *tracedRemote) Begin(ctx context.Context) core.Tx {
	o, m := r.start()
	tx := r.Remote.Begin(ctx)
	r.end(o, m, r.names.begin)
	return &tracedTx{Tx: tx, b: &r.boundary}
}
