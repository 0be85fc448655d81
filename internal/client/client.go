// Package client is the wire protocol's client side: a connection pool
// with per-request deadlines, retry with jittered exponential backoff on
// retryable errors only, and a Remote engine that satisfies the same
// benchmark-facing surface as an in-process core.Engine — the CH driver
// and htapbench harness run unchanged against a server across the
// network.
//
// Cancellation is physical: cancelling a request's context closes the
// underlying connection, which the server's read watchdog observes and
// converts into scan cancellation mid-batch. The broken connection is
// discarded, not pooled.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"htap/internal/core"
	"htap/internal/exec"
	"htap/internal/obs"
	"htap/internal/types"
	"htap/internal/wire"
)

// TransportError wraps connection-level failures (dial refused, reset,
// EOF mid-frame). It is retryable: the pool dials a fresh connection and
// the request — or for transaction ops, core.Exec's whole-transaction
// loop — tries again.
type TransportError struct {
	Err error
}

func (e *TransportError) Error() string { return "client: transport: " + e.Err.Error() }

// Unwrap exposes the underlying network error.
func (e *TransportError) Unwrap() error { return e.Err }

// Retryable marks transport failures safe to retry.
func (e *TransportError) Retryable() bool { return true }

// CommitIndeterminateError reports a commit whose outcome is unknown: the
// connection (or deadline) died after MsgCommit may have reached the
// server, so the transaction may or may not have applied. It is
// deliberately non-retryable — re-running the transaction through
// core.Exec could apply it twice.
type CommitIndeterminateError struct {
	Err error
}

func (e *CommitIndeterminateError) Error() string {
	return "client: commit outcome unknown: " + e.Err.Error()
}

// Unwrap exposes the underlying failure (transport or context error).
func (e *CommitIndeterminateError) Unwrap() error { return e.Err }

// Retryable is always false: the commit may already be applied.
func (e *CommitIndeterminateError) Retryable() bool { return false }

// Options tunes the client.
type Options struct {
	// PoolSize caps idle pooled connections (default 8).
	PoolSize int
	// Retries is the retry budget per request (default 4 attempts after
	// the first).
	Retries int
	// Backoff is the first retry delay (default 2ms), doubling per
	// attempt with ±50% jitter up to MaxBackoff (default 100ms).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Seed makes the jitter deterministic in tests; 0 seeds from 1.
	Seed int64
	// Reg receives the htap_client_* series; nil uses obs.Default.
	Reg *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.PoolSize == 0 {
		o.PoolSize = 8
	}
	if o.Retries == 0 {
		o.Retries = 4
	}
	if o.Backoff == 0 {
		o.Backoff = 2 * time.Millisecond
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = 100 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Reg == nil {
		o.Reg = obs.Default
	}
	return o
}

// conn is one established, handshaken connection. broken is atomic
// because the context watcher (watchCtx) sets it from its own goroutine.
type conn struct {
	nc     net.Conn
	hello  wire.ServerHello
	broken atomic.Bool
}

// Remote is a network-backed engine. It implements the ch.Engine and
// htapbench.Engine surfaces (Begin/Snapshot/Query/Arch/Sync/Freshness) plus a
// server-side CH query path, so benchmark code cannot tell it from a
// local engine.
type Remote struct {
	addr  string
	opt   Options
	rng   *rand.Rand // jitter; guarded by rngMu
	rngMu sync.Mutex

	mu     sync.Mutex
	idle   []*conn
	out    map[*conn]struct{} // handed out by get, not yet put back
	closed bool

	arch   core.Arch
	meta   map[string]int64
	tables []*types.Schema // the served catalog, from the handshake

	mReq     map[string]*obs.Counter
	mRetries map[string]*obs.Counter
	mLatNS   map[string]*obs.Histogram
	mDials   *obs.Counter
	mConnErr *obs.Counter
}

// Connect dials addr, performs the handshake, and returns a Remote
// engine. The handshake connection is pooled for reuse.
func Connect(ctx context.Context, addr string, opt Options) (*Remote, error) {
	opt = opt.withDefaults()
	r := &Remote{
		addr:     addr,
		opt:      opt,
		rng:      rand.New(rand.NewSource(opt.Seed)),
		out:      map[*conn]struct{}{},
		mReq:     map[string]*obs.Counter{},
		mRetries: map[string]*obs.Counter{},
		mLatNS:   map[string]*obs.Histogram{},
		mDials:   opt.Reg.Counter("htap_client_dials_total", nil),
		mConnErr: opt.Reg.Counter("htap_client_conn_errors_total", nil),
	}
	for _, class := range []string{wire.ClassOLTP, wire.ClassOLAP} {
		lbl := obs.L("class", class)
		r.mReq[class] = opt.Reg.Counter("htap_client_requests_total", lbl)
		r.mRetries[class] = opt.Reg.Counter("htap_client_retries_total", lbl)
		r.mLatNS[class] = opt.Reg.Histogram("htap_client_request_ns", lbl)
	}
	c, err := r.dial(ctx)
	if err != nil {
		return nil, err
	}
	r.arch = core.Arch(c.hello.Arch)
	r.meta = c.hello.Meta
	r.tables = c.hello.Tables
	r.put(c)
	return r, nil
}

// Arch reports the served engine's architecture.
func (r *Remote) Arch() core.Arch { return r.arch }

// Meta returns the server's handshake metadata (dataset scale,
// history-key watermark).
func (r *Remote) Meta() map[string]int64 { return r.meta }

// Close closes every connection: the pooled ones and those checked out,
// so a transaction still open ends its server session (and releases its
// read pin) instead of outliving the Remote.
func (r *Remote) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	for _, c := range r.idle {
		_ = c.nc.Close()
	}
	for c := range r.out {
		_ = c.nc.Close()
	}
	r.idle, r.out = nil, nil
}

func (r *Remote) dial(ctx context.Context) (*conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", r.addr)
	if err != nil {
		r.mConnErr.Inc()
		return nil, &TransportError{Err: err}
	}
	r.mDials.Inc()
	c := &conn{nc: nc}
	if err := wire.WriteFrame(nc, wire.MsgHello, wire.Hello{Version: wire.Version}.Encode(nil)); err != nil {
		_ = nc.Close()
		r.mConnErr.Inc()
		return nil, &TransportError{Err: err}
	}
	typ, payload, err := wire.ReadFrame(nc)
	if err != nil {
		_ = nc.Close()
		r.mConnErr.Inc()
		return nil, &TransportError{Err: err}
	}
	switch typ {
	case wire.MsgServerHello:
		h, err := wire.DecodeServerHello(payload)
		if err != nil {
			_ = nc.Close()
			return nil, err
		}
		c.hello = h
		return c, nil
	case wire.MsgError:
		_ = nc.Close()
		return nil, wire.DecodeError(payload)
	default:
		_ = nc.Close()
		return nil, fmt.Errorf("client: unexpected handshake frame %d", typ)
	}
}

var errClosed = errors.New("client: closed")

// get returns a pooled or fresh connection, tracked as checked out until
// put.
func (r *Remote) get(ctx context.Context) (*conn, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, errClosed
	}
	if n := len(r.idle); n > 0 {
		c := r.idle[n-1]
		r.idle = r.idle[:n-1]
		r.out[c] = struct{}{}
		r.mu.Unlock()
		return c, nil
	}
	r.mu.Unlock()
	c, err := r.dial(ctx)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		_ = c.nc.Close()
		return nil, errClosed
	}
	r.out[c] = struct{}{}
	return c, nil
}

// put returns a healthy connection to the pool and closes broken or
// surplus ones.
func (r *Remote) put(c *conn) {
	if c == nil {
		return
	}
	r.mu.Lock()
	delete(r.out, c)
	if c.broken.Load() || r.closed || len(r.idle) >= r.opt.PoolSize {
		r.mu.Unlock()
		_ = c.nc.Close()
		return
	}
	r.idle = append(r.idle, c)
	r.mu.Unlock()
}

// roundTrip sends one request frame and reads the response, honouring
// ctx: cancellation closes the connection, which both unblocks local I/O
// and tells the server to stop working on the request.
func (c *conn) roundTrip(ctx context.Context, typ byte, payload []byte) (byte, []byte, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	stop := watchCtx(ctx, c)
	defer stop()
	if err := wire.WriteFrame(c.nc, typ, payload); err != nil {
		c.broken.Store(true)
		return 0, nil, ctxOrTransport(ctx, err)
	}
	rt, resp, err := wire.ReadFrame(c.nc)
	if err != nil {
		c.broken.Store(true)
		return 0, nil, ctxOrTransport(ctx, err)
	}
	return rt, resp, nil
}

// readFrame reads a follow-up stream frame under the same ctx discipline.
func (c *conn) readFrame(ctx context.Context) (byte, []byte, error) {
	stop := watchCtx(ctx, c)
	defer stop()
	rt, resp, err := wire.ReadFrame(c.nc)
	if err != nil {
		c.broken.Store(true)
		return 0, nil, ctxOrTransport(ctx, err)
	}
	return rt, resp, nil
}

// watchCtx closes the connection when ctx ends before stop is called.
// Closing is the cancellation signal: the server's watchdog sees EOF and
// abandons the scan. stop waits for the watcher goroutine to exit
// (mirroring server.watch) so a cancellation that races a completed
// response cannot mark the conn broken or close it after it has been
// returned to the pool — and possibly handed to another request.
func watchCtx(ctx context.Context, c *conn) (stop func()) {
	if ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-ctx.Done():
			c.broken.Store(true)
			_ = c.nc.Close()
		case <-done:
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// ctxOrTransport prefers the context error when the failure was caused
// by our own cancellation close.
func ctxOrTransport(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return &TransportError{Err: err}
}

// requestErr is the error a server's error reply reports to a caller
// whose request ran under ctx. The existence rule's codes become the core
// sentinels, as a local engine returns them. The server answers a
// cancelled request and one past its deadline alike (CodeCanceled), so
// once ctx is done the reply becomes ctx.Err(): errors.Is then sees
// context.Canceled or context.DeadlineExceeded whichever side noticed
// first. A deadline the clock has passed counts as done even before ctx's
// own timer has fired. While ctx is not done the reply stays the wire
// error.
func requestErr(ctx context.Context, we *wire.Error) error {
	switch we.Code {
	case wire.CodeNotFound:
		return core.ErrNotFound
	case wire.CodeDuplicate:
		return core.ErrDuplicate
	case wire.CodeCanceled:
		if err := ctx.Err(); err != nil {
			return err
		}
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			return context.DeadlineExceeded
		}
	}
	return we
}

// retryable reports whether a request-level failure is worth a fresh
// attempt: transport failures and self-declared retryable wire errors
// (conflict, overloaded, shutdown). Context errors never retry.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var r interface{ Retryable() bool }
	return errors.As(err, &r) && r.Retryable()
}

// do runs fn with a connection, retrying retryable failures with
// jittered exponential backoff. fn must be idempotent — queries, sync,
// freshness; transaction ops go through Begin's pinned connection and
// rely on core.Exec for whole-transaction retry instead.
//
// When ctx carries a span, every attempt gets its own child span (sp to
// fn; nil when untraced) whose IDs ride the request frame — so one trace
// holds every retry of a flaky request, each linked to the server-side
// span it produced on the far end.
func (r *Remote) do(ctx context.Context, class string, fn func(*conn, *obs.Span) error) error {
	start := time.Now()
	defer func() { r.mLatNS[class].Since(start) }()
	parent := obs.SpanFromContext(ctx)
	delay := r.opt.Backoff
	var err error
	for attempt := 0; attempt <= r.opt.Retries; attempt++ {
		if attempt > 0 {
			r.mRetries[class].Inc()
			if serr := r.sleep(ctx, r.jitter(delay)); serr != nil {
				return serr
			}
			if delay *= 2; delay > r.opt.MaxBackoff {
				delay = r.opt.MaxBackoff
			}
		}
		var c *conn
		c, err = r.get(ctx)
		if err == nil {
			r.mReq[class].Inc()
			var sp *obs.Span
			if parent != nil {
				sp = parent.Child("client.attempt").AttrInt("attempt", int64(attempt))
			}
			err = fn(c, sp)
			if sp != nil {
				sp.End()
			}
			r.put(c)
		}
		if err == nil {
			return nil
		}
		if !retryable(err) {
			return err
		}
	}
	return fmt.Errorf("client: gave up after %d attempts: %w", r.opt.Retries+1, err)
}

// jitter spreads a delay to 50–150% so synchronized retries desynchronize.
func (r *Remote) jitter(d time.Duration) time.Duration {
	r.rngMu.Lock()
	f := 0.5 + r.rng.Float64()
	r.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

func (r *Remote) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// deadlineOf extracts ctx's absolute deadline for the wire (0 = none).
func deadlineOf(ctx context.Context) int64 {
	if dl, ok := ctx.Deadline(); ok {
		return dl.UnixNano()
	}
	return 0
}

// expectOK consumes a response that should be MsgOK.
func expectOK(ctx context.Context, typ byte, payload []byte) error {
	switch typ {
	case wire.MsgOK:
		return nil
	case wire.MsgError:
		return requestErr(ctx, wire.DecodeError(payload))
	default:
		return fmt.Errorf("client: unexpected frame %d", typ)
	}
}

// readStream consumes a schema + batches + EOS stream. A decode or
// protocol failure abandons the stream with Batch/EOS frames possibly
// still in flight, so those paths mark the connection broken — pooling
// it would feed the stale frames to the next request. Server-sent
// MsgError frames terminate the stream cleanly and leave the connection
// reusable.
func readStream(ctx context.Context, c *conn, typ byte, payload []byte) ([]types.Row, wire.EOS, error) {
	fail := func(err error) ([]types.Row, wire.EOS, error) {
		c.broken.Store(true)
		return nil, wire.EOS{}, err
	}
	if typ == wire.MsgError {
		return nil, wire.EOS{}, requestErr(ctx, wire.DecodeError(payload))
	}
	if typ != wire.MsgSchema {
		return fail(fmt.Errorf("client: expected schema frame, got %d", typ))
	}
	if _, err := wire.DecodeSchema(payload); err != nil {
		return fail(err)
	}
	var rows []types.Row
	for {
		typ, payload, err := c.readFrame(ctx)
		if err != nil {
			return nil, wire.EOS{}, err // readFrame already marked the conn broken
		}
		switch typ {
		case wire.MsgBatch:
			b, err := wire.DecodeBatch(payload)
			if err != nil {
				return fail(err)
			}
			rows = append(rows, b.Rows...)
		case wire.MsgEOS:
			eos, err := wire.DecodeEOS(payload)
			if err != nil {
				return fail(err)
			}
			if int64(len(rows)) != eos.Rows {
				return fail(fmt.Errorf("client: stream lost rows: got %d, server sent %d", len(rows), eos.Rows))
			}
			return rows, eos, nil
		case wire.MsgError:
			return nil, wire.EOS{}, requestErr(ctx, wire.DecodeError(payload))
		default:
			return fail(fmt.Errorf("client: unexpected stream frame %d", typ))
		}
	}
}

// readPartialStream consumes a pushed-aggregation reply: MsgPartial
// frames carrying encoded group states, terminated by MsgEOS whose Rows
// trailer counts groups. The broken-connection discipline mirrors
// readStream — decode/protocol failures abandon frames in flight and
// poison the conn; a server MsgError terminates cleanly.
func readPartialStream(ctx context.Context, c *conn, typ byte, payload []byte) ([]types.Row, wire.EOS, error) {
	fail := func(err error) ([]types.Row, wire.EOS, error) {
		c.broken.Store(true)
		return nil, wire.EOS{}, err
	}
	var groups []types.Row
	for {
		switch typ {
		case wire.MsgPartial:
			p, err := wire.DecodePartial(payload)
			if err != nil {
				return fail(err)
			}
			groups = append(groups, p.Groups...)
		case wire.MsgEOS:
			eos, err := wire.DecodeEOS(payload)
			if err != nil {
				return fail(err)
			}
			if int64(len(groups)) != eos.Rows {
				return fail(fmt.Errorf("client: partial stream lost groups: got %d, server sent %d", len(groups), eos.Rows))
			}
			return groups, eos, nil
		case wire.MsgError:
			return nil, wire.EOS{}, requestErr(ctx, wire.DecodeError(payload))
		default:
			return fail(fmt.Errorf("client: unexpected partial-stream frame %d", typ))
		}
		var err error
		typ, payload, err = c.readFrame(ctx)
		if err != nil {
			return nil, wire.EOS{}, err // readFrame already marked the conn broken
		}
	}
}

// Rebalance asks the server's coordinator engine to move warehouses
// [lo, hi] to shard dest, returning rows moved and the new routing
// version. The request deliberately bypasses the do() retry loop: a
// move is not idempotent under transport error — the first attempt may
// have cut over before the acknowledgement was lost — so a failure is
// reported to the operator instead of silently re-issued.
func (r *Remote) Rebalance(ctx context.Context, lo, hi, dest int) (int64, int64, error) {
	m := wire.Rebalance{Deadline: deadlineOf(ctx), Lo: int64(lo), Hi: int64(hi), Dest: int64(dest)}
	c, err := r.get(ctx)
	if err != nil {
		return 0, 0, err
	}
	defer r.put(c)
	typ, payload, err := c.roundTrip(ctx, wire.MsgRebalance, m.Encode(nil))
	if err != nil {
		return 0, 0, err
	}
	switch typ {
	case wire.MsgRebalanceInfo:
		info, err := wire.DecodeRebalanceInfo(payload)
		if err != nil {
			c.broken.Store(true)
			return 0, 0, err
		}
		return info.Moved, info.Version, nil
	case wire.MsgError:
		return 0, 0, requestErr(ctx, wire.DecodeError(payload))
	default:
		c.broken.Store(true)
		return 0, 0, fmt.Errorf("client: unexpected frame %d", typ)
	}
}

// adoptRemoteProfile merges a profiled EOS trailer into the profile the
// caller's context carries (if any) — the client-side half of remote
// EXPLAIN ANALYZE.
func adoptRemoteProfile(ctx context.Context, eos wire.EOS) {
	if !eos.HasProfile {
		return
	}
	if prof := exec.ProfileFrom(ctx); prof != nil {
		prof.AddRemote(eos.Profile, eos.ExecNS, eos.AdmitNS, eos.SpillNS)
	}
}

// stream sends one analytical request and materializes the batch stream
// that answers it — the round trip behind RunCH and a FragmentSource's
// fetch. encode builds the payload around the attempt's trace context
// (zeros when untraced). Retries ride do()'s normal loop: every such
// request is read-only and idempotent.
func (r *Remote) stream(ctx context.Context, typ byte, encode func(traceID, spanID uint64) []byte) (rows []types.Row, err error) {
	err = r.do(ctx, wire.ClassOLAP, func(c *conn, sp *obs.Span) error {
		var traceID, spanID uint64
		if sp != nil {
			traceID, spanID = sp.TraceID(), sp.SpanID()
		}
		typ, payload, err := c.roundTrip(ctx, typ, encode(traceID, spanID))
		if err != nil {
			return err
		}
		var eos wire.EOS
		rows, eos, err = readStream(ctx, c, typ, payload)
		if err == nil {
			adoptRemoteProfile(ctx, eos)
		}
		return err
	})
	return rows, err
}

// Query satisfies the engine Query surface with a plan over a lazy remote
// scan (FragmentSource), the one remote scan path dist also plans over:
// filter, and every filter the caller adds before the plan runs, travels
// to the server in the fragment frame. The projected schema comes from the
// catalog the server sent in its handshake. A failed fetch reaches the
// plan's error sink, so running the plan reports it and a failed scan is
// never mistaken for an empty table. Cancellation aborts the stream and
// the server-side scan.
func (r *Remote) Query(ctx context.Context, table string, cols []string, filter exec.Expr) *exec.Plan {
	i := slices.IndexFunc(r.tables, func(s *types.Schema) bool { return s.Name == table })
	if i < 0 {
		return exec.FromError(fmt.Errorf("%w: %s", core.ErrNoTable, table))
	}
	fs := r.Fragment(ctx, table, r.tables[i].Project(cols))
	p := exec.From(fs)
	fs.OnError(p.ErrSink())
	return p.Filter(filter)
}

// Snapshot satisfies the engine Snapshot surface. The wire carries no read
// timestamp yet (ROADMAP item 3), so each Query is a scan of its own at
// the server's current state and ReadTS is 0.
func (r *Remote) Snapshot(ctx context.Context) core.Snapshot { return remoteSnapshot{r: r, ctx: ctx} }

type remoteSnapshot struct {
	r   *Remote
	ctx context.Context
}

// ReadTS implements core.Snapshot.
func (s remoteSnapshot) ReadTS() uint64 { return 0 }

// Query implements core.Snapshot.
func (s remoteSnapshot) Query(table string, cols []string, filter exec.Expr) *exec.Plan {
	return s.r.Query(s.ctx, table, cols, filter)
}

// Close implements core.Snapshot. It has nothing to release: each scan the
// server runs opens and closes a snapshot of its own.
func (s remoteSnapshot) Close() {}

// RunCH runs CH query n server-side and returns its rows. htapbench
// prefers this over client-side query assembly when the engine provides
// it: one round trip carries only the (small, aggregated) result set.
func (r *Remote) RunCH(ctx context.Context, n int) ([]types.Row, error) {
	m := wire.Query{Deadline: deadlineOf(ctx), N: uint32(n), Profile: exec.ProfileFrom(ctx) != nil}
	rows, err := r.stream(ctx, wire.MsgQuery, func(traceID, spanID uint64) []byte {
		m.TraceID, m.SpanID = traceID, spanID
		return m.Encode(nil)
	})
	return rows, err
}

// Sync forces a server-side data-synchronization round.
func (r *Remote) Sync() {
	_ = r.do(context.Background(), wire.ClassOLAP, func(c *conn, _ *obs.Span) error {
		typ, payload, err := c.roundTrip(context.Background(), wire.MsgSync, nil)
		if err != nil {
			return err
		}
		return expectOK(context.Background(), typ, payload)
	})
}

// Freshness reports the server's OLTP-vs-OLAP watermark gap.
func (r *Remote) Freshness() core.Freshness {
	var snap core.Freshness
	_ = r.do(context.Background(), wire.ClassOLAP, func(c *conn, _ *obs.Span) error {
		typ, payload, err := c.roundTrip(context.Background(), wire.MsgFreshness, nil)
		if err != nil {
			return err
		}
		if typ == wire.MsgError {
			return wire.DecodeError(payload)
		}
		if typ != wire.MsgFreshnessInfo {
			return fmt.Errorf("client: unexpected frame %d", typ)
		}
		f, err := wire.DecodeFreshness(payload)
		if err != nil {
			return err
		}
		snap = core.Freshness{
			CommitTS: f.CommitTS, AppliedTS: f.AppliedTS,
			LagTS: f.LagTS, LagTime: time.Duration(f.LagNS),
		}
		return nil
	})
	return snap
}

// Begin starts a remote transaction pinned to one connection. A failed
// begin (overload, drain, transport) returns a stub transaction whose
// operations all report the failure — core.Tx has no error return, and
// core.Exec's retry loop picks the error up from the first operation.
func (r *Remote) Begin(ctx context.Context) core.Tx {
	c, err := r.get(ctx)
	if err != nil {
		return &failedTx{err: err}
	}
	b := wire.Begin{Deadline: deadlineOf(ctx)}
	if sp := obs.SpanFromContext(ctx); sp != nil {
		b.TraceID, b.SpanID = sp.TraceID(), sp.SpanID()
	}
	typ, payload, err := c.roundTrip(ctx, wire.MsgBegin, b.Encode(nil))
	if err == nil {
		err = expectOK(ctx, typ, payload)
	}
	if err != nil {
		r.put(c)
		return &failedTx{err: err}
	}
	r.mReq[wire.ClassOLTP].Inc()
	return &remoteTx{r: r, c: c, ctx: ctx, start: time.Now()}
}

// failedTx reports a begin-time failure from every operation.
type failedTx struct{ err error }

func (t *failedTx) Get(string, int64) (types.Row, error) { return nil, t.err }
func (t *failedTx) Insert(string, types.Row) error       { return t.err }
func (t *failedTx) Update(string, types.Row) error       { return t.err }
func (t *failedTx) Delete(string, int64) error           { return t.err }
func (t *failedTx) Commit() error                        { return t.err }
func (t *failedTx) Abort()                               {}

// remoteTx speaks the transaction ops over its pinned connection.
type remoteTx struct {
	r     *Remote
	c     *conn
	ctx   context.Context
	start time.Time
	done  bool
}

// finish returns the connection to the pool once.
func (t *remoteTx) finish() {
	if t.done {
		return
	}
	t.done = true
	t.r.mLatNS[wire.ClassOLTP].Since(t.start)
	t.r.put(t.c)
	t.c = nil
}

func (t *remoteTx) op(typ byte, payload []byte) (byte, []byte, error) {
	if t.done {
		return 0, nil, errors.New("client: transaction finished")
	}
	rt, resp, err := t.c.roundTrip(t.ctx, typ, payload)
	if err != nil {
		// Transport failure mid-transaction: the server aborts on
		// disconnect; release the broken conn now.
		t.finish()
	}
	return rt, resp, err
}

func (t *remoteTx) Get(table string, key int64) (types.Row, error) {
	typ, payload, err := t.op(wire.MsgGet, wire.KeyReq{Table: table, Key: key}.Encode(nil))
	if err != nil {
		return nil, err
	}
	switch typ {
	case wire.MsgRow:
		b, err := wire.DecodeBatch(payload)
		if err != nil || len(b.Rows) != 1 {
			return nil, fmt.Errorf("client: bad row frame: %v", err)
		}
		return b.Rows[0], nil
	case wire.MsgError:
		return nil, requestErr(t.ctx, wire.DecodeError(payload))
	default:
		return nil, fmt.Errorf("client: unexpected frame %d", typ)
	}
}

func (t *remoteTx) write(typ byte, payload []byte) error {
	rt, resp, err := t.op(typ, payload)
	if err != nil {
		return err
	}
	return expectOK(t.ctx, rt, resp)
}

func (t *remoteTx) Insert(table string, row types.Row) error {
	return t.write(wire.MsgInsert, wire.RowReq{Table: table, Row: row}.Encode(nil))
}

func (t *remoteTx) Update(table string, row types.Row) error {
	return t.write(wire.MsgUpdate, wire.RowReq{Table: table, Row: row}.Encode(nil))
}

func (t *remoteTx) Delete(table string, key int64) error {
	return t.write(wire.MsgDelete, wire.KeyReq{Table: table, Key: key}.Encode(nil))
}

// Prepare votes on the transaction — phase one of a cross-shard commit.
// The server validated locks and snapshots as each write arrived, so a nil
// return promises the later Commit cannot fail validation; it can only
// fail indeterminately (transport). A transport failure here is safe: the
// server aborts on disconnect and nothing committed anywhere yet.
func (t *remoteTx) Prepare() error {
	m := wire.Prepare{Deadline: deadlineOf(t.ctx)}
	if sp := obs.SpanFromContext(t.ctx); sp != nil {
		m.TraceID, m.SpanID = sp.TraceID(), sp.SpanID()
	}
	typ, payload, err := t.op(wire.MsgPrepare, m.Encode(nil))
	if err != nil {
		return err
	}
	return expectOK(t.ctx, typ, payload)
}

func (t *remoteTx) Commit() error {
	if t.done {
		return errors.New("client: transaction finished")
	}
	typ, payload, err := t.c.roundTrip(t.ctx, wire.MsgCommit, nil)
	t.finish()
	if err != nil {
		// The connection died between sending MsgCommit and reading the
		// response: the server may already have applied the commit, so
		// the outcome is indeterminate and the error must not be
		// retryable — core.Exec re-running the transaction would
		// double-apply it.
		return &CommitIndeterminateError{Err: err}
	}
	return expectOK(t.ctx, typ, payload)
}

func (t *remoteTx) Abort() {
	if t.done {
		return
	}
	typ, payload, err := t.c.roundTrip(t.ctx, wire.MsgAbort, nil)
	t.finish()
	if err == nil {
		_ = expectOK(t.ctx, typ, payload)
	}
}
