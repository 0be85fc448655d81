// Package server is the network service layer: a TCP listener that
// exposes any core.Engine over the wire protocol, with per-connection
// session state, per-class admission control, and a graceful drain path.
//
// Each connection is one session owning at most one open transaction.
// Requests are admitted through separate OLTP and OLAP GCRA buckets so an
// analytical burst sheds (wire.ErrOverloaded) instead of queueing ahead
// of point transactions — the service-layer half of the paper's
// workload-isolation story. Query execution is cancellable three ways:
// the client's propagated deadline, client disconnect (detected by a
// read watchdog while the scan runs), and server drain.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"htap/internal/ch"
	"htap/internal/core"
	"htap/internal/exec"
	"htap/internal/obs"
	"htap/internal/types"
	"htap/internal/wire"
)

// Config parameterizes a server.
type Config struct {
	// Engine is the storage architecture being served.
	Engine core.Engine
	// Meta is advertised to every client in the handshake (dataset scale,
	// history-key watermark). May be nil.
	Meta map[string]int64

	// OLTPRate and OLAPRate are sustained admissions per second for the
	// two classes; <= 0 disables limiting for that class.
	OLTPRate float64
	OLAPRate float64
	// OLTPBurst and OLAPBurst are the immediate-admission allowances
	// (default 32 and 4).
	OLTPBurst int
	OLAPBurst int
	// MaxWait bounds queueing before a request is shed (default 100ms).
	MaxWait time.Duration

	// MemGov, when set, gates OLAP admission on execution-memory pressure:
	// new analytical requests shed with a typed "memory" reason once
	// MemGov.Pressure() reaches MemShedPressure (default 0.85). OLTP is
	// never memory-shed — point transactions are not the memory spenders,
	// and keeping them flowing is the whole point of bounding OLAP.
	MemGov *exec.Governor
	// MemShedPressure is the Used/Limit fraction above which OLAP sheds
	// (default 0.85; set < 0 to disable).
	MemShedPressure float64

	// Reg receives the htap_server_* series; nil uses obs.Default.
	Reg *obs.Registry
}

// Server serves the wire protocol on one listener.
type Server struct {
	cfg    Config
	ln     net.Listener
	hello  []byte // pre-encoded ServerHello payload
	oltp   *Limiter
	olap   *Limiter
	m      *metrics
	ctx    context.Context // closes when Shutdown force-cancels
	cancel context.CancelFunc

	draining atomic.Bool
	wg       sync.WaitGroup // one count per live connection

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

type metrics struct {
	requests map[string]*obs.Counter
	admitNS  map[string]*obs.Histogram
	reqNS    map[string]*obs.Histogram
	conns    *obs.Gauge
	handles  []*obs.FuncHandle
	reg      *obs.Registry

	// sheds is keyed class+reason ("rate", "memory", "canceled") and
	// populated lazily, so dashboards can tell a rate shed from a
	// memory-pressure shed.
	shedMu sync.Mutex
	sheds  map[string]*obs.Counter
}

func newMetrics(reg *obs.Registry, oltp, olap *Limiter) *metrics {
	m := &metrics{
		requests: map[string]*obs.Counter{},
		sheds:    map[string]*obs.Counter{},
		admitNS:  map[string]*obs.Histogram{},
		reqNS:    map[string]*obs.Histogram{},
		reg:      reg,
	}
	for class, l := range map[string]*Limiter{wire.ClassOLTP: oltp, wire.ClassOLAP: olap} {
		lbl := obs.L("class", class)
		m.requests[class] = reg.Counter("htap_server_requests_total", lbl)
		m.admitNS[class] = reg.Histogram("htap_server_admission_wait_ns", lbl)
		m.reqNS[class] = reg.Histogram("htap_server_request_ns", lbl)
		l := l
		m.handles = append(m.handles, reg.RegisterFunc(
			"htap_server_queue_depth", lbl, obs.KindGauge,
			func() float64 { return float64(l.Waiting()) }))
	}
	m.conns = reg.Gauge("htap_server_conns", nil)
	return m
}

// shed counts one shed of class for reason.
func (m *metrics) shed(class, reason string) {
	key := class + "|" + reason
	m.shedMu.Lock()
	ctr := m.sheds[key]
	if ctr == nil {
		ctr = m.reg.Counter("htap_server_shed_total", obs.L("class", class, "reason", reason))
		m.sheds[key] = ctr
	}
	m.shedMu.Unlock()
	ctr.Inc()
}

// Serve starts a server on addr ("127.0.0.1:0" picks a free port).
func Serve(addr string, cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: nil engine")
	}
	if cfg.OLTPBurst == 0 {
		cfg.OLTPBurst = 32
	}
	if cfg.OLAPBurst == 0 {
		cfg.OLAPBurst = 4
	}
	if cfg.MaxWait == 0 {
		cfg.MaxWait = 100 * time.Millisecond
	}
	if cfg.MemShedPressure == 0 {
		cfg.MemShedPressure = 0.85
	}
	if cfg.Reg == nil {
		cfg.Reg = obs.Default
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		ln:     ln,
		oltp:   NewLimiter(cfg.OLTPRate, cfg.OLTPBurst, cfg.MaxWait),
		olap:   NewLimiter(cfg.OLAPRate, cfg.OLAPBurst, cfg.MaxWait),
		ctx:    ctx,
		cancel: cancel,
		conns:  map[net.Conn]struct{}{},
	}
	s.m = newMetrics(cfg.Reg, s.oltp, s.olap)
	s.hello = wire.ServerHello{
		Version: wire.Version,
		Arch:    uint8(cfg.Engine.Arch()),
		Meta:    cfg.Meta,
	}.Encode(nil)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// helloPayload returns the ServerHello to send a connecting client. The
// handshake is pre-encoded at startup, but the history-key watermark must
// be live: each remote driver process bumps its allocator from the
// handshake, so advertising the load-time value would hand every
// successive driver the same key range. When the advertised meta carries
// an hkey and history inserts have since raised the allocator, re-encode
// with the current watermark.
func (s *Server) helloPayload() []byte {
	base, ok := s.cfg.Meta["hkey"]
	if !ok {
		return s.hello
	}
	live := ch.HistoryKeyWatermark()
	if live <= base {
		return s.hello
	}
	meta := make(map[string]int64, len(s.cfg.Meta))
	for k, v := range s.cfg.Meta {
		meta[k] = v
	}
	meta["hkey"] = live
	return wire.ServerHello{
		Version: wire.Version,
		Arch:    uint8(s.cfg.Engine.Arch()),
		Meta:    meta,
	}.Encode(nil)
}

// Shutdown drains the server: it stops accepting, lets in-flight requests
// finish (sessions see wire.ErrShutdown on their next request), and
// returns when every connection has closed. If ctx expires first, open
// connections are severed and running queries cancelled.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	_ = s.ln.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancel() // cancel running queries and transactions
		s.mu.Lock()
		for c := range s.conns {
			_ = c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.cancel()
	for _, h := range s.m.handles {
		s.m.reg.Unregister(h)
	}
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed: drain started
		}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.m.conns.SetInt(int64(len(s.conns)))
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

func (s *Server) serveConn(nc net.Conn) {
	sess := &session{srv: s, nc: nc}
	defer func() {
		sess.cleanup()
		s.mu.Lock()
		delete(s.conns, nc)
		n := int64(len(s.conns))
		s.mu.Unlock()
		_ = nc.Close()
		s.m.conns.SetInt(n)
		s.wg.Done()
	}()
	sess.run()
}

// session is the per-connection state: the handshake and at most one open
// transaction.
type session struct {
	srv      *Server
	nc       net.Conn
	tx       core.Tx
	txCancel context.CancelFunc
}

func (c *session) cleanup() {
	if c.tx != nil {
		c.tx.Abort()
		c.endTx()
	}
}

// endTx releases the transaction and its context. The context must live
// exactly as long as the transaction: it is created at Begin and spans
// the follow-up operation requests, so it cannot be request-scoped.
func (c *session) endTx() {
	c.tx = nil
	if c.txCancel != nil {
		c.txCancel()
		c.txCancel = nil
	}
}

func (c *session) send(typ byte, payload []byte) error {
	return wire.WriteFrame(c.nc, typ, payload)
}

func (c *session) sendErr(err error) error {
	return c.send(wire.MsgError, wire.EncodeError(nil, toWireError(err)))
}

// toWireError maps engine errors onto the protocol's typed errors so
// retryability crosses the network.
func toWireError(err error) *wire.Error {
	var we *wire.Error
	if errors.As(err, &we) {
		return we
	}
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return &wire.Error{Code: wire.CodeCanceled, Msg: err.Error()}
	case errors.Is(err, core.ErrNotFound):
		return &wire.Error{Code: wire.CodeNotFound, Msg: err.Error()}
	case errors.Is(err, core.ErrDuplicate):
		return &wire.Error{Code: wire.CodeDuplicate, Msg: err.Error()}
	}
	var r interface{ Retryable() bool }
	if errors.As(err, &r) && r.Retryable() {
		return &wire.Error{Code: wire.CodeConflict, Msg: err.Error()}
	}
	if core.IsRetryable(err) {
		return &wire.Error{Code: wire.CodeConflict, Msg: err.Error()}
	}
	return &wire.Error{Code: wire.CodeInternal, Msg: err.Error()}
}

func (c *session) run() {
	// Handshake first: anything else is a protocol error.
	typ, payload, err := wire.ReadFrame(c.nc)
	if err != nil || typ != wire.MsgHello {
		return
	}
	h, err := wire.DecodeHello(payload)
	if err != nil || h.Version != wire.Version {
		_ = c.sendErr(&wire.Error{Code: wire.CodeBadRequest, Msg: "version mismatch"})
		return
	}
	if err := c.send(wire.MsgServerHello, c.srv.helloPayload()); err != nil {
		return
	}
	for {
		typ, payload, err := wire.ReadFrame(c.nc)
		if err != nil {
			return // disconnect (or drain severed us)
		}
		if err := c.dispatch(typ, payload); err != nil {
			return
		}
		// Drain: finish the request that was in flight, then hang up.
		// Clients see the close as a retryable broken connection; new
		// requests on other sessions get ErrShutdown below.
		if c.srv.draining.Load() && c.tx == nil {
			return
		}
	}
}

// dispatch handles one request frame. A returned error closes the
// connection; request-level failures are reported as Error frames and
// return nil.
func (c *session) dispatch(typ byte, payload []byte) error {
	if c.srv.draining.Load() && c.tx == nil {
		return c.sendErr(wire.ErrShutdown)
	}
	switch typ {
	case wire.MsgBegin:
		return c.handleBegin(payload)
	case wire.MsgGet, wire.MsgDelete:
		return c.handleKeyOp(typ, payload)
	case wire.MsgInsert, wire.MsgUpdate:
		return c.handleRowOp(typ, payload)
	case wire.MsgPrepare:
		return c.handlePrepare(payload)
	case wire.MsgCommit:
		return c.handleCommit()
	case wire.MsgFragment:
		return c.handleFragment(payload)
	case wire.MsgRebalance:
		return c.handleRebalance(payload)
	case wire.MsgAbort:
		c.cleanup()
		return c.send(wire.MsgOK, nil)
	case wire.MsgQuery:
		return c.handleQuery(payload)
	case wire.MsgSync:
		c.srv.cfg.Engine.Sync()
		return c.send(wire.MsgOK, nil)
	case wire.MsgFreshness:
		f := c.srv.cfg.Engine.Freshness()
		return c.send(wire.MsgFreshnessInfo, wire.Freshness{
			CommitTS: f.CommitTS, AppliedTS: f.AppliedTS,
			LagTS: f.LagTS, LagNS: int64(f.LagTime),
		}.Encode(nil))
	default:
		return c.sendErr(&wire.Error{Code: wire.CodeBadRequest, Msg: fmt.Sprintf("unexpected frame type %d", typ)})
	}
}

// admit runs class admission, recording wait and shed metrics. A shed or
// cancelled wait is reported to the client as an Error frame carrying a
// typed reason ("rate", "memory", "canceled") so client backoff can react
// appropriately; ok tells the caller whether to proceed.
func (c *session) admit(ctx context.Context, class string) (ok bool, closeConn error) {
	s := c.srv
	if class == wire.ClassOLAP && s.cfg.MemGov != nil && s.cfg.MemShedPressure >= 0 {
		if s.cfg.MemGov.Pressure() >= s.cfg.MemShedPressure {
			s.m.shed(class, "memory")
			return false, c.sendErr(wire.Overloaded("memory"))
		}
	}
	l := s.oltp
	if class == wire.ClassOLAP {
		l = s.olap
	}
	wait, err := l.Admit(ctx)
	s.m.admitNS[class].ObserveDuration(wait)
	if err != nil {
		reason := "rate"
		if ctx.Err() != nil {
			reason = "canceled"
		}
		s.m.shed(class, reason)
		if errors.Is(err, wire.ErrOverloaded) {
			return false, c.sendErr(wire.Overloaded(reason))
		}
		return false, c.sendErr(err)
	}
	s.m.requests[class].Inc()
	return true, nil
}

func (c *session) handleBegin(payload []byte) error {
	if c.tx != nil {
		return c.sendErr(&wire.Error{Code: wire.CodeBadRequest, Msg: "transaction already open"})
	}
	m, err := wire.DecodeBegin(payload)
	if err != nil {
		return c.sendErr(&wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()})
	}
	start := time.Now()
	ctx, cancel := c.reqCtx(m.Deadline)
	if m.TraceID != 0 {
		sp := obs.Trace.StartRemote("server.begin", m.TraceID, m.SpanID)
		defer sp.End()
		ctx = obs.ContextWithSpan(ctx, sp)
	}
	ok, cerr := c.admit(ctx, wire.ClassOLTP)
	if !ok {
		cancel()
		return cerr
	}
	c.tx = c.srv.cfg.Engine.Begin(ctx)
	c.txCancel = cancel
	c.srv.m.reqNS[wire.ClassOLTP].Since(start)
	return c.send(wire.MsgOK, nil)
}

// reqCtx derives the request context from the server root (so drain
// force-cancel reaches running work) and the client's absolute deadline.
func (c *session) reqCtx(deadline int64) (context.Context, context.CancelFunc) {
	if deadline == 0 {
		return context.WithCancel(c.srv.ctx)
	}
	return context.WithDeadline(c.srv.ctx, time.Unix(0, deadline))
}

func (c *session) handleKeyOp(typ byte, payload []byte) error {
	if c.tx == nil {
		return c.sendErr(&wire.Error{Code: wire.CodeBadRequest, Msg: "no open transaction"})
	}
	m, err := wire.DecodeKeyReq(payload)
	if err != nil {
		return c.sendErr(&wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()})
	}
	if typ == wire.MsgDelete {
		if err := c.tx.Delete(m.Table, m.Key); err != nil {
			return c.sendErr(err)
		}
		return c.send(wire.MsgOK, nil)
	}
	row, err := c.tx.Get(m.Table, m.Key)
	if err != nil {
		return c.sendErr(err)
	}
	return c.send(wire.MsgRow, wire.Batch{Rows: []types.Row{row}}.Encode(nil))
}

func (c *session) handleRowOp(typ byte, payload []byte) error {
	if c.tx == nil {
		return c.sendErr(&wire.Error{Code: wire.CodeBadRequest, Msg: "no open transaction"})
	}
	m, err := wire.DecodeRowReq(payload)
	if err != nil {
		return c.sendErr(&wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()})
	}
	op := c.tx.Insert
	if typ == wire.MsgUpdate {
		op = c.tx.Update
	}
	if err := op(m.Table, m.Row); err != nil {
		return c.sendErr(err)
	}
	// Track the history-key high-water mark as inserts land so later
	// handshakes advertise a watermark above every key any driver has
	// used (the key is column 0 of the history row).
	if typ == wire.MsgInsert && m.Table == ch.THistory && len(m.Row) > 0 {
		ch.BumpHistoryKey(m.Row[0].Int())
	}
	return c.send(wire.MsgOK, nil)
}

func (c *session) handleCommit() error {
	if c.tx == nil {
		return c.sendErr(&wire.Error{Code: wire.CodeBadRequest, Msg: "no open transaction"})
	}
	err := c.tx.Commit()
	c.endTx()
	if err != nil {
		return c.sendErr(err)
	}
	return c.send(wire.MsgOK, nil)
}

func (c *session) handleQuery(payload []byte) error {
	m, err := wire.DecodeQuery(payload)
	if err != nil {
		return c.sendErr(badRequest("%v", err))
	}
	sp := obs.Trace.StartRemote("server.query", m.TraceID, m.SpanID).AttrInt("q", int64(m.N))
	return c.runOLAP(m.Deadline, m.Profile, sp, func(ctx context.Context) (olapReply, error) {
		rows, err := ch.RunQuery(ctx, c.srv.cfg.Engine, int(m.N))
		if err != nil {
			return nil, err
		}
		// CH query results carry no schema; synthesize column names.
		sch := make([]types.Column, 0)
		if len(rows) > 0 {
			for i, d := range rows[0] {
				sch = append(sch, types.Column{Name: fmt.Sprintf("c%d", i), Type: d.Kind})
			}
		}
		return func(eos wire.EOS) error { return c.stream(sch, rows, eos) }, nil
	})
}

// olapReply sends a finished analytical request's result; eos carries the
// profile trailer when the client asked for one.
type olapReply func(eos wire.EOS) error

// runOLAP runs one analytical request under everything the session owes
// it: the request's deadline, OLAP admission, the disconnect watch and,
// when the client asked, a query profile. sp is the request's span — the
// handler starts it with StartRemote, which joins the client's trace and
// degrades to a fresh root for old clients that sent no context, so /spans
// on this process links back to the span that issued the request. run must
// finish executing before it returns, so any execution error becomes a
// clean MsgError ahead of the first stream frame; a handler validates its
// frame before calling runOLAP, so nothing is admitted or watched for a
// request that cannot run.
func (c *session) runOLAP(deadline int64, profile bool, sp *obs.Span, run func(ctx context.Context) (olapReply, error)) error {
	start := time.Now()
	ctx, cancel := c.reqCtx(deadline)
	defer cancel()
	ok, cerr := c.admit(ctx, wire.ClassOLAP)
	admitNS := time.Since(start).Nanoseconds()
	sp.AttrInt("admit_wait_ns", admitNS)
	if !ok {
		sp.End()
		return cerr
	}
	qctx, stop := c.watch(ctx)
	qctx = obs.ContextWithSpan(qctx, sp)
	var prof *exec.QueryProfile
	if profile {
		prof = exec.NewQueryProfile()
		prof.SetAdmitNS(admitNS)
		qctx = exec.WithProfile(qctx, prof)
	}
	reply, err := run(qctx)
	broken := stop()
	c.srv.m.reqNS[wire.ClassOLAP].Since(start)
	// The result is materialized: end the span before any reply frame, so a
	// client that has read EOS finds it in /spans.
	sp.End()
	if broken {
		return errors.New("client broke protocol or disconnected")
	}
	if err != nil {
		return c.sendErr(err)
	}
	return reply(profileEOS(prof, admitNS))
}

func badRequest(format string, args ...any) *wire.Error {
	return &wire.Error{Code: wire.CodeBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// profileEOS builds the EOS profile trailer for a profiled request; a nil
// prof (old client, or profiling not requested) yields the bare frame old
// clients expect byte-for-byte.
func profileEOS(prof *exec.QueryProfile, admitNS int64) wire.EOS {
	if prof == nil {
		return wire.EOS{}
	}
	return wire.EOS{
		HasProfile: true,
		ExecNS:     prof.ExecNS(),
		AdmitNS:    admitNS,
		SpillNS:    prof.SpillNS(),
		Profile:    prof.Render(),
	}
}

// streamBatch is the row count per MsgBatch frame.
const streamBatch = 256

func (c *session) stream(sch []types.Column, rows []types.Row, eos wire.EOS) error {
	eos.Rows = int64(len(rows))
	if err := c.send(wire.MsgSchema, wire.Schema{Cols: sch}.Encode(nil)); err != nil {
		return err
	}
	for len(rows) > 0 {
		n := streamBatch
		if n > len(rows) {
			n = len(rows)
		}
		if err := c.send(wire.MsgBatch, wire.Batch{Rows: rows[:n]}.Encode(nil)); err != nil {
			return err
		}
		rows = rows[n:]
	}
	return c.send(wire.MsgEOS, eos.Encode(nil))
}

// watch cancels the returned context if the client's half of the
// connection produces anything — a byte (protocol violation: requests
// may not overlap) or EOF/reset (disconnect) — while a query runs. The
// protocol's request/response discipline means a healthy client is
// silent here, so a readable event is always "stop scanning".
//
// stop ends the watch, unblocking its Read with a past read deadline,
// and reports whether the connection is broken (the handler must close
// rather than reuse it).
func (c *session) watch(ctx context.Context) (qctx context.Context, stop func() bool) {
	qctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	exited := make(chan struct{})
	var broken atomic.Bool
	go func() {
		defer close(exited)
		var b [1]byte
		_, err := c.nc.Read(b[:])
		select {
		case <-done:
			// stop() unblocked us with the read deadline; a timeout here
			// is the expected clean exit.
			var ne net.Error
			if !(errors.As(err, &ne) && ne.Timeout()) {
				broken.Store(true)
			}
			return
		default:
		}
		// Any read completion while the query runs — data or error —
		// means the client is gone or misbehaving.
		broken.Store(true)
		cancel()
	}()
	return qctx, func() bool {
		close(done)
		_ = c.nc.SetReadDeadline(time.Unix(1, 0))
		<-exited
		_ = c.nc.SetReadDeadline(time.Time{})
		cancel()
		return broken.Load()
	}
}
