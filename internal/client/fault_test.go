package client

// Fault-injection tests for retry/backoff, in the style of disk.FaultPlan:
// a scripted fake server applies one deterministic connection behavior per
// accepted connection — accept-then-close, handshake-then-die, mid-frame
// drop, stalled read, scripted error frames — and the tests assert exactly
// how the client's pool, retry budget, and backoff respond.

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"htap/internal/core"
	"htap/internal/exec"
	"htap/internal/obs"
	"htap/internal/types"
	"htap/internal/wire"
)

// behavior drives one accepted connection.
type behavior func(t *testing.T, nc net.Conn)

// fakeServer accepts connections and applies scripted behaviors in
// order; connections beyond the script are closed immediately.
type fakeServer struct {
	ln net.Listener
}

func startFake(t *testing.T, script ...behavior) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for i := 0; ; i++ {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			if i < len(script) {
				b := script[i]
				go func() {
					defer nc.Close()
					b(t, nc)
				}()
			} else {
				_ = nc.Close()
			}
		}
	}()
	return &fakeServer{ln: ln}
}

func (f *fakeServer) addr() string { return f.ln.Addr().String() }

// handshake performs the server half of the handshake.
func handshake(t *testing.T, nc net.Conn) bool {
	typ, payload, err := wire.ReadFrame(nc)
	if err != nil || typ != wire.MsgHello {
		return false
	}
	if _, err := wire.DecodeHello(payload); err != nil {
		return false
	}
	h := wire.ServerHello{Version: wire.Version, Arch: 1, Meta: map[string]int64{"fake": 1},
		Tables: []*types.Schema{types.NewSchema("acct", 0, types.Column{Name: "id", Type: types.Int}, types.Column{Name: "bal", Type: types.Float})}}
	return wire.WriteFrame(nc, wire.MsgServerHello, h.Encode(nil)) == nil
}

// serveN answers n MsgQuery requests on an already-handshaken
// connection with a one-row stream each.
func serveN(nc net.Conn, n int) {
	for i := 0; i < n; i++ {
		typ, _, err := wire.ReadFrame(nc)
		if err != nil || typ != wire.MsgQuery {
			return
		}
		sch := wire.Schema{Cols: []types.Column{{Name: "c0", Type: types.Int}}}
		row := types.Row{types.NewInt(42)}
		if wire.WriteFrame(nc, wire.MsgSchema, sch.Encode(nil)) != nil {
			return
		}
		if wire.WriteFrame(nc, wire.MsgBatch, wire.Batch{Rows: []types.Row{row}}.Encode(nil)) != nil {
			return
		}
		if wire.WriteFrame(nc, wire.MsgEOS, wire.EOS{Rows: 1}.Encode(nil)) != nil {
			return
		}
	}
}

// serveQueries handshakes then answers n MsgQuery requests, then returns
// (closing the connection).
func serveQueries(n int) behavior {
	return func(t *testing.T, nc net.Conn) {
		if handshake(t, nc) {
			serveN(nc, n)
		}
	}
}

// handshakeThenClose completes the handshake and drops the connection,
// so the next request hits EOF.
func handshakeThenClose(t *testing.T, nc net.Conn) {
	handshake(t, nc)
}

// acceptThenClose drops the connection before the handshake.
func acceptThenClose(t *testing.T, nc net.Conn) {}

// midFrameDrop completes the handshake, reads one request, writes half a
// response frame header, and drops the connection.
func midFrameDrop(t *testing.T, nc net.Conn) {
	if !handshake(t, nc) {
		return
	}
	if _, _, err := wire.ReadFrame(nc); err != nil {
		return
	}
	_, _ = nc.Write([]byte{0, 0, 0}) // 3 of 5 header bytes
}

// stalledRead completes the handshake, reads one request, and never
// responds; only the client's context can end the exchange.
func stalledRead(t *testing.T, nc net.Conn) {
	if !handshake(t, nc) {
		return
	}
	if _, _, err := wire.ReadFrame(nc); err != nil {
		return
	}
	buf := make([]byte, 1)
	_, _ = nc.Read(buf) // blocks until the client closes
}

// errorThenServe sheds the first q requests with the given wire error,
// then serves queries normally on the same connection.
func errorThenServe(code uint8, q int, serve int) behavior {
	return func(t *testing.T, nc net.Conn) {
		if !handshake(t, nc) {
			return
		}
		for i := 0; i < q; i++ {
			if _, _, err := wire.ReadFrame(nc); err != nil {
				return
			}
			e := &wire.Error{Code: code, Msg: "scripted"}
			if wire.WriteFrame(nc, wire.MsgError, wire.EncodeError(nil, e)) != nil {
				return
			}
		}
		serveN(nc, serve)
	}
}

func connect(t *testing.T, f *fakeServer, opt Options) (*Remote, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	opt.Reg = reg
	opt.Backoff = time.Millisecond
	r, err := Connect(context.Background(), f.addr(), opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, reg
}

func retries(reg *obs.Registry) int64 {
	return reg.Counter("htap_client_retries_total", obs.L("class", wire.ClassOLAP)).Value()
}

func TestRetryAfterServerDropsPooledConn(t *testing.T) {
	// Conn 1 handshakes (Connect pools it) then dies; conn 2 is dropped
	// before the handshake; conn 3 serves. The request must survive both
	// faults on its retry budget.
	f := startFake(t, handshakeThenClose, acceptThenClose, serveQueries(1))
	r, reg := connect(t, f, Options{})
	rows, err := r.RunCH(context.Background(), 1)
	if err != nil {
		t.Fatalf("RunCH: %v", err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 42 {
		t.Fatalf("rows = %v", rows)
	}
	if got := retries(reg); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	if dials := reg.Counter("htap_client_dials_total", nil).Value(); dials != 3 {
		t.Fatalf("dials = %d, want 3", dials)
	}
}

func TestRetryAfterMidFrameDrop(t *testing.T) {
	f := startFake(t, midFrameDrop, serveQueries(1))
	r, reg := connect(t, f, Options{})
	rows, err := r.RunCH(context.Background(), 1)
	if err != nil {
		t.Fatalf("RunCH: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if got := retries(reg); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
}

func TestStalledReadEndsWithDeadlineNotRetry(t *testing.T) {
	f := startFake(t, stalledRead, serveQueries(1))
	r, reg := connect(t, f, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := r.RunCH(ctx, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if took := time.Since(t0); took > time.Second {
		t.Fatalf("stalled request took %v", took)
	}
	// Context expiry is not retryable: the client must not have burned
	// the retry budget re-sending into a stall.
	if got := retries(reg); got != 0 {
		t.Fatalf("retries = %d, want 0", got)
	}
}

func TestRetryOnOverloadedThenSucceed(t *testing.T) {
	f := startFake(t, errorThenServe(wire.CodeOverloaded, 2, 1))
	r, reg := connect(t, f, Options{})
	rows, err := r.RunCH(context.Background(), 1)
	if err != nil {
		t.Fatalf("RunCH: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if got := retries(reg); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	// The shed responses were clean request-level errors: the connection
	// stayed healthy and pooled, so no extra dials happened.
	if dials := reg.Counter("htap_client_dials_total", nil).Value(); dials != 1 {
		t.Fatalf("dials = %d, want 1", dials)
	}
}

func TestExhaustedRetriesSurfaceOverloaded(t *testing.T) {
	f := startFake(t, errorThenServe(wire.CodeOverloaded, 100, 0))
	r, reg := connect(t, f, Options{Retries: 2})
	_, err := r.RunCH(context.Background(), 1)
	if !errors.Is(err, wire.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded after exhausted retries", err)
	}
	if got := retries(reg); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
}

func TestNonRetryableErrorFailsFast(t *testing.T) {
	f := startFake(t, errorThenServe(wire.CodeInternal, 1, 1))
	r, reg := connect(t, f, Options{})
	_, err := r.RunCH(context.Background(), 1)
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeInternal {
		t.Fatalf("err = %v, want internal wire error", err)
	}
	if got := retries(reg); got != 0 {
		t.Fatalf("retries = %d, want 0 for non-retryable error", got)
	}
}

func TestBackoffDelaysRetries(t *testing.T) {
	f := startFake(t, errorThenServe(wire.CodeOverloaded, 2, 1))
	reg := obs.NewRegistry()
	r, err := Connect(context.Background(), f.addr(), Options{
		Reg: reg, Backoff: 20 * time.Millisecond, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	t0 := time.Now()
	if _, err := r.RunCH(context.Background(), 1); err != nil {
		t.Fatalf("RunCH: %v", err)
	}
	// Two retries at 20ms then 40ms base delay, jittered to >= 50% each:
	// at least 30ms must have elapsed. (An unjittered immediate-retry bug
	// finishes in well under a millisecond.)
	if took := time.Since(t0); took < 30*time.Millisecond {
		t.Fatalf("2 backoff retries finished in %v, want >= 30ms", took)
	}
}

// commitThenDie completes the handshake, acknowledges the transaction's
// begin and writes, and drops the connection upon reading MsgCommit
// without answering — the indeterminate-commit window.
func commitThenDie(t *testing.T, nc net.Conn) {
	if !handshake(t, nc) {
		return
	}
	for {
		typ, _, err := wire.ReadFrame(nc)
		if err != nil {
			return
		}
		switch typ {
		case wire.MsgCommit:
			return // die without a response: the outcome is unknown
		default:
			if wire.WriteFrame(nc, wire.MsgOK, nil) != nil {
				return
			}
		}
	}
}

func TestCommitTransportFailureIsIndeterminateNotRetried(t *testing.T) {
	// The connection dies after MsgCommit is sent but before MsgOK
	// arrives. The server may have applied the commit, so core.Exec must
	// NOT re-run the transaction — a retry could double-apply it.
	f := startFake(t, commitThenDie)
	r, _ := connect(t, f, Options{})
	attempts := 0
	err := core.Exec(context.Background(), r, func(tx core.Tx) error {
		attempts++
		return tx.Insert("acct", types.Row{types.NewInt(1)})
	})
	var ci *CommitIndeterminateError
	if !errors.As(err, &ci) {
		t.Fatalf("err = %v, want CommitIndeterminateError", err)
	}
	if core.IsRetryable(err) {
		t.Fatal("indeterminate commit reported as retryable")
	}
	if attempts != 1 {
		t.Fatalf("transaction body ran %d times, want 1: an indeterminate commit must not be retried", attempts)
	}
}

// corruptStream completes the handshake, answers one query with a schema
// frame followed by an undecodable batch frame, then keeps serving on the
// same connection — which the client must never reuse.
func corruptStream(t *testing.T, nc net.Conn) {
	if !handshake(t, nc) {
		return
	}
	if _, _, err := wire.ReadFrame(nc); err != nil {
		return
	}
	sch := wire.Schema{Cols: []types.Column{{Name: "c0", Type: types.Int}}}
	if wire.WriteFrame(nc, wire.MsgSchema, sch.Encode(nil)) != nil {
		return
	}
	if wire.WriteFrame(nc, wire.MsgBatch, []byte{0xff}) != nil {
		return
	}
	serveN(nc, 1)
}

func TestCorruptStreamConnNotPooled(t *testing.T) {
	// A mid-stream decode failure abandons the stream with frames still
	// in flight. The connection must be discarded: the next request has
	// to dial fresh (and succeed) instead of reading stale frames.
	f := startFake(t, corruptStream, serveQueries(1))
	r, reg := connect(t, f, Options{})
	if _, err := r.RunCH(context.Background(), 1); err == nil {
		t.Fatal("corrupt stream returned no error")
	}
	rows, err := r.RunCH(context.Background(), 1)
	if err != nil {
		t.Fatalf("RunCH after corrupt stream: %v", err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 42 {
		t.Fatalf("rows = %v", rows)
	}
	if dials := reg.Counter("htap_client_dials_total", nil).Value(); dials != 2 {
		t.Fatalf("dials = %d, want 2 (corrupt conn discarded, fresh dial)", dials)
	}
}

func TestFailedQueryPlanCarriesError(t *testing.T) {
	// A scan that fails after retries must return a plan that reports
	// the failure when it runs, not one indistinguishable from an empty
	// table.
	f := startFake(t, errorThenServe(wire.CodeInternal, 1, 0))
	r, _ := connect(t, f, Options{})
	plan := r.Query(context.Background(), "acct", nil, nil)
	rows, err := plan.RunCtx(context.Background())
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeInternal || rows != nil {
		t.Fatalf("RunCtx = (%v, %v), want (nil, internal wire error)", rows, err)
	}
	// A table the handshake catalog lacks fails at construction.
	if err := r.Query(context.Background(), "nope", nil, nil).Err(); !errors.Is(err, core.ErrNoTable) {
		t.Fatalf("unknown table: Err() = %v, want core.ErrNoTable", err)
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	a := &Remote{opt: Options{}.withDefaults()}
	b := &Remote{opt: Options{}.withDefaults()}
	a.rng = rand.New(rand.NewSource(9))
	b.rng = rand.New(rand.NewSource(9))
	for i := 0; i < 10; i++ {
		da, db := a.jitter(time.Millisecond), b.jitter(time.Millisecond)
		if da != db {
			t.Fatalf("iteration %d: %v != %v with equal seeds", i, da, db)
		}
		if da < 500*time.Microsecond || da > 1500*time.Microsecond {
			t.Fatalf("jitter %v outside 50%%..150%%", da)
		}
	}
}

// malformedPartial answers one pushed-aggregation fragment with a
// MsgPartial whose group row decodes at the wire layer but violates the
// partial-state contract (wrong arity for the advertised aggregates).
func malformedPartial(t *testing.T, nc net.Conn) {
	if !handshake(t, nc) {
		return
	}
	typ, payload, err := wire.ReadFrame(nc)
	if err != nil || typ != wire.MsgFragment {
		return
	}
	if m, err := wire.DecodeFragment(payload); err != nil || m.Agg == nil {
		return
	}
	bad := wire.Partial{Groups: []types.Row{{types.NewInt(1), types.NewInt(2)}}}
	if wire.WriteFrame(nc, wire.MsgPartial, bad.Encode(nil)) != nil {
		return
	}
	_ = wire.WriteFrame(nc, wire.MsgEOS, wire.EOS{Rows: 1}.Encode(nil))
	serveN(nc, 1)
}

func TestMalformedPartialBreaksConn(t *testing.T) {
	// A partial-state group that fails exec.DecodePartial is a server-side
	// protocol violation: the fetch must surface a non-retryable error
	// through the fragment's error sink, and the connection — which is
	// positionally intact but no longer trusted — must not return to the
	// pool. The follow-up query has to dial fresh.
	f := startFake(t, malformedPartial, serveQueries(1))
	r, reg := connect(t, f, Options{})

	schema := []types.Column{{Name: "g", Type: types.Int}, {Name: "v", Type: types.Float}}
	fs := r.Fragment(context.Background(), "acct", schema)
	var sinkErr error
	fs.OnError(func(err error) { sinkErr = err })
	ps := fs.PushAgg([]string{"g"}, []exec.Agg{{Kind: exec.Sum, Expr: exec.ColName("v"), Name: "s"}})
	if ps == nil {
		t.Fatal("PushAgg declined a pushable aggregation")
	}
	if g := ps.NextPartial(); g != nil {
		t.Fatalf("malformed partial stream produced a group: %+v", g)
	}
	if sinkErr == nil {
		t.Fatal("malformed partial surfaced no error")
	}
	if retries(reg) != 0 {
		t.Fatalf("protocol violation was retried %d times; must fail fast", retries(reg))
	}

	rows, err := r.RunCH(context.Background(), 1)
	if err != nil {
		t.Fatalf("RunCH after malformed partial: %v", err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 42 {
		t.Fatalf("rows = %v", rows)
	}
	if dials := reg.Counter("htap_client_dials_total", nil).Value(); dials != 2 {
		t.Fatalf("dials = %d, want 2 (malformed-partial conn discarded, fresh dial)", dials)
	}
}
