package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"htap/internal/ch"
	"htap/internal/client"
	"htap/internal/core"
	"htap/internal/exec"
	"htap/internal/obs"
	"htap/internal/txn"
	"htap/internal/types"
	"htap/internal/wire"
)

// newEngine builds a loaded architecture-A engine for server tests.
func newEngine(t testing.TB, scale ch.Scale) (core.Engine, ch.Scale) {
	t.Helper()
	e := core.NewEngineA(core.ConfigA{Schemas: ch.Schemas()})
	if _, err := ch.NewGenerator(scale).Load(e); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, scale
}

func smallScale() ch.Scale {
	s := ch.SmallScale(1)
	s.Customers = 20
	s.Orders = 20
	s.Items = 50
	return s
}

// startServer serves the engine and returns a connected remote client.
func startServer(t testing.TB, cfg Config) (*Server, *client.Remote) {
	t.Helper()
	if cfg.Reg == nil {
		cfg.Reg = obs.NewRegistry()
	}
	srv, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	r, err := client.Connect(context.Background(), srv.Addr(), client.Options{Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return srv, r
}

// TestHandshakeMeta: the server advertises its configured meta, except
// that hkey is the larger of the configured key and the process-global
// history-key watermark, which earlier loads in this process may have
// raised. A configured hkey above any load's pins the configured branch.
func TestHandshakeMeta(t *testing.T) {
	e, _ := newEngine(t, smallScale())
	for _, hkey := range []int64{99, 1 << 40} {
		_, r := startServer(t, Config{Engine: e, Meta: map[string]int64{"warehouses": 1, "hkey": hkey}})
		if r.Arch() != core.ArchA {
			t.Fatalf("arch = %v", r.Arch())
		}
		want := max(hkey, ch.HistoryKeyWatermark())
		if r.Meta()["warehouses"] != 1 || r.Meta()["hkey"] != want {
			t.Fatalf("configured hkey %d: meta = %v, want hkey %d", hkey, r.Meta(), want)
		}
		if hkey == 1<<40 && r.Meta()["hkey"] != 1<<40 {
			t.Fatalf("configured hkey 1<<40 advertised as %d", r.Meta()["hkey"])
		}
	}
}

func TestTxnRoundTrip(t *testing.T) {
	e, _ := newEngine(t, smallScale())
	_, r := startServer(t, Config{Engine: e})
	ctx := context.Background()

	// Read an existing warehouse row remotely and compare with a local read.
	wantTx := e.Begin(ctx)
	want, err := wantTx.Get(ch.TWarehouse, ch.WarehouseKey(1))
	wantTx.Abort()
	if err != nil {
		t.Fatal(err)
	}
	tx := r.Begin(ctx)
	got, err := tx.Get(ch.TWarehouse, ch.WarehouseKey(1))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("remote row %v != local %v", got, want)
	}

	// Write through the wire, commit, and verify with a local transaction.
	upd := append(types.Row(nil), got...)
	upd[2] = types.NewString("W-REMOTE")
	if err := tx.Update(ch.TWarehouse, upd); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	check := e.Begin(ctx)
	defer check.Abort()
	after, err := check.Get(ch.TWarehouse, ch.WarehouseKey(1))
	if err != nil {
		t.Fatal(err)
	}
	if after[2].Str() != "W-REMOTE" {
		t.Fatalf("update lost: %v", after)
	}
}

func TestGetMissingKeyMapsToNotFound(t *testing.T) {
	e, _ := newEngine(t, smallScale())
	_, r := startServer(t, Config{Engine: e})
	tx := r.Begin(context.Background())
	defer tx.Abort()
	_, err := tx.Get(ch.TWarehouse, ch.WarehouseKey(999))
	if !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("err = %v, want core.ErrNotFound", err)
	}
}

func TestRemoteScanMatchesLocal(t *testing.T) {
	e, _ := newEngine(t, smallScale())
	_, r := startServer(t, Config{Engine: e})
	ctx := context.Background()
	local, err := e.Query(ctx, ch.TItem, []string{"i_id", "i_price"}, nil).RunCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := r.Query(ctx, ch.TItem, []string{"i_id", "i_price"}, nil).RunCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != len(local) {
		t.Fatalf("remote rows %d != local %d", len(remote), len(local))
	}
}

// TestRetiredScanFrameRejected pins what a peer still sending the retired
// MsgScan (frame type 10) gets: a bad-request error, on a session that
// stays usable — never a hang, a crash, or some other request's handler.
func TestRetiredScanFrameRejected(t *testing.T) {
	e, _ := newEngine(t, smallScale())
	srv, _ := startServer(t, Config{Engine: e})
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	call := func(typ byte, payload []byte) (byte, []byte) {
		t.Helper()
		if err := wire.WriteFrame(nc, typ, payload); err != nil {
			t.Fatal(err)
		}
		rtyp, rpayload, err := wire.ReadFrame(nc)
		if err != nil {
			t.Fatal(err)
		}
		return rtyp, rpayload
	}
	if typ, _ := call(wire.MsgHello, wire.Hello{Version: wire.Version}.Encode(nil)); typ != wire.MsgServerHello {
		t.Fatalf("handshake answered with frame %d", typ)
	}
	// The payload an old client's scan of item carried.
	old := wire.Fragment{Table: ch.TItem}.Encode(nil)
	typ, payload := call(10, old[:len(old)-2])
	if werr := wire.DecodeError(payload); typ != wire.MsgError || werr.Code != wire.CodeBadRequest {
		t.Fatalf("retired scan frame answered with frame %d: %v", typ, werr)
	}
	if typ, _ := call(wire.MsgSync, nil); typ != wire.MsgOK {
		t.Fatalf("session unusable after the rejected frame: frame %d", typ)
	}
}

func TestRemoteCHQuery(t *testing.T) {
	e, _ := newEngine(t, smallScale())
	_, r := startServer(t, Config{Engine: e})
	rows, err := r.RunCH(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("Q1 returned no rows")
	}
	want, err := ch.RunQuery(context.Background(), e, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("remote Q1 rows %d != local %d", len(rows), len(want))
	}
}

func TestSyncAndFreshness(t *testing.T) {
	e, _ := newEngine(t, smallScale())
	_, r := startServer(t, Config{Engine: e})
	ctx := context.Background()
	// Commit one remote write so there is a watermark to observe.
	err := core.Exec(ctx, r, func(tx core.Tx) error {
		row, err := tx.Get(ch.TWarehouse, ch.WarehouseKey(1))
		if err != nil {
			return err
		}
		return tx.Update(ch.TWarehouse, append(types.Row(nil), row...))
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Sync()
	f := r.Freshness()
	want := e.Freshness()
	if f.CommitTS != want.CommitTS || f.LagTS != want.LagTS {
		t.Fatalf("remote freshness %+v != local %+v", f, want)
	}
	if !f.Fresh() {
		t.Fatalf("after sync expected fresh, got %+v", f)
	}
}

func TestCoreExecRetriesRemoteConflicts(t *testing.T) {
	e, _ := newEngine(t, smallScale())
	_, r := startServer(t, Config{Engine: e})
	ctx := context.Background()
	// Concurrent increments of one district row: conflicts must surface as
	// retryable wire errors so core.Exec converges to the exact sum.
	const workers, rounds = 4, 5
	var wg sync.WaitGroup
	key := ch.DistrictKey(1, 1)
	base := func() int64 {
		tx := e.Begin(ctx)
		defer tx.Abort()
		row, err := tx.Get(ch.TDistrict, key)
		if err != nil {
			t.Fatal(err)
		}
		return row[6].Int()
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				err := core.Exec(ctx, r, func(tx core.Tx) error {
					row, err := tx.Get(ch.TDistrict, key)
					if err != nil {
						return err
					}
					upd := append(types.Row(nil), row...)
					upd[6] = types.NewInt(row[6].Int() + 1)
					return tx.Update(ch.TDistrict, upd)
				})
				if err != nil {
					t.Errorf("exec: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	got := func() int64 {
		tx := e.Begin(ctx)
		defer tx.Abort()
		row, err := tx.Get(ch.TDistrict, key)
		if err != nil {
			t.Fatal(err)
		}
		return row[6].Int()
	}()
	if got != base+workers*rounds {
		t.Fatalf("counter = %d, want %d", got, base+workers*rounds)
	}
}

func TestOLAPShedDoesNotBlockOLTP(t *testing.T) {
	e, _ := newEngine(t, smallScale())
	reg := obs.NewRegistry()
	// OLAP budget of 2/sec with burst 1 and near-zero queueing: a burst
	// must shed. OLTP is unlimited and must keep committing throughout.
	srv, r := startServer(t, Config{
		Engine: e, Reg: reg,
		OLAPRate: 2, OLAPBurst: 1, MaxWait: time.Millisecond,
	})
	ctx := context.Background()

	var sheds int
	for i := 0; i < 10; i++ {
		_, err := r.RunCH(ctx, 1)
		if err != nil {
			if !errors.Is(err, wire.ErrOverloaded) {
				t.Fatalf("unexpected error: %v", err)
			}
			sheds++
		}
	}
	if sheds == 0 {
		t.Fatal("10 back-to-back queries against a 2/s budget shed nothing")
	}
	shed := reg.Counter("htap_server_shed_total", obs.L("class", wire.ClassOLAP, "reason", "rate"))
	if shed.Value() == 0 {
		t.Fatal("htap_server_shed_total{class=olap,reason=rate} = 0 after sheds")
	}

	// OLTP unaffected: transactions still run while OLAP is saturated.
	err := core.Exec(ctx, r, func(tx core.Tx) error {
		_, err := tx.Get(ch.TWarehouse, ch.WarehouseKey(1))
		return err
	})
	if err != nil {
		t.Fatalf("OLTP during OLAP shedding: %v", err)
	}
	if shedTP := reg.Counter("htap_server_shed_total", obs.L("class", wire.ClassOLTP, "reason", "rate")).Value(); shedTP != 0 {
		t.Fatalf("OLTP sheds = %d, want 0", shedTP)
	}
	_ = srv
}

// TestDeadlinePropagation: a query past its deadline fails with
// context.DeadlineExceeded whichever side notices first. The scan is held
// at its first batch until the server-side context ends, so the query
// cannot finish inside the deadline however fast Q1 runs.
func TestDeadlinePropagation(t *testing.T) {
	e, _ := newEngine(t, smallScale())
	held := &cancelAtFirstBatch{Engine: e, t: t, cancel: func() {}, released: make(chan struct{})}
	_, r := startServer(t, Config{Engine: held})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := r.RunCH(ctx, 1)
	if err == nil {
		t.Fatal("query finished despite 1ms deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// cancelAtFirstBatch wraps an engine so that the first batch any of its
// scans produces calls cancel (cancelling the client's request) and then
// holds the scan until the server-side context the scan was handed is
// done: the query can only get past its first batch by the server noticing
// the client left or its deadline passed.
type cancelAtFirstBatch struct {
	core.Engine
	t        *testing.T
	cancel   context.CancelFunc
	once     sync.Once
	released chan struct{}
}

func (e *cancelAtFirstBatch) Snapshot(ctx context.Context) core.Snapshot {
	return heldSnapshot{Snapshot: e.Engine.Snapshot(ctx), ctx: ctx, e: e}
}

type heldSnapshot struct {
	core.Snapshot
	ctx context.Context
	e   *cancelAtFirstBatch
}

func (s heldSnapshot) Query(table string, cols []string, filter exec.Expr) *exec.Plan {
	type sourcer interface {
		Source(table string, cols []string, filter exec.Expr) exec.Source
	}
	src := s.Snapshot.(sourcer).Source(table, cols, filter)
	return exec.From(&heldSource{Source: src, ctx: s.ctx, e: s.e}).Filter(filter)
}

type heldSource struct {
	exec.Source
	ctx context.Context
	e   *cancelAtFirstBatch
}

func (s *heldSource) Next() *exec.Batch {
	b := s.Source.Next()
	s.e.once.Do(func() {
		defer close(s.e.released)
		s.e.cancel()
		select {
		case <-s.ctx.Done():
		case <-time.After(10 * time.Second):
			s.e.t.Error("client cancelled, but the server-side query context never ended")
		}
	})
	return b
}

func TestClientDisconnectCancelsServerQuery(t *testing.T) {
	e, _ := newEngine(t, smallScale())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	held := &cancelAtFirstBatch{Engine: e, t: t, cancel: cancel, released: make(chan struct{})}
	_, r := startServer(t, Config{Engine: held})
	_, err := r.RunCH(ctx, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	<-held.released
}

func TestGracefulDrain(t *testing.T) {
	e, _ := newEngine(t, smallScale())
	reg := obs.NewRegistry()
	srv, err := Serve("127.0.0.1:0", Config{Engine: e, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	r, err := client.Connect(context.Background(), srv.Addr(), client.Options{
		Reg: obs.NewRegistry(), Retries: 1, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// A transaction in flight when drain starts must be allowed to finish.
	tx := r.Begin(context.Background())
	if _, err := tx.Get(ch.TWarehouse, ch.WarehouseKey(1)); err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- srv.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let the drain flag land
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit during drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// After drain: new requests fail (connection refused = retryable
	// transport error, surfaced after the retry budget).
	if _, err := r.RunCH(context.Background(), 1); err == nil {
		t.Fatal("query succeeded against a drained server")
	}
}

func TestShutdownForceCancelsStuckConns(t *testing.T) {
	e, _ := newEngine(t, smallScale())
	srv, err := Serve("127.0.0.1:0", Config{Engine: e, Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	r, err := client.Connect(context.Background(), srv.Addr(), client.Options{Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Hold a transaction open and never finish it: the graceful phase
	// cannot complete, so Shutdown must fall back to severing.
	tx := r.Begin(context.Background())
	if _, err := tx.Get(ch.TWarehouse, ch.WarehouseKey(1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	err = srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded from forced shutdown", err)
	}
	if took := time.Since(t0); took > 3*time.Second {
		t.Fatalf("forced shutdown took %v", took)
	}
}

func TestAdmissionMetricsRegistered(t *testing.T) {
	e, _ := newEngine(t, smallScale())
	reg := obs.NewRegistry()
	_, r := startServer(t, Config{Engine: e, Reg: reg})
	if _, err := r.RunCH(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("htap_server_requests_total", obs.L("class", wire.ClassOLAP)).Value(); n == 0 {
		t.Fatal("htap_server_requests_total{class=olap} = 0 after a query")
	}
	if h := reg.Histogram("htap_server_request_ns", obs.L("class", wire.ClassOLAP)); h.Count() == 0 {
		t.Fatal("htap_server_request_ns{class=olap} has no observations")
	}
}

func TestLimiterShedsAndRecovers(t *testing.T) {
	l := NewLimiter(10, 1, time.Millisecond)
	ctx := context.Background()
	if _, err := l.Admit(ctx); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	// Exhaust: burst is 1, rate 10/s, queue bound 1ms < 100ms interval.
	var shed bool
	for i := 0; i < 5; i++ {
		if _, err := l.Admit(ctx); errors.Is(err, wire.ErrOverloaded) {
			shed = true
		}
	}
	if !shed {
		t.Fatal("no shed despite 5 immediate admits at 10/s burst 1")
	}
	time.Sleep(120 * time.Millisecond) // one interval refills one token
	if _, err := l.Admit(ctx); err != nil {
		t.Fatalf("admit after refill: %v", err)
	}
}

func TestLimiterUnlimited(t *testing.T) {
	l := NewLimiter(0, 0, 0)
	for i := 0; i < 1000; i++ {
		if w, err := l.Admit(context.Background()); err != nil || w != 0 {
			t.Fatalf("unlimited limiter blocked: wait %v err %v", w, err)
		}
	}
}

func TestLimiterQueueWaitCancellable(t *testing.T) {
	l := NewLimiter(5, 1, time.Second) // 200ms interval, generous queue
	if _, err := l.Admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := l.Admit(ctx) // must queue ~200ms, but ctx expires first
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if took := time.Since(t0); took > 100*time.Millisecond {
		t.Fatalf("cancelled queue wait took %v", took)
	}
}

// TestHandshakeAdvertisesLiveHistoryWatermark pins the cross-driver key
// protocol: each remote driver bumps its history-key allocator from the
// handshake, so after one driver's Payments have inserted history rows,
// the next connection must see a watermark above those keys — a static
// load-time value would hand every successive driver the same range and
// produce cross-shard duplicate primary keys.
func TestHandshakeAdvertisesLiveHistoryWatermark(t *testing.T) {
	e, _ := newEngine(t, smallScale())
	base := ch.HistoryKeyWatermark()
	srv, r := startServer(t, Config{Engine: e, Meta: map[string]int64{"hkey": base}})
	if got := r.Meta()["hkey"]; got != base {
		t.Fatalf("first handshake hkey = %d, want load-time watermark %d", got, base)
	}

	// A driver that allocated above the watermark inserts a history row,
	// exactly as a remote Payment does.
	ctx := context.Background()
	hi := base + 1000
	tx := r.Begin(ctx)
	err := tx.Insert(ch.THistory, types.Row{
		types.NewInt(hi), types.NewInt(ch.CustomerKey(1, 1, 1)),
		types.NewInt(1), types.NewInt(1), types.NewInt(0),
		types.NewFloat(10), types.NewString("payment"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// A fresh connection's handshake must cover the inserted key.
	r2, err := client.Connect(ctx, srv.Addr(), client.Options{Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Meta()["hkey"]; got < hi {
		t.Fatalf("second handshake hkey = %d, want >= %d (stale watermark re-issues driver key ranges)", got, hi)
	}
}

// TestPinsReleasedOnEveryPath: a remote transaction pins the engine's read
// timestamp for as long as it is open on the server — through commit,
// abort, a server-side CH query, and a client that drops its connection
// mid-transaction (the session's cleanup aborts it).
func TestPinsReleasedOnEveryPath(t *testing.T) {
	e, _ := newEngine(t, smallScale())
	srv, r := startServer(t, Config{Engine: e})
	pins := e.(interface{ Pins() *txn.Pins }).Pins()
	ctx := context.Background()
	released := func(path string) {
		t.Helper()
		if pins.Held() != 0 || pins.Lag() != 0 {
			t.Fatalf("after %s: %d pins held, horizon %d behind the watermark", path, pins.Held(), pins.Lag())
		}
	}
	get := func(tx core.Tx) {
		t.Helper()
		if _, err := tx.Get(ch.TWarehouse, ch.WarehouseKey(1)); err != nil {
			t.Fatal(err)
		}
	}

	tx := r.Begin(ctx)
	get(tx)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	released("a remote commit")

	tx = r.Begin(ctx)
	get(tx)
	tx.Abort()
	released("a remote abort")

	if _, err := r.RunCH(ctx, 5); err != nil {
		t.Fatal(err)
	}
	released("a remote CH query")

	// A peer that begins a transaction, then drops the connection.
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		typ     byte
		payload []byte
	}{{wire.MsgHello, wire.Hello{Version: wire.Version}.Encode(nil)}, {wire.MsgBegin, wire.Begin{}.Encode(nil)}} {
		if err := wire.WriteFrame(nc, f.typ, f.payload); err != nil {
			t.Fatal(err)
		}
		if _, _, err := wire.ReadFrame(nc); err != nil {
			t.Fatal(err)
		}
	}
	if pins.Held() != 1 {
		t.Fatalf("an open remote transaction holds %d pins, want 1", pins.Held())
	}
	nc.Close()
	for deadline := time.Now().Add(5 * time.Second); pins.Held() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	released("a connection dropped mid-transaction")
}

// TestRemoteCloseEndsOpenTxn: closing a Remote closes the connection of a
// transaction still open on it, so the server aborts the transaction and
// releases its read pin.
func TestRemoteCloseEndsOpenTxn(t *testing.T) {
	e, _ := newEngine(t, smallScale())
	_, r := startServer(t, Config{Engine: e})
	pins := e.(interface{ Pins() *txn.Pins }).Pins()
	tx := r.Begin(context.Background())
	if _, err := tx.Get(ch.TWarehouse, ch.WarehouseKey(1)); err != nil {
		t.Fatal(err)
	}
	if pins.Held() != 1 {
		t.Fatalf("an open remote transaction holds %d pins, want 1", pins.Held())
	}
	r.Close()
	for deadline := time.Now().Add(5 * time.Second); pins.Held() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d pins still held 5s after Close", pins.Held())
		}
		time.Sleep(time.Millisecond)
	}
}
