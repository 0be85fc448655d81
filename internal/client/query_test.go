package client_test

import (
	"context"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"htap/internal/ch"
	"htap/internal/client"
	"htap/internal/core"
	"htap/internal/exec"
	"htap/internal/obs"
	"htap/internal/server"
	"htap/internal/wire"
)

// fragmentTap forwards every connection to addr and decodes each
// MsgFragment a client sends through it.
func fragmentTap(t *testing.T, addr string) (string, <-chan wire.Fragment) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	frags := make(chan wire.Fragment, 16) // more than a test sends: the tap never blocks
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", addr)
			if err != nil {
				_ = c.Close()
				return
			}
			go func() {
				defer s.Close()
				defer c.Close()
				_, _ = io.Copy(c, s)
			}()
			go func() {
				defer s.Close()
				defer c.Close()
				for {
					typ, payload, err := wire.ReadFrame(c)
					if err != nil {
						return
					}
					if typ == wire.MsgFragment {
						if m, err := wire.DecodeFragment(payload); err == nil {
							frags <- m
						}
					}
					if wire.WriteFrame(s, typ, payload) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), frags
}

// A remote Query plans over a lazy fragment: the filter travels in the
// frame as its pushable conjuncts, and the rows equal the served engine's
// own answer to the same Query.
func TestRemoteQueryShipsFilter(t *testing.T) {
	e := core.NewEngineA(core.ConfigA{Schemas: ch.Schemas()})
	defer e.Close()
	scale := ch.SmallScale(1)
	scale.Customers, scale.Orders, scale.Items = 10, 20, 30
	if _, err := ch.NewGenerator(scale).Load(e); err != nil {
		t.Fatal(err)
	}
	e.Sync()
	srv, err := server.Serve("127.0.0.1:0", server.Config{Engine: e, Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	addr, frags := fragmentTap(t, srv.Addr())
	r, err := client.Connect(context.Background(), addr, client.Options{Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx := context.Background()
	lo, hi := ch.OrderLineKey(1, 1, 1, 0), ch.OrderLineKey(1, 3, 20, 15)
	f := exec.And(exec.Between(exec.ColName("ol_key"), lo, hi), exec.Cmp(exec.GT, exec.ColName("ol_amount"), exec.ConstFloat(50)))
	cols := []string{"ol_key", "ol_number", "ol_amount"}
	got, err := r.Query(ctx, ch.TOrderLine, cols, f).RunCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Query(ctx, ch.TOrderLine, cols, f).RunCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("remote Query returned %d rows, the served engine %d; they differ", len(got), len(want))
	}

	var sent wire.Fragment
	select {
	case sent = <-frags:
	case <-time.After(5 * time.Second):
		t.Fatal("no fragment crossed the wire")
	}
	var conj []exec.PushedPred
	for _, c := range []exec.Expr{
		exec.Cmp(exec.GE, exec.ColName("ol_key"), exec.ConstInt(lo)),
		exec.Cmp(exec.LE, exec.ColName("ol_key"), exec.ConstInt(hi)),
		exec.Cmp(exec.GT, exec.ColName("ol_amount"), exec.ConstFloat(50)),
	} {
		p, _ := exec.AsPushedPred(c)
		conj = append(conj, p)
	}
	if sent.Table != ch.TOrderLine || !reflect.DeepEqual(sent.Cols, cols) || !reflect.DeepEqual(sent.Preds, conj) {
		t.Fatalf("fragment sent = %+v, want the scan of %v carrying %+v", sent, cols, conj)
	}
}
