package core_test

import (
	"context"
	"errors"
	"testing"

	"htap/internal/ch"
	"htap/internal/core"
	"htap/internal/disk"
	"htap/internal/dist"
	"htap/internal/txn"
	"htap/internal/types"
)

func pinScale() ch.Scale {
	s := ch.SmallScale(1)
	s.Customers, s.Orders, s.Items = 20, 20, 50
	return s
}

func pinsOf(e core.Engine) *txn.Pins { return e.(interface{ Pins() *txn.Pins }).Pins() }

// released fails unless nothing is pinned on e, so its horizon is back at
// the watermark.
func released(t *testing.T, path string, e core.Engine) {
	t.Helper()
	if p := pinsOf(e); p.Held() != 0 || p.Lag() != 0 {
		t.Fatalf("%s on %v: %d pins held, horizon %d behind the watermark", path, e.Arch(), p.Held(), p.Lag())
	}
}

func loaded(t *testing.T, e core.Engine) core.Engine {
	t.Helper()
	t.Cleanup(e.Close)
	if _, err := ch.NewGenerator(pinScale()).Load(e); err != nil {
		t.Fatal(err)
	}
	e.Sync()
	return e
}

// bumpYTD adds one to warehouse 1's w_ytd.
func bumpYTD(tx core.Tx) error {
	r, err := tx.Get(ch.TWarehouse, ch.WarehouseKey(1))
	if err != nil {
		return err
	}
	r = r.Clone()
	r[5] = types.NewFloat(r[5].Float() + 1)
	return tx.Update(ch.TWarehouse, r)
}

// TestPinsReleasedOnEveryPath: every way a transaction or a snapshot ends
// releases its pin, so an engine at rest prunes at its watermark.
func TestPinsReleasedOnEveryPath(t *testing.T) {
	ctx := context.Background()
	engines := []core.Engine{
		core.NewEngineA(core.ConfigA{Schemas: ch.Schemas()}),
		core.NewEngineB(core.ConfigB{Schemas: ch.Schemas(), Partitions: 2, VotersPer: 3, LearnersPer: 1}),
		core.NewEngineC(core.ConfigC{Schemas: ch.Schemas(), Shards: 2, Disk: disk.MemConfig()}),
		core.NewEngineD(core.ConfigD{Schemas: ch.Schemas()}),
	}
	for _, e := range engines {
		loaded(t, e)
		if err := core.Exec(ctx, e, bumpYTD); err != nil {
			t.Fatal(err)
		}
		released(t, "commit", e)

		tx := e.Begin(ctx)
		if _, err := tx.Get(ch.TWarehouse, ch.WarehouseKey(1)); err != nil {
			t.Fatal(err)
		}
		if pinsOf(e).Held() != 1 {
			t.Fatalf("%v: an open transaction holds %d pins, want 1", e.Arch(), pinsOf(e).Held())
		}
		tx.Abort()
		released(t, "abort", e)

		tx = e.Begin(ctx)
		if _, err := tx.Get(ch.TWarehouse, ch.WarehouseKey(1)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		released(t, "read-only commit", e)

		// The first attempt reads warehouse 1, then another transaction
		// commits it: the update fails stale and Exec retries.
		attempts := 0
		err := core.Exec(ctx, e, func(tx core.Tx) error {
			attempts++
			if _, err := tx.Get(ch.TWarehouse, ch.WarehouseKey(1)); err != nil {
				return err
			}
			if attempts == 1 {
				if err := core.Exec(ctx, e, bumpYTD); err != nil {
					return err
				}
			}
			return bumpYTD(tx)
		})
		if err != nil || attempts < 2 {
			t.Fatalf("%v: conflict retry: %d attempts, %v", e.Arch(), attempts, err)
		}
		released(t, "conflict retry", e)

		for q := 1; q <= 22; q++ {
			if _, err := ch.RunQuery(ctx, e, q); err != nil {
				t.Fatalf("%v: Q%d: %v", e.Arch(), q, err)
			}
		}
		released(t, "ch.RunQuery Q1-Q22", e)

		b := ch.Bind(ctx, e)
		if len(ch.Q1(b)) == 0 {
			t.Fatalf("%v: Q1 through Bind is empty", e.Arch())
		}
		if pinsOf(e).Held() != 1 {
			t.Fatalf("%v: an open Bind holds %d pins, want 1", e.Arch(), pinsOf(e).Held())
		}
		b.Close()
		released(t, "closed ch.Bind", e)
	}

	// A commit whose WAL flush fails (A, C and D log).
	for _, e := range []core.Engine{engines[0], engines[2], engines[3]} {
		dev := e.(interface{ WALDevice() *disk.Device }).WALDevice()
		dev.SetFaultPlan(&disk.FaultPlan{Seed: 1, Rules: []disk.FaultRule{{WriteErrRate: 1}}})
		tx := e.Begin(ctx)
		if err := bumpYTD(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); !errors.Is(err, disk.ErrInjected) {
			t.Fatalf("%v: commit on a failing WAL = %v, want an injected fault", e.Arch(), err)
		}
		dev.SetFaultPlan(nil)
		released(t, "failed WAL flush", e)
	}

	// C's row path: no column is loaded, so the scan reads the row store.
	c := engines[2]
	if n := c.Query(ctx, ch.TCustomer, nil, nil).Count(); n == 0 {
		t.Fatal("C: row-path scan is empty")
	}
	released(t, "Engine.Query on the row path", c)
}

// TestPinsReleasedByDistSnapshot: a dist snapshot pins every local shard
// until Close, and dist's Engine.Query closes its own.
func TestPinsReleasedByDistSnapshot(t *testing.T) {
	ctx := context.Background()
	shards := []core.Engine{core.NewEngineA(core.ConfigA{Schemas: ch.Schemas()}), core.NewEngineA(core.ConfigA{Schemas: ch.Schemas()})}
	d, err := dist.New(2, shards...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	s := ch.SmallScale(2)
	s.Customers, s.Orders, s.Items = 20, 20, 50
	if _, err := ch.NewGenerator(s).Load(d); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot(ctx)
	if snap.Query(ch.TOrders, nil, nil).Count() == 0 {
		t.Fatal("dist snapshot read no orders")
	}
	for _, sh := range shards {
		if pinsOf(sh).Held() != 1 {
			t.Fatalf("an open dist snapshot holds %d pins on a shard, want 1", pinsOf(sh).Held())
		}
	}
	snap.Close()
	if d.Query(ctx, ch.TOrders, nil, nil).Count() == 0 {
		t.Fatal("dist query read no orders")
	}
	if _, err := ch.RunQuery(ctx, d, 3); err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		released(t, "dist snapshot", sh)
	}
}
