package dist

import (
	"context"
	"math/rand"
	"testing"

	"htap/internal/ch"
	"htap/internal/core"
	"htap/internal/sched"
	"htap/internal/types"
)

func distScale(warehouses int) ch.Scale {
	s := ch.SmallScale(warehouses)
	s.Customers = 20
	s.Orders = 20
	s.Items = 50
	return s
}

// newDistA builds a coordinator over n in-process arch-A shards loaded
// with the full dataset (routed), returning the coordinator and the shard
// engines for white-box placement checks.
func newDistA(t *testing.T, warehouses, n int) (*Engine, []core.Engine) {
	t.Helper()
	engines := make([]core.Engine, n)
	for i := range engines {
		engines[i] = core.NewEngineA(core.ConfigA{Schemas: ch.Schemas()})
	}
	d, err := New(warehouses, engines...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.NewGenerator(distScale(warehouses)).Load(d); err != nil {
		t.Fatalf("load: %v", err)
	}
	d.Sync()
	return d, engines
}

func countOn(e core.Engine, table string) int {
	return e.Query(context.Background(), table, nil, nil).Count()
}

// TestLoadRoutesByWarehouse checks placement after a routed bulk load:
// facts partition by warehouse range, dimensions replicate everywhere.
func TestLoadRoutesByWarehouse(t *testing.T) {
	d, shards := newDistA(t, 3, 3)
	defer d.Close()
	for i, e := range shards {
		if got := countOn(e, ch.TWarehouse); got != 1 {
			t.Fatalf("shard %d: %d warehouses, want 1", i, got)
		}
		items := countOn(e, ch.TItem)
		if items != distScale(3).Items {
			t.Fatalf("shard %d: %d items, want replicated %d", i, items, distScale(3).Items)
		}
		if countOn(e, ch.TStock) != distScale(3).Items {
			t.Fatalf("shard %d: stock not partitioned per warehouse", i)
		}
	}
	// The coordinator's own scan sees every shard's rows exactly once.
	if got, want := countOn(d, ch.TWarehouse), 3; got != want {
		t.Fatalf("coordinator sees %d warehouses, want %d", got, want)
	}
	if got, want := countOn(d, ch.TItem), distScale(3).Items; got != want {
		t.Fatalf("coordinator sees %d items, want %d (replicated tables must scan one shard)", got, want)
	}
}

// TestSingleShardTxnCommitsDirectly pins the routed fast path: a
// transaction confined to one warehouse opens one branch and bumps the
// routed counter, not the cross-shard one.
func TestSingleShardTxnCommitsDirectly(t *testing.T) {
	d, _ := newDistA(t, 3, 3)
	defer d.Close()
	ctx := context.Background()
	routed0, cross0 := routedTxns.Value(), crossShardTxns.Value()

	tx := d.Begin(ctx)
	row, err := tx.Get(ch.TDistrict, ch.DistrictKey(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	up := row.Clone()
	up[6] = types.NewInt(row[6].Int() + 1)
	if err := tx.Update(ch.TDistrict, up); err != nil {
		t.Fatal(err)
	}
	// A dimension read must stay on the already-open shard.
	if _, err := tx.Get(ch.TItem, ch.ItemKey(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := routedTxns.Value() - routed0; got != 1 {
		t.Fatalf("routed counter moved by %d, want 1", got)
	}
	if got := crossShardTxns.Value() - cross0; got != 0 {
		t.Fatalf("cross-shard counter moved by %d, want 0", got)
	}
}

// TestFreshnessIsTheMostLaggingShard: the coordinator's Freshness is its most
// lagging shard's reading, whole — its timestamps with its lag.
func TestFreshnessIsTheMostLaggingShard(t *testing.T) {
	d, shards := newDistA(t, 2, 2)
	defer d.Close()
	ctx := context.Background()
	d.SetMode(sched.Isolated)
	for w := int64(1); w <= 2; w++ {
		for i := 0; i < 3; i++ {
			if err := core.Exec(ctx, d, func(tx core.Tx) error {
				r, err := tx.Get(ch.TDistrict, ch.DistrictKey(w, 1))
				if err != nil {
					return err
				}
				r = r.Clone()
				r[6] = types.NewInt(r[6].Int() + 1)
				return tx.Update(ch.TDistrict, r)
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	shards[0].Sync()
	if f := shards[0].Freshness(); !f.Fresh() {
		t.Fatalf("synced shard: %+v", f)
	}
	want := shards[1].Freshness()
	got := d.Freshness()
	if want.LagTS == 0 || got.CommitTS != want.CommitTS || got.AppliedTS != want.AppliedTS ||
		got.LagTS != want.LagTS || got.LagTime < want.LagTime {
		t.Fatalf("coordinator reads %+v, want the unsynced shard's %+v", got, want)
	}
}

// TestCrossShardTxnAtomic drives a Payment-shaped transaction across two
// shards — home warehouse YTD on one, remote customer balance on another
// — and checks both effects are visible after commit, with the
// cross-shard counter bumped.
func TestCrossShardTxnAtomic(t *testing.T) {
	d, _ := newDistA(t, 3, 3)
	defer d.Close()
	ctx := context.Background()
	cross0 := crossShardTxns.Value()

	homeKey, custKey := ch.WarehouseKey(1), ch.CustomerKey(3, 1, 5)
	tx := d.Begin(ctx)
	wrow, err := tx.Get(ch.TWarehouse, homeKey)
	if err != nil {
		t.Fatal(err)
	}
	nw := wrow.Clone()
	nw[5] = types.NewFloat(wrow[5].Float() + 100)
	if err := tx.Update(ch.TWarehouse, nw); err != nil {
		t.Fatal(err)
	}
	crow, err := tx.Get(ch.TCustomer, custKey)
	if err != nil {
		t.Fatal(err)
	}
	nc := crow.Clone()
	nc[7] = types.NewFloat(crow[7].Float() - 100)
	if err := tx.Update(ch.TCustomer, nc); err != nil {
		t.Fatal(err)
	}
	// History rows route by their h_w_id column, not their global key.
	if err := tx.Insert(ch.THistory, types.Row{
		types.NewInt(ch.NextHistoryKey()), types.NewInt(custKey), types.NewInt(1),
		types.NewInt(1), types.NewInt(0), types.NewFloat(100), types.NewString("remote-pay"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("cross-shard commit: %v", err)
	}
	if got := crossShardTxns.Value() - cross0; got != 1 {
		t.Fatalf("cross-shard counter moved by %d, want 1", got)
	}

	check := d.Begin(ctx)
	defer check.Abort()
	w2, err := check.Get(ch.TWarehouse, homeKey)
	if err != nil {
		t.Fatal(err)
	}
	if w2[5].Float() != wrow[5].Float()+100 {
		t.Fatalf("warehouse ytd %v, want %v", w2[5].Float(), wrow[5].Float()+100)
	}
	c2, err := check.Get(ch.TCustomer, custKey)
	if err != nil {
		t.Fatal(err)
	}
	if c2[7].Float() != crow[7].Float()-100 {
		t.Fatalf("customer balance %v, want %v", c2[7].Float(), crow[7].Float()-100)
	}
}

// TestCrossShardAbortLeavesNothing aborts a multi-branch transaction and
// verifies neither shard published its write.
func TestCrossShardAbortLeavesNothing(t *testing.T) {
	d, _ := newDistA(t, 3, 3)
	defer d.Close()
	ctx := context.Background()

	before := d.Begin(ctx)
	w1, _ := before.Get(ch.TWarehouse, ch.WarehouseKey(1))
	w3, _ := before.Get(ch.TWarehouse, ch.WarehouseKey(3))
	before.Abort()

	tx := d.Begin(ctx)
	for _, wk := range []int64{1, 3} {
		row, err := tx.Get(ch.TWarehouse, ch.WarehouseKey(wk))
		if err != nil {
			t.Fatal(err)
		}
		up := row.Clone()
		up[5] = types.NewFloat(row[5].Float() + 999)
		if err := tx.Update(ch.TWarehouse, up); err != nil {
			t.Fatal(err)
		}
	}
	tx.Abort()

	after := d.Begin(ctx)
	defer after.Abort()
	a1, _ := after.Get(ch.TWarehouse, ch.WarehouseKey(1))
	a3, _ := after.Get(ch.TWarehouse, ch.WarehouseKey(3))
	if a1[5].Float() != w1[5].Float() || a3[5].Float() != w3[5].Float() {
		t.Fatal("aborted cross-shard transaction leaked a write")
	}
}

// TestReplicatedWriteBroadcasts inserts a dimension row through the
// coordinator and checks every shard's copy.
func TestReplicatedWriteBroadcasts(t *testing.T) {
	d, shards := newDistA(t, 3, 3)
	defer d.Close()
	ctx := context.Background()
	key := int64(90_001)
	tx := d.Begin(ctx)
	if err := tx.Insert(ch.TItem, types.Row{
		types.NewInt(ch.ItemKey(key)), types.NewInt(key), types.NewInt(1),
		types.NewString("item-broadcast"), types.NewFloat(1.5), types.NewString("data"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, e := range shards {
		stx := e.Begin(ctx)
		if _, err := stx.Get(ch.TItem, ch.ItemKey(key)); err != nil {
			t.Fatalf("shard %d missing broadcast item: %v", i, err)
		}
		stx.Abort()
	}
}

// TestHistoryInsertRoutesByColumn pins history placement on the shard
// owning its h_w_id warehouse.
func TestHistoryInsertRoutesByColumn(t *testing.T) {
	d, shards := newDistA(t, 3, 3)
	defer d.Close()
	ctx := context.Background()
	before := countOn(shards[2], ch.THistory)
	tx := d.Begin(ctx)
	if err := tx.Insert(ch.THistory, types.Row{
		types.NewInt(ch.NextHistoryKey()), types.NewInt(ch.CustomerKey(3, 1, 1)), types.NewInt(3),
		types.NewInt(1), types.NewInt(0), types.NewFloat(1), types.NewString("h"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	shards[2].Sync()
	if got := countOn(shards[2], ch.THistory); got != before+1 {
		t.Fatalf("history row not on shard 2 (have %d, want %d)", got, before+1)
	}
}

// TestDriverMixOverCoordinator runs the standard TPC-C mix through the
// unchanged ch.Driver against a 3-shard coordinator: every transaction
// must complete, remote order lines and remote payments must produce
// cross-shard commits, and the CH queries must run against the written
// state.
func TestDriverMixOverCoordinator(t *testing.T) {
	d, _ := newDistA(t, 3, 3)
	defer d.Close()
	ctx := context.Background()
	routed0, cross0 := routedTxns.Value(), crossShardTxns.Value()
	scatter0, merged0 := scatterFragments.Value(), mergeRowsTotal.Value()

	drv := ch.NewDriver(d, distScale(3))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		if err := drv.RunOne(ctx, rng); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	if routedTxns.Value() == routed0 {
		t.Fatal("no routed transactions recorded")
	}
	if crossShardTxns.Value() == cross0 {
		t.Fatal("no cross-shard transactions recorded: remote lines/payments never crossed")
	}
	d.Sync()
	for q := 1; q <= 22; q++ {
		if _, err := ch.RunQuery(ctx, d, q); err != nil {
			t.Fatalf("Q%02d: %v", q, err)
		}
	}
	if scatterFragments.Value() == scatter0 {
		t.Fatal("scatter fan-out counter never moved")
	}
	if mergeRowsTotal.Value() == merged0 {
		t.Fatal("merge row counter never moved")
	}
}
