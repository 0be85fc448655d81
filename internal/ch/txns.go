package ch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"htap/internal/core"
	"htap/internal/rowstore"
	"htap/internal/types"
)

// TxnType enumerates the five TPC-C transactions.
type TxnType uint8

// TPC-C transaction types.
const (
	NewOrderTxn TxnType = iota + 1
	PaymentTxn
	OrderStatusTxn
	DeliveryTxn
	StockLevelTxn
)

// String implements fmt.Stringer.
func (t TxnType) String() string {
	return [...]string{"?", "new-order", "payment", "order-status", "delivery", "stock-level"}[t]
}

// Mix returns a transaction type drawn from the standard TPC-C mix
// (45/43/4/4/4).
func Mix(rng *rand.Rand) TxnType {
	switch r := rng.Intn(100); {
	case r < 45:
		return NewOrderTxn
	case r < 88:
		return PaymentTxn
	case r < 92:
		return OrderStatusTxn
	case r < 96:
		return DeliveryTxn
	default:
		return StockLevelTxn
	}
}

// Driver executes TPC-C transactions against an engine. It keeps the
// small client-side directories a terminal emulator would (last order per
// customer, undelivered-order queues) so that OrderStatus and Delivery
// need no secondary indexes.
type Driver struct {
	E     Engine
	Scale Scale

	mu          sync.Mutex
	lastOrder   map[int64]int64   // c_key -> o_key
	undelivered map[int64][]int64 // d_key -> FIFO of o_key

	zipfMu sync.Mutex
	zipf   *rand.Zipf

	// byLast is non-nil when the engine supports the by-last-name index.
	byLast core.Indexer

	counts [6]atomic.Int64
}

// CustomerLastIndex is the secondary-index name the driver registers for
// by-last-name customer selection on engines that support indexes.
const CustomerLastIndex = "customer-by-last"

// NewDriver builds a driver whose directories match a dataset freshly
// produced by NewGenerator(scale).Load. The engine may be local
// (core.Engine) or remote (the network client): the driver only needs the
// ch.Engine surface.
func NewDriver(e Engine, scale Scale) *Driver {
	scale = scale.normalize()
	d := &Driver{
		E: e, Scale: scale,
		lastOrder:   make(map[int64]int64),
		undelivered: make(map[int64][]int64),
	}
	// TPC-C selects 60%% of Payment/Order-Status customers by last name.
	// Engines with secondary-index support serve that through an index on
	// the customer row image; others fall back to by-id selection.
	if ix, ok := e.(core.Indexer); ok {
		if err := ix.AddIndex(TCustomer, CustomerLastIndex, func(r types.Row) int64 {
			return rowstore.HashString(r[4].Str())
		}); err == nil {
			d.byLast = ix
		}
	}
	for w := int64(1); w <= int64(scale.Warehouses); w++ {
		for dist := int64(1); dist <= int64(scale.Districts); dist++ {
			for o := int64(1); o <= int64(scale.Orders); o++ {
				d.lastOrder[CustomerKey(w, dist, o)] = OrderKey(w, dist, o)
				if o > int64(scale.Orders)*2/3 {
					dk := DistrictKey(w, dist)
					d.undelivered[dk] = append(d.undelivered[dk], OrderKey(w, dist, o))
				}
			}
		}
	}
	return d
}

// Counts returns per-type completed transaction counts.
func (d *Driver) Counts() map[TxnType]int64 {
	out := make(map[TxnType]int64, 5)
	for t := NewOrderTxn; t <= StockLevelTxn; t++ {
		out[t] = d.counts[t].Load()
	}
	return out
}

// NewOrders returns the number of completed New-Order transactions (the
// numerator of tpmC).
func (d *Driver) NewOrders() int64 { return d.counts[NewOrderTxn].Load() }

// RunOne executes one transaction drawn from the standard mix.
func (d *Driver) RunOne(ctx context.Context, rng *rand.Rand) error {
	_, err := d.RunOneTyped(ctx, rng)
	return err
}

// RunOneTyped executes one transaction drawn from the standard mix and
// reports which class ran, so callers can keep per-class latency
// distributions.
func (d *Driver) RunOneTyped(ctx context.Context, rng *rand.Rand) (TxnType, error) {
	t := Mix(rng)
	var err error
	switch t {
	case NewOrderTxn:
		err = d.NewOrder(ctx, rng)
	case PaymentTxn:
		err = d.Payment(ctx, rng)
	case OrderStatusTxn:
		err = d.OrderStatus(ctx, rng)
	case DeliveryTxn:
		err = d.Delivery(ctx, rng)
	default:
		err = d.StockLevel(ctx, rng)
	}
	if err == nil {
		d.counts[t].Add(1)
	}
	return t, err
}

func (d *Driver) pickWD(rng *rand.Rand) (int64, int64) {
	return int64(1 + rng.Intn(d.Scale.Warehouses)), int64(1 + rng.Intn(d.Scale.Districts))
}

func (d *Driver) pickCustomer(rng *rand.Rand) int64 {
	return int64(1 + rng.Intn(d.Scale.Customers))
}

// pickCustomerKey selects a customer in (w, dist): by last name through the
// secondary index 60% of the time when available (TPC-C clause 2.5.1.2,
// taking the first match as the spec's "midpoint" stand-in), by id
// otherwise.
func (d *Driver) pickCustomerKey(rng *rand.Rand, w, dist int64) int64 {
	if d.byLast != nil && rng.Intn(100) < 60 {
		last := lastNames[rng.Intn(10)] + lastNames[rng.Intn(10)]
		lo, hi := CustomerKey(w, dist, 1), CustomerKey(w, dist, int64(d.Scale.Customers))
		for _, pk := range d.byLast.IndexLookup(TCustomer, CustomerLastIndex, rowstore.HashString(last)) {
			if pk >= lo && pk <= hi {
				return pk
			}
		}
	}
	return CustomerKey(w, dist, d.pickCustomer(rng))
}

// pickRemoteWarehouse selects a warehouse other than home, for the
// remote order lines and remote payments of TPC-C clauses 2.4.1.5(2) and
// 2.5.1.2. Callers gate on Scale.Warehouses > 1.
func (d *Driver) pickRemoteWarehouse(rng *rand.Rand, home int64) int64 {
	o := int64(1 + rng.Intn(d.Scale.Warehouses-1))
	if o >= home {
		o++
	}
	return o
}

// NewOrder is TPC-C's New-Order transaction: read the district to allocate
// the order id, read the customer, insert the order, new-order and its
// lines, updating stock per line. 1% of attempts roll back at the last
// line, as the specification requires, and with more than one warehouse
// 1% of lines supply from a remote warehouse's stock (clause 2.4.1.5(2))
// — the transactions that cross shards under the distributed coordinator.
func (d *Driver) NewOrder(ctx context.Context, rng *rand.Rand) error {
	w, dist := d.pickWD(rng)
	c := d.pickCustomer(rng)
	olCnt := int64(5 + rng.Intn(11))
	rollback := rng.Intn(100) == 0
	items := make([]int64, olCnt)
	qtys := make([]int64, olCnt)
	supply := make([]int64, olCnt)
	for i := range items {
		items[i] = d.pickItem(rng)
		qtys[i] = int64(1 + rng.Intn(10))
		// Supply choices are drawn outside the retry loop so a conflict
		// retry replays the same transaction.
		supply[i] = w
		if d.Scale.Warehouses > 1 && rng.Intn(100) == 0 {
			supply[i] = d.pickRemoteWarehouse(rng, w)
		}
	}
	var oKey int64
	err := core.Exec(ctx, d.E, func(tx core.Tx) error {
		drow, err := tx.Get(TDistrict, DistrictKey(w, dist))
		if err != nil {
			return err
		}
		oID := drow[6].Int()
		nd := drow.Clone()
		nd[6] = types.NewInt(oID + 1)
		if err := tx.Update(TDistrict, nd); err != nil {
			return err
		}
		if _, err := tx.Get(TCustomer, CustomerKey(w, dist, c)); err != nil {
			return err
		}
		oKey = OrderKey(w, dist, oID)
		if err := tx.Insert(TOrders, types.Row{
			types.NewInt(oKey), types.NewInt(w), types.NewInt(dist),
			types.NewInt(oID), types.NewInt(c), types.NewInt(CustomerKey(w, dist, c)),
			types.NewInt(oID * 7), types.NewInt(0), types.NewInt(olCnt),
		}); err != nil {
			return err
		}
		if err := tx.Insert(TNewOrder, types.Row{
			types.NewInt(oKey), types.NewInt(w), types.NewInt(dist), types.NewInt(oID),
		}); err != nil {
			return err
		}
		for l := int64(1); l <= olCnt; l++ {
			item := items[l-1]
			irow, err := tx.Get(TItem, ItemKey(item))
			if err != nil {
				return err
			}
			sKey := StockKey(supply[l-1], item)
			srow, err := tx.Get(TStock, sKey)
			if err != nil {
				return err
			}
			ns := srow.Clone()
			q := ns[3].Int() - qtys[l-1]
			if q < 10 {
				q += 91
			}
			ns[3] = types.NewInt(q)
			ns[4] = types.NewInt(ns[4].Int() + qtys[l-1])
			ns[5] = types.NewInt(ns[5].Int() + 1)
			if supply[l-1] != w {
				ns[6] = types.NewInt(ns[6].Int() + 1)
			}
			if err := tx.Update(TStock, ns); err != nil {
				return err
			}
			amount := float64(qtys[l-1]) * irow[4].Float()
			if err := tx.Insert(TOrderLine, types.Row{
				types.NewInt(OrderLineKey(w, dist, oID, l)), types.NewInt(oKey),
				types.NewInt(w), types.NewInt(dist), types.NewInt(oID), types.NewInt(l),
				types.NewInt(item), types.NewInt(supply[l-1]), types.NewInt(0),
				types.NewInt(qtys[l-1]), types.NewFloat(amount),
				types.NewString("dist-info"),
			}); err != nil {
				return err
			}
		}
		if rollback {
			return errUserAbort
		}
		return nil
	})
	if errors.Is(err, errUserAbort) {
		return nil // a rolled-back New-Order still counts as completed
	}
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.lastOrder[CustomerKey(w, dist, c)] = oKey
	d.undelivered[DistrictKey(w, dist)] = append(d.undelivered[DistrictKey(w, dist)], oKey)
	d.mu.Unlock()
	return nil
}

var errUserAbort = errors.New("ch: simulated user abort")

// Payment updates warehouse and district YTD, the customer's balance, and
// records a history row. With more than one warehouse, 15% of payments
// are made by a customer of a remote warehouse (TPC-C clause 2.5.1.2) —
// cross-shard transactions under the distributed coordinator.
func (d *Driver) Payment(ctx context.Context, rng *rand.Rand) error {
	w, dist := d.pickWD(rng)
	cw, cd := w, dist
	if d.Scale.Warehouses > 1 && rng.Intn(100) < 15 {
		cw = d.pickRemoteWarehouse(rng, w)
		cd = int64(1 + rng.Intn(d.Scale.Districts))
	}
	cKey := d.pickCustomerKey(rng, cw, cd)
	amount := 1 + float64(rng.Intn(5000))/1.0
	return core.Exec(ctx, d.E, func(tx core.Tx) error {
		wrow, err := tx.Get(TWarehouse, WarehouseKey(w))
		if err != nil {
			return err
		}
		nw := wrow.Clone()
		nw[5] = types.NewFloat(nw[5].Float() + amount)
		if err := tx.Update(TWarehouse, nw); err != nil {
			return err
		}
		drow, err := tx.Get(TDistrict, DistrictKey(w, dist))
		if err != nil {
			return err
		}
		nd := drow.Clone()
		nd[5] = types.NewFloat(nd[5].Float() + amount)
		if err := tx.Update(TDistrict, nd); err != nil {
			return err
		}
		crow, err := tx.Get(TCustomer, cKey)
		if err != nil {
			return err
		}
		nc := crow.Clone()
		nc[7] = types.NewFloat(nc[7].Float() - amount)
		nc[8] = types.NewFloat(nc[8].Float() + amount)
		nc[9] = types.NewInt(nc[9].Int() + 1)
		if err := tx.Update(TCustomer, nc); err != nil {
			return err
		}
		return tx.Insert(THistory, types.Row{
			types.NewInt(NextHistoryKey()), types.NewInt(cKey),
			types.NewInt(w), types.NewInt(dist), types.NewInt(0),
			types.NewFloat(amount), types.NewString("payment"),
		})
	})
}

// OrderStatus reads a customer's balance and the lines of their most
// recent order.
func (d *Driver) OrderStatus(ctx context.Context, rng *rand.Rand) error {
	w, dist := d.pickWD(rng)
	cKey := d.pickCustomerKey(rng, w, dist)
	d.mu.Lock()
	oKey, has := d.lastOrder[cKey]
	d.mu.Unlock()
	return core.Exec(ctx, d.E, func(tx core.Tx) error {
		if _, err := tx.Get(TCustomer, cKey); err != nil {
			return err
		}
		if !has {
			return nil
		}
		orow, err := tx.Get(TOrders, oKey)
		if err != nil {
			return nil // order may have been trimmed; status is still valid
		}
		olCnt := orow[8].Int()
		wID, dID, oID := orow[1].Int(), orow[2].Int(), orow[3].Int()
		for l := int64(1); l <= olCnt; l++ {
			if _, err := tx.Get(TOrderLine, OrderLineKey(wID, dID, oID, l)); err != nil {
				return fmt.Errorf("ch: order %d missing line %d: %w", oKey, l, err)
			}
		}
		return nil
	})
}

// Delivery pops the oldest undelivered order of one district, deletes its
// new-order row, stamps the carrier and delivery dates, and credits the
// customer.
func (d *Driver) Delivery(ctx context.Context, rng *rand.Rand) error {
	w, dist := d.pickWD(rng)
	dk := DistrictKey(w, dist)
	d.mu.Lock()
	queue := d.undelivered[dk]
	if len(queue) == 0 {
		d.mu.Unlock()
		return nil // nothing to deliver is a legal no-op
	}
	oKey := queue[0]
	d.undelivered[dk] = queue[1:]
	d.mu.Unlock()
	// Drawn once, outside the retried closure: a retry must not shift the
	// seeded worker's later choices.
	carrier := types.NewInt(int64(1 + rng.Intn(10)))

	err := core.Exec(ctx, d.E, func(tx core.Tx) error {
		orow, err := tx.Get(TOrders, oKey)
		if err != nil {
			return err
		}
		if err := tx.Delete(TNewOrder, oKey); err != nil && !errors.Is(err, core.ErrNotFound) {
			return err
		}
		no := orow.Clone()
		no[7] = carrier
		if err := tx.Update(TOrders, no); err != nil {
			return err
		}
		olCnt := orow[8].Int()
		wID, dID, oID := orow[1].Int(), orow[2].Int(), orow[3].Int()
		total := 0.0
		for l := int64(1); l <= olCnt; l++ {
			lrow, err := tx.Get(TOrderLine, OrderLineKey(wID, dID, oID, l))
			if err != nil {
				return err
			}
			nl := lrow.Clone()
			nl[8] = types.NewInt(oID*7 + 100)
			if err := tx.Update(TOrderLine, nl); err != nil {
				return err
			}
			total += lrow[10].Float()
		}
		crow, err := tx.Get(TCustomer, orow[5].Int())
		if err != nil {
			return err
		}
		nc := crow.Clone()
		nc[7] = types.NewFloat(nc[7].Float() + total)
		nc[10] = types.NewInt(nc[10].Int() + 1)
		return tx.Update(TCustomer, nc)
	})
	if err != nil {
		// Put the order back so it is eventually delivered.
		d.mu.Lock()
		d.undelivered[dk] = append([]int64{oKey}, d.undelivered[dk]...)
		d.mu.Unlock()
	}
	return err
}

// StockLevel counts recently sold items whose stock is below a threshold.
func (d *Driver) StockLevel(ctx context.Context, rng *rand.Rand) error {
	w, dist := d.pickWD(rng)
	threshold := int64(10 + rng.Intn(11))
	return core.Exec(ctx, d.E, func(tx core.Tx) error {
		drow, err := tx.Get(TDistrict, DistrictKey(w, dist))
		if err != nil {
			return err
		}
		next := drow[6].Int()
		seen := make(map[int64]struct{})
		for o := next - 20; o < next; o++ {
			if o < 1 {
				continue
			}
			orow, err := tx.Get(TOrders, OrderKey(w, dist, o))
			if err != nil {
				continue
			}
			olCnt := orow[8].Int()
			for l := int64(1); l <= olCnt; l++ {
				lrow, err := tx.Get(TOrderLine, OrderLineKey(w, dist, o, l))
				if err != nil {
					continue
				}
				seen[lrow[6].Int()] = struct{}{}
			}
		}
		low := 0
		for item := range seen {
			srow, err := tx.Get(TStock, StockKey(w, item))
			if err != nil {
				continue
			}
			if srow[3].Int() < threshold {
				low++
			}
		}
		_ = low
		return nil
	})
}
