package ch

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"htap/internal/core"
	"htap/internal/disk"
	"htap/internal/exec"
	"htap/internal/txn"
	"htap/internal/types"
)

func newEngineA() core.Engine {
	return core.NewEngineA(core.ConfigA{Schemas: Schemas()})
}

func loadSmall(t testing.TB, e core.Engine, warehouses int) Scale {
	t.Helper()
	s := SmallScale(warehouses)
	if _, err := NewGenerator(s).Load(e); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKeyPackingInjective(t *testing.T) {
	seen := make(map[int64]string)
	put := func(k int64, what string) {
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision: %s and %s -> %d", prev, what, k)
		}
		seen[k] = what
	}
	for w := int64(1); w <= 3; w++ {
		for d := int64(1); d <= 10; d++ {
			put(DistrictKey(w, d), fmt.Sprintf("district %d/%d", w, d))
			for c := int64(1); c <= 5; c++ {
				put(CustomerKey(w, d, c), fmt.Sprintf("cust %d/%d/%d", w, d, c))
			}
			for o := int64(1); o <= 5; o++ {
				put(OrderKey(w, d, o), fmt.Sprintf("order %d/%d/%d", w, d, o))
				for l := int64(1); l <= 15; l++ {
					put(OrderLineKey(w, d, o, l), fmt.Sprintf("ol %d/%d/%d/%d", w, d, o, l))
				}
			}
		}
	}
}

func TestGeneratorCardinalities(t *testing.T) {
	e := newEngineA()
	defer e.Close()
	s := loadSmall(t, e, 2)

	counts := map[string]int{
		TWarehouse: s.Warehouses,
		TDistrict:  s.Warehouses * s.Districts,
		TCustomer:  s.Warehouses * s.Districts * s.Customers,
		TItem:      s.Items,
		TStock:     s.Warehouses * s.Items,
		TOrders:    s.Warehouses * s.Districts * s.Orders,
		TSupplier:  s.Suppliers,
		TNation:    len(nationNames),
		TRegion:    len(regionNames),
	}
	for table, want := range counts {
		if got := e.Query(context.Background(), table, nil, nil).Count(); got != want {
			t.Errorf("%s: %d rows, want %d", table, got, want)
		}
	}
	// A third of initial orders are undelivered.
	no := e.Query(context.Background(), TNewOrder, nil, nil).Count()
	wantNO := s.Warehouses * s.Districts * (s.Orders - s.Orders*2/3)
	if no != wantNO {
		t.Errorf("neworder: %d rows, want %d", no, wantNO)
	}
	// Order lines: 5..15 per order.
	ol := e.Query(context.Background(), TOrderLine, nil, nil).Count()
	orders := s.Warehouses * s.Districts * s.Orders
	if ol < orders*5 || ol > orders*15 {
		t.Errorf("orderline count %d outside [%d, %d]", ol, orders*5, orders*15)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	sum := func() float64 {
		e := newEngineA()
		defer e.Close()
		loadSmall(t, e, 1)
		rows := e.Query(context.Background(), TOrderLine, []string{"ol_amount"}, nil).
			Agg(nil, exec.Agg{Kind: exec.Sum, Expr: exec.ColName("ol_amount"), Name: "s"}).Run()
		return rows[0][0].Float()
	}
	if a, b := sum(), sum(); a != b {
		t.Fatalf("generator not deterministic: %f vs %f", a, b)
	}
}

func TestNewOrderTransaction(t *testing.T) {
	e := newEngineA()
	defer e.Close()
	s := loadSmall(t, e, 1)
	d := NewDriver(e, s)
	rng := rand.New(rand.NewSource(1))

	before := e.Query(context.Background(), TOrders, nil, nil).Count()
	for i := 0; i < 20; i++ {
		if err := d.NewOrder(context.Background(), rng); err != nil {
			t.Fatalf("new-order %d: %v", i, err)
		}
	}
	e.Sync()
	after := e.Query(context.Background(), TOrders, nil, nil).Count()
	// Up to 20 new orders (1% user aborts may subtract a few).
	if after <= before || after > before+20 {
		t.Fatalf("orders %d -> %d", before, after)
	}
	// District next_o_id advanced.
	tx := e.Begin(context.Background())
	defer tx.Abort()
	dr, err := tx.Get(TDistrict, DistrictKey(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if dr[6].Int() <= int64(s.Orders) {
		t.Fatalf("next_o_id = %d, want advanced past %d", dr[6].Int(), s.Orders)
	}
}

func TestPaymentMaintainsBalances(t *testing.T) {
	e := newEngineA()
	defer e.Close()
	s := loadSmall(t, e, 1)
	d := NewDriver(e, s)
	rng := rand.New(rand.NewSource(2))

	ytdBefore := warehouseYTD(t, e)
	for i := 0; i < 10; i++ {
		if err := d.Payment(context.Background(), rng); err != nil {
			t.Fatal(err)
		}
	}
	ytdAfter := warehouseYTD(t, e)
	if ytdAfter <= ytdBefore {
		t.Fatalf("warehouse YTD %f -> %f", ytdBefore, ytdAfter)
	}
	// History rows recorded.
	e.Sync()
	h := e.Query(context.Background(), THistory, nil, nil).
		Filter(exec.Cmp(exec.EQ, exec.ColName("h_data"), exec.ConstStr("payment"))).Count()
	if h != 10 {
		t.Fatalf("history payments = %d", h)
	}
}

func warehouseYTD(t *testing.T, e core.Engine) float64 {
	t.Helper()
	tx := e.Begin(context.Background())
	defer tx.Abort()
	r, err := tx.Get(TWarehouse, WarehouseKey(1))
	if err != nil {
		t.Fatal(err)
	}
	return r[5].Float()
}

func TestDeliveryClearsNewOrders(t *testing.T) {
	e := newEngineA()
	defer e.Close()
	s := loadSmall(t, e, 1)
	d := NewDriver(e, s)
	rng := rand.New(rand.NewSource(3))

	e.Sync()
	before := e.Query(context.Background(), TNewOrder, nil, nil).Count()
	if before == 0 {
		t.Fatal("no undelivered orders generated")
	}
	delivered := 0
	for i := 0; i < 30 && delivered < 5; i++ {
		if err := d.Delivery(context.Background(), rng); err != nil {
			t.Fatal(err)
		}
		delivered++
	}
	e.Sync()
	after := e.Query(context.Background(), TNewOrder, nil, nil).Count()
	if after >= before {
		t.Fatalf("neworder rows %d -> %d, want fewer", before, after)
	}
}

// conflictOnce is an engine whose first Commit fails with a retryable
// conflict, so core.Exec runs the transaction's closure a second time.
type conflictOnce struct {
	core.Engine
	failed bool
}

func (e *conflictOnce) Begin(ctx context.Context) core.Tx {
	return &conflictOnceTx{Tx: e.Engine.Begin(ctx), e: e}
}

type conflictOnceTx struct {
	core.Tx
	e *conflictOnce
}

func (t *conflictOnceTx) Commit() error {
	if !t.e.failed {
		t.e.failed = true
		t.Tx.Abort()
		return txn.ErrConflict
	}
	return t.Tx.Commit()
}

// A retried Delivery draws from the worker's rng exactly as an unretried
// one: the seeded stream after it does not depend on conflicts.
func TestDeliveryRetryKeepsRNGStream(t *testing.T) {
	var next [2]int64
	for i := range next {
		e := newEngineA()
		defer e.Close()
		s := loadSmall(t, e, 1)
		var eng Engine = e
		retried := &conflictOnce{Engine: e}
		if i == 1 {
			eng = retried
		}
		rng := rand.New(rand.NewSource(5))
		if err := NewDriver(eng, s).Delivery(context.Background(), rng); err != nil {
			t.Fatal(err)
		}
		if i == 1 && !retried.failed {
			t.Fatal("delivery never reached Commit: the retry was not exercised")
		}
		next[i] = rng.Int63()
	}
	if next[0] != next[1] {
		t.Fatalf("rng after delivery: %d without a retry, %d with one", next[0], next[1])
	}
}

func TestOrderStatusAndStockLevel(t *testing.T) {
	e := newEngineA()
	defer e.Close()
	s := loadSmall(t, e, 1)
	d := NewDriver(e, s)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10; i++ {
		if err := d.OrderStatus(context.Background(), rng); err != nil {
			t.Fatalf("order-status: %v", err)
		}
		if err := d.StockLevel(context.Background(), rng); err != nil {
			t.Fatalf("stock-level: %v", err)
		}
	}
}

func TestMixDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	counts := map[TxnType]int{}
	const n = 20_000
	for i := 0; i < n; i++ {
		counts[Mix(rng)]++
	}
	frac := func(t TxnType) float64 { return float64(counts[t]) / n }
	if f := frac(NewOrderTxn); f < 0.42 || f > 0.48 {
		t.Fatalf("new-order fraction %f", f)
	}
	if f := frac(PaymentTxn); f < 0.40 || f > 0.46 {
		t.Fatalf("payment fraction %f", f)
	}
	for _, tt := range []TxnType{OrderStatusTxn, DeliveryTxn, StockLevelTxn} {
		if f := frac(tt); f < 0.02 || f > 0.06 {
			t.Fatalf("%v fraction %f", tt, f)
		}
	}
}

func TestDriverRunOneCounts(t *testing.T) {
	e := newEngineA()
	defer e.Close()
	s := loadSmall(t, e, 1)
	d := NewDriver(e, s)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 50; i++ {
		if err := d.RunOne(context.Background(), rng); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	total := int64(0)
	for _, n := range d.Counts() {
		total += n
	}
	if total != 50 {
		t.Fatalf("counted %d transactions, want 50", total)
	}
}

func TestAll22QueriesRun(t *testing.T) {
	e := newEngineA()
	defer e.Close()
	s := loadSmall(t, e, 2)
	// Mix in some live transactions so queries see delta data too.
	d := NewDriver(e, s)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		if err := d.RunOne(context.Background(), rng); err != nil {
			t.Fatal(err)
		}
	}
	for i, q := range Queries() {
		i, q := i, q
		t.Run(fmt.Sprintf("Q%02d", i), func(t *testing.T) {
			rows := q(Bind(context.Background(), e))
			switch i {
			case 1:
				if len(rows) == 0 {
					t.Fatal("Q1 empty")
				}
				// sum_qty >= count (quantities >= 1).
				if rows[0][1].Float() < rows[0][5].Float() {
					t.Fatalf("Q1 aggregates inconsistent: %v", rows[0])
				}
			case 6, 14, 17:
				if len(rows) != 1 {
					t.Fatalf("scalar query returned %d rows", len(rows))
				}
			case 4:
				if len(rows) == 0 {
					t.Fatal("Q4 empty")
				}
				for _, r := range rows {
					cnt := r[0].Int()
					if cnt < 5 || cnt > 15 {
						t.Fatalf("Q4 ol_cnt %d outside [5,15]", cnt)
					}
				}
			case 22:
				for _, r := range rows {
					if r[1].Int() <= 0 {
						t.Fatalf("Q22 non-positive numcust: %v", r)
					}
				}
			}
		})
	}
}

func TestQueryConsistencyAcrossArchitectures(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine consistency is slow")
	}
	scale := SmallScale(1)
	mkEngines := func() map[string]core.Engine {
		return map[string]core.Engine{
			"A": core.NewEngineA(core.ConfigA{Schemas: Schemas()}),
			"B": core.NewEngineB(core.ConfigB{Schemas: Schemas(), Partitions: 2, VotersPer: 3, LearnersPer: 1}),
			"C": core.NewEngineC(core.ConfigC{Schemas: Schemas(), Shards: 2, Disk: disk.MemConfig()}),
			"D": core.NewEngineD(core.ConfigD{Schemas: Schemas()}),
		}
	}
	results := map[string][]types.Row{}
	for name, e := range mkEngines() {
		if _, err := NewGenerator(scale).Load(e); err != nil {
			t.Fatal(err)
		}
		e.Sync()
		results[name] = Q1(Bind(context.Background(), e))
		e.Close()
	}
	want := results["A"]
	for name, got := range results {
		if len(got) != len(want) {
			t.Fatalf("%s: Q1 returned %d rows, A returned %d", name, len(got), len(want))
		}
		for i := range want {
			for c := range want[i] {
				if !got[i][c].Equal(want[i][c]) {
					t.Fatalf("%s: Q1 row %d col %d = %v, want %v", name, i, c, got[i][c], want[i][c])
				}
			}
		}
	}
}
