package ch

import (
	"sort"

	"htap/internal/exec"
	"htap/internal/types"
)

// Queryer is the analytical surface the queries run against; core.Engine
// satisfies it.
type Queryer interface {
	Query(table string, cols []string, filter exec.Expr) *exec.Plan
}

// QueryFunc executes one CH query and returns its result rows.
type QueryFunc func(Queryer) []types.Row

// Queries returns the 22 CH-benCHmark analytical queries, indexed 1..22.
// Each is the CH query adapted to this repository's schema and
// relational-algebra builder (see EXPERIMENTS.md for the adaptation notes);
// correlated subqueries are evaluated in explicit phases, as a simple
// optimizer would decorrelate them.
func Queries() map[int]QueryFunc {
	return map[int]QueryFunc{
		1: Q1, 2: Q2, 3: Q3, 4: Q4, 5: Q5, 6: Q6, 7: Q7, 8: Q8,
		9: Q9, 10: Q10, 11: Q11, 12: Q12, 13: Q13, 14: Q14, 15: Q15,
		16: Q16, 17: Q17, 18: Q18, 19: Q19, 20: Q20, 21: Q21, 22: Q22,
	}
}

func c(name string) exec.Expr                 { return exec.ColName(name) }
func ci(v int64) exec.Expr                    { return exec.ConstInt(v) }
func cf(v float64) exec.Expr                  { return exec.ConstFloat(v) }
func cs(v string) exec.Expr                   { return exec.ConstStr(v) }
func ne(n string, e exec.Expr) exec.NamedExpr { return exec.NamedExpr{Name: n, Expr: e} }

// Q1: order-line pricing summary by line number for recently delivered
// lines.
func Q1(e Queryer) []types.Row {
	return e.Query(TOrderLine, []string{"ol_number", "ol_quantity", "ol_amount", "ol_delivery_d"}, nil).
		Filter(exec.Cmp(exec.GT, c("ol_delivery_d"), ci(0))).
		Agg([]string{"ol_number"},
			exec.Agg{Kind: exec.Sum, Expr: c("ol_quantity"), Name: "sum_qty"},
			exec.Agg{Kind: exec.Sum, Expr: c("ol_amount"), Name: "sum_amount"},
			exec.Agg{Kind: exec.Avg, Expr: c("ol_quantity"), Name: "avg_qty"},
			exec.Agg{Kind: exec.Avg, Expr: c("ol_amount"), Name: "avg_amount"},
			exec.Agg{Kind: exec.Count, Name: "count_order"},
		).
		Sort(exec.SortKey{Col: "ol_number"}).Run()
}

// Q2: cheapest-stock supplier per item within one region.
func Q2(e Queryer) []types.Row {
	// Phase 1: minimum stock quantity per item across EUROPE suppliers.
	mins := e.Query(TStock, []string{"s_i_id", "s_quantity", "s_su_suppkey"}, nil).
		Join(e.Query(TSupplier, []string{"su_suppkey", "su_name", "su_nationkey"}, nil),
			[]string{"s_su_suppkey"}, []string{"su_suppkey"}).
		Join(e.Query(TNation, []string{"n_nationkey", "n_regionkey"}, nil),
			[]string{"su_nationkey"}, []string{"n_nationkey"}).
		Join(e.Query(TRegion, []string{"r_regionkey", "r_name"}, nil).
			Filter(exec.Cmp(exec.EQ, c("r_name"), cs("EUROPE"))),
			[]string{"n_regionkey"}, []string{"r_regionkey"}).
		Agg([]string{"s_i_id"}, exec.Agg{Kind: exec.Min, Expr: c("s_quantity"), Name: "min_qty"})
	minRows := mins.Run()
	minByItem := make(map[int64]int64, len(minRows))
	for _, r := range minRows {
		minByItem[r[0].Int()] = r[1].Int()
	}
	// Phase 2: emit the EUROPE supplier rows achieving the minimum.
	// Joined columns: s_i_id s_quantity s_su_suppkey su_suppkey su_name
	// su_nationkey n_nationkey n_name n_regionkey r_regionkey r_name i_id
	// i_name.
	rows := e.Query(TStock, []string{"s_i_id", "s_quantity", "s_su_suppkey"}, nil).
		Join(e.Query(TSupplier, []string{"su_suppkey", "su_name", "su_nationkey"}, nil),
			[]string{"s_su_suppkey"}, []string{"su_suppkey"}).
		Join(e.Query(TNation, []string{"n_nationkey", "n_name", "n_regionkey"}, nil),
			[]string{"su_nationkey"}, []string{"n_nationkey"}).
		Join(e.Query(TRegion, []string{"r_regionkey", "r_name"}, nil).
			Filter(exec.Cmp(exec.EQ, c("r_name"), cs("EUROPE"))),
			[]string{"n_regionkey"}, []string{"r_regionkey"}).
		Join(e.Query(TItem, []string{"i_id", "i_name"}, nil),
			[]string{"s_i_id"}, []string{"i_id"}).
		Run()
	var out []types.Row
	for _, r := range rows {
		item, qty := r[0].Int(), r[1].Int()
		if mq, ok := minByItem[item]; ok && qty == mq {
			out = append(out, types.Row{r[4], r[7], r[0], r[12]})
		}
	}
	if len(out) > 100 {
		out = out[:100]
	}
	return out
}

// Q3: unshipped orders with potential revenue, for customers in states
// starting with 'A'.
func Q3(e Queryer) []types.Row {
	return e.Query(TCustomer, []string{"c_key", "c_state"}, nil).
		Filter(exec.HasPrefix(c("c_state"), "A")).
		Join(e.Query(TOrders, []string{"o_key", "o_c_key", "o_entry_d"}, nil),
			[]string{"c_key"}, []string{"o_c_key"}).
		Join(e.Query(TNewOrder, []string{"no_key"}, nil), []string{"o_key"}, []string{"no_key"}).
		Join(e.Query(TOrderLine, []string{"ol_o_key", "ol_amount"}, nil),
			[]string{"o_key"}, []string{"ol_o_key"}).
		Agg([]string{"o_key", "o_entry_d"},
			exec.Agg{Kind: exec.Sum, Expr: c("ol_amount"), Name: "revenue"}).
		Sort(exec.SortKey{Col: "revenue", Desc: true}, exec.SortKey{Col: "o_entry_d"}).
		Limit(100).Run()
}

// Q4: order counts by line count for orders where some line was delivered
// on or after the order date.
func Q4(e Queryer) []types.Row {
	return e.Query(TOrders, []string{"o_key", "o_ol_cnt", "o_entry_d"}, nil).
		Join(e.Query(TOrderLine, []string{"ol_o_key", "ol_delivery_d"}, nil),
			[]string{"o_key"}, []string{"ol_o_key"}).
		Filter(exec.Cmp(exec.GE, c("ol_delivery_d"), c("o_entry_d"))).
		Project(ne("o_key", c("o_key")), ne("o_ol_cnt", c("o_ol_cnt"))).
		Distinct().
		Agg([]string{"o_ol_cnt"}, exec.Agg{Kind: exec.Count, Name: "order_count"}).
		Sort(exec.SortKey{Col: "o_ol_cnt"}).Run()
}

// Q5: revenue per nation for one region, customers and suppliers in the
// same nation.
func Q5(e Queryer) []types.Row {
	return e.Query(TCustomer, []string{"c_key", "c_n_nationkey"}, nil).
		Join(e.Query(TOrders, []string{"o_key", "o_c_key"}, nil),
			[]string{"c_key"}, []string{"o_c_key"}).
		Join(e.Query(TOrderLine, []string{"ol_o_key", "ol_amount", "ol_supply_w_id", "ol_i_id"}, nil),
			[]string{"o_key"}, []string{"ol_o_key"}).
		Join(e.Query(TNation, []string{"n_nationkey", "n_name", "n_regionkey"}, nil),
			[]string{"c_n_nationkey"}, []string{"n_nationkey"}).
		Join(e.Query(TRegion, []string{"r_regionkey", "r_name"}, nil).
			Filter(exec.Cmp(exec.EQ, c("r_name"), cs("EUROPE"))),
			[]string{"n_regionkey"}, []string{"r_regionkey"}).
		Agg([]string{"n_name"}, exec.Agg{Kind: exec.Sum, Expr: c("ol_amount"), Name: "revenue"}).
		Sort(exec.SortKey{Col: "revenue", Desc: true}).Run()
}

// Q6: total revenue from high-quantity recent lines.
func Q6(e Queryer) []types.Row {
	return e.Query(TOrderLine, []string{"ol_quantity", "ol_amount", "ol_delivery_d"}, nil).
		Filter(exec.And(
			exec.Cmp(exec.GT, c("ol_delivery_d"), ci(0)),
			exec.Between(c("ol_quantity"), 1, 100_000),
		)).
		Agg(nil, exec.Agg{Kind: exec.Sum, Expr: c("ol_amount"), Name: "revenue"}).Run()
}

// Q7: trade volume between two nations.
func Q7(e Queryer) []types.Row {
	return e.Query(TOrderLine, []string{"ol_o_key", "ol_amount", "ol_supply_w_id", "ol_i_id"}, nil).
		Project(
			ne("sl_key", exec.Arith(exec.Add,
				exec.Arith(exec.Mul, c("ol_supply_w_id"), ci(1_000_000)), c("ol_i_id"))),
			ne("ol_o_key", c("ol_o_key")),
			ne("ol_amount", c("ol_amount")),
		).
		Join(e.Query(TStock, []string{"s_key", "s_su_suppkey"}, nil),
			[]string{"sl_key"}, []string{"s_key"}).
		Join(e.Query(TSupplier, []string{"su_suppkey", "su_nationkey"}, nil),
			[]string{"s_su_suppkey"}, []string{"su_suppkey"}).
		Join(e.Query(TOrders, []string{"o_key", "o_c_key"}, nil),
			[]string{"ol_o_key"}, []string{"o_key"}).
		Join(e.Query(TCustomer, []string{"c_key", "c_n_nationkey"}, nil),
			[]string{"o_c_key"}, []string{"c_key"}).
		Filter(exec.Or(
			exec.And(exec.Cmp(exec.EQ, c("su_nationkey"), ci(0)), exec.Cmp(exec.EQ, c("c_n_nationkey"), ci(1))),
			exec.And(exec.Cmp(exec.EQ, c("su_nationkey"), ci(1)), exec.Cmp(exec.EQ, c("c_n_nationkey"), ci(0))),
		)).
		Agg([]string{"su_nationkey", "c_n_nationkey"},
			exec.Agg{Kind: exec.Sum, Expr: c("ol_amount"), Name: "revenue"}).
		Sort(exec.SortKey{Col: "su_nationkey"}).Run()
}

// Q8: market share of GERMANY suppliers in EUROPE customers' purchases,
// per "year" (a coarse bucket of the order entry date).
func Q8(e Queryer) []types.Row {
	return e.Query(TOrderLine, []string{"ol_o_key", "ol_amount", "ol_supply_w_id", "ol_i_id"}, nil).
		Project(
			ne("sl_key", exec.Arith(exec.Add,
				exec.Arith(exec.Mul, c("ol_supply_w_id"), ci(1_000_000)), c("ol_i_id"))),
			ne("ol_o_key", c("ol_o_key")),
			ne("ol_amount", c("ol_amount")),
		).
		Join(e.Query(TStock, []string{"s_key", "s_su_suppkey"}, nil),
			[]string{"sl_key"}, []string{"s_key"}).
		Join(e.Query(TSupplier, []string{"su_suppkey", "su_nationkey"}, nil),
			[]string{"s_su_suppkey"}, []string{"su_suppkey"}).
		Join(e.Query(TOrders, []string{"o_key", "o_c_key", "o_entry_d"}, nil),
			[]string{"ol_o_key"}, []string{"o_key"}).
		Join(e.Query(TCustomer, []string{"c_key", "c_n_nationkey"}, nil),
			[]string{"o_c_key"}, []string{"c_key"}).
		Join(e.Query(TNation, []string{"n_nationkey", "n_regionkey"}, nil),
			[]string{"c_n_nationkey"}, []string{"n_nationkey"}).
		Join(e.Query(TRegion, []string{"r_regionkey", "r_name"}, nil).
			Filter(exec.Cmp(exec.EQ, c("r_name"), cs("EUROPE"))),
			[]string{"n_regionkey"}, []string{"r_regionkey"}).
		Project(
			ne("year", exec.Arith(exec.Mul, exec.Arith(exec.Div, c("o_entry_d"), ci(100_000)), ci(1))),
			ne("german", exec.If(exec.Cmp(exec.EQ, c("su_nationkey"), ci(0)), c("ol_amount"), cf(0))),
			ne("ol_amount", c("ol_amount")),
		).
		Agg([]string{"year"},
			exec.Agg{Kind: exec.Sum, Expr: c("german"), Name: "mkt_share_num"},
			exec.Agg{Kind: exec.Sum, Expr: c("ol_amount"), Name: "mkt_share_den"},
		).
		Sort(exec.SortKey{Col: "year"}).Run()
}

// Q9: profit per supplier nation and year for promotional items.
func Q9(e Queryer) []types.Row {
	return e.Query(TOrderLine, []string{"ol_o_key", "ol_amount", "ol_supply_w_id", "ol_i_id"}, nil).
		Join(e.Query(TItem, []string{"i_id", "i_data"}, nil).
			Filter(exec.HasPrefix(c("i_data"), "item")),
			[]string{"ol_i_id"}, []string{"i_id"}).
		Project(
			ne("sl_key", exec.Arith(exec.Add,
				exec.Arith(exec.Mul, c("ol_supply_w_id"), ci(1_000_000)), c("ol_i_id"))),
			ne("ol_o_key", c("ol_o_key")),
			ne("ol_amount", c("ol_amount")),
		).
		Join(e.Query(TStock, []string{"s_key", "s_su_suppkey"}, nil),
			[]string{"sl_key"}, []string{"s_key"}).
		Join(e.Query(TSupplier, []string{"su_suppkey", "su_nationkey"}, nil),
			[]string{"s_su_suppkey"}, []string{"su_suppkey"}).
		Join(e.Query(TNation, []string{"n_nationkey", "n_name"}, nil),
			[]string{"su_nationkey"}, []string{"n_nationkey"}).
		Join(e.Query(TOrders, []string{"o_key", "o_entry_d"}, nil),
			[]string{"ol_o_key"}, []string{"o_key"}).
		Project(
			ne("n_name", c("n_name")),
			ne("year", exec.Arith(exec.Mul, exec.Arith(exec.Div, c("o_entry_d"), ci(100_000)), ci(1))),
			ne("ol_amount", c("ol_amount")),
		).
		Agg([]string{"n_name", "year"},
			exec.Agg{Kind: exec.Sum, Expr: c("ol_amount"), Name: "sum_profit"}).
		Sort(exec.SortKey{Col: "n_name"}, exec.SortKey{Col: "year", Desc: true}).Run()
}

// Q10: top customers by recent revenue.
func Q10(e Queryer) []types.Row {
	return e.Query(TCustomer, []string{"c_key", "c_id", "c_last", "c_state", "c_n_nationkey"}, nil).
		Join(e.Query(TOrders, []string{"o_key", "o_c_key", "o_entry_d"}, nil),
			[]string{"c_key"}, []string{"o_c_key"}).
		Join(e.Query(TOrderLine, []string{"ol_o_key", "ol_amount"}, nil),
			[]string{"o_key"}, []string{"ol_o_key"}).
		Join(e.Query(TNation, []string{"n_nationkey", "n_name"}, nil),
			[]string{"c_n_nationkey"}, []string{"n_nationkey"}).
		Agg([]string{"c_key", "c_last", "n_name"},
			exec.Agg{Kind: exec.Sum, Expr: c("ol_amount"), Name: "revenue"}).
		Sort(exec.SortKey{Col: "revenue", Desc: true}).
		Limit(20).Run()
}

// Q11: most important stock items for one nation's suppliers (share above
// a per-mille threshold of the national total).
func Q11(e Queryer) []types.Row {
	base := func() *exec.Plan {
		return e.Query(TStock, []string{"s_i_id", "s_order_cnt", "s_su_suppkey"}, nil).
			Join(e.Query(TSupplier, []string{"su_suppkey", "su_nationkey"}, nil),
				[]string{"s_su_suppkey"}, []string{"su_suppkey"}).
			Join(e.Query(TNation, []string{"n_nationkey", "n_name"}, nil).
				Filter(exec.Cmp(exec.EQ, c("n_name"), cs("GERMANY"))),
				[]string{"su_nationkey"}, []string{"n_nationkey"})
	}
	totalRows := base().Agg(nil, exec.Agg{Kind: exec.Sum, Expr: c("s_order_cnt"), Name: "t"}).Run()
	threshold := totalRows[0][0].Float() * 0.005
	rows := base().
		Agg([]string{"s_i_id"}, exec.Agg{Kind: exec.Sum, Expr: c("s_order_cnt"), Name: "ordercount"}).
		Sort(exec.SortKey{Col: "ordercount", Desc: true}).Run()
	var out []types.Row
	for _, r := range rows {
		if r[1].Float() > threshold {
			out = append(out, r)
		}
	}
	return out
}

// Q12: delivered order lines by order-priority bucket.
func Q12(e Queryer) []types.Row {
	return e.Query(TOrders, []string{"o_key", "o_carrier_id", "o_entry_d"}, nil).
		Join(e.Query(TOrderLine, []string{"ol_o_key", "ol_delivery_d"}, nil),
			[]string{"o_key"}, []string{"ol_o_key"}).
		Filter(exec.And(
			exec.Cmp(exec.GT, c("ol_delivery_d"), ci(0)),
			exec.Cmp(exec.GE, c("ol_delivery_d"), c("o_entry_d")),
		)).
		Project(
			ne("high", exec.If(exec.InInts(c("o_carrier_id"), 1, 2), ci(1), ci(0))),
			ne("low", exec.If(exec.InInts(c("o_carrier_id"), 1, 2), ci(0), ci(1))),
		).
		Agg(nil,
			exec.Agg{Kind: exec.Sum, Expr: c("high"), Name: "high_line_count"},
			exec.Agg{Kind: exec.Sum, Expr: c("low"), Name: "low_line_count"},
		).Run()
}

// Q13: distribution of customers by number of (carrier-filtered) orders.
func Q13(e Queryer) []types.Row {
	perCustomer := e.Query(TOrders, []string{"o_c_key", "o_carrier_id"}, nil).
		Filter(exec.Cmp(exec.GT, c("o_carrier_id"), ci(1))).
		Agg([]string{"o_c_key"}, exec.Agg{Kind: exec.Count, Name: "c_count"})
	return perCustomer.
		Agg([]string{"c_count"}, exec.Agg{Kind: exec.Count, Name: "custdist"}).
		Sort(exec.SortKey{Col: "custdist", Desc: true}, exec.SortKey{Col: "c_count", Desc: true}).
		Run()
}

// Q14: promotion revenue share among delivered lines.
func Q14(e Queryer) []types.Row {
	rows := e.Query(TOrderLine, []string{"ol_i_id", "ol_amount", "ol_delivery_d"}, nil).
		Filter(exec.Cmp(exec.GT, c("ol_delivery_d"), ci(0))).
		Join(e.Query(TItem, []string{"i_id", "i_data"}, nil),
			[]string{"ol_i_id"}, []string{"i_id"}).
		Project(
			ne("promo", exec.If(exec.HasPrefix(c("i_data"), "item-data-1"), c("ol_amount"), cf(0))),
			ne("ol_amount", c("ol_amount")),
		).
		Agg(nil,
			exec.Agg{Kind: exec.Sum, Expr: c("promo"), Name: "promo"},
			exec.Agg{Kind: exec.Sum, Expr: c("ol_amount"), Name: "total"},
		).Run()
	promo, total := rows[0][0].Float(), rows[0][1].Float()
	share := 0.0
	if total > 0 {
		share = 100 * promo / total
	}
	return []types.Row{{types.NewFloat(share)}}
}

// Q15: suppliers achieving the maximum revenue.
func Q15(e Queryer) []types.Row {
	revenue := func() *exec.Plan {
		return e.Query(TOrderLine, []string{"ol_supply_w_id", "ol_i_id", "ol_amount", "ol_delivery_d"}, nil).
			Filter(exec.Cmp(exec.GT, c("ol_delivery_d"), ci(0))).
			Project(
				ne("sl_key", exec.Arith(exec.Add,
					exec.Arith(exec.Mul, c("ol_supply_w_id"), ci(1_000_000)), c("ol_i_id"))),
				ne("ol_amount", c("ol_amount")),
			).
			Join(e.Query(TStock, []string{"s_key", "s_su_suppkey"}, nil),
				[]string{"sl_key"}, []string{"s_key"}).
			Agg([]string{"s_su_suppkey"}, exec.Agg{Kind: exec.Sum, Expr: c("ol_amount"), Name: "total_revenue"})
	}
	maxRows := revenue().Agg(nil, exec.Agg{Kind: exec.Max, Expr: c("total_revenue"), Name: "m"}).Run()
	maxRev := maxRows[0][0].Float()
	return revenue().
		Filter(exec.Cmp(exec.GE, c("total_revenue"), cf(maxRev))).
		Join(e.Query(TSupplier, []string{"su_suppkey", "su_name"}, nil),
			[]string{"s_su_suppkey"}, []string{"su_suppkey"}).
		Sort(exec.SortKey{Col: "su_suppkey"}).Run()
}

// Q16: supplier counts per item name prefix for non-excluded items.
func Q16(e Queryer) []types.Row {
	return e.Query(TStock, []string{"s_i_id", "s_su_suppkey"}, nil).
		Join(e.Query(TItem, []string{"i_id", "i_name", "i_data"}, nil).
			Filter(exec.Not(exec.HasPrefix(c("i_data"), "zz"))),
			[]string{"s_i_id"}, []string{"i_id"}).
		Project(
			ne("brand", exec.Substr(c("i_name"), 0, 6)),
			ne("s_su_suppkey", c("s_su_suppkey")),
		).
		Distinct().
		Agg([]string{"brand"}, exec.Agg{Kind: exec.Count, Name: "supplier_cnt"}).
		Sort(exec.SortKey{Col: "supplier_cnt", Desc: true}).Run()
}

// Q17: revenue that would be lost without small-quantity orders.
func Q17(e Queryer) []types.Row {
	avgRows := e.Query(TOrderLine, []string{"ol_i_id", "ol_quantity"}, nil).
		Agg([]string{"ol_i_id"}, exec.Agg{Kind: exec.Avg, Expr: c("ol_quantity"), Name: "a"}).Run()
	avgByItem := make(map[int64]float64, len(avgRows))
	for _, r := range avgRows {
		avgByItem[r[0].Int()] = r[1].Float()
	}
	rows := e.Query(TOrderLine, []string{"ol_i_id", "ol_quantity", "ol_amount"}, nil).Run()
	// Sum in sorted order: the qualifying amounts form a multiset, and a
	// fixed association makes the result independent of scan order (which
	// storage layout, shard count, and rebalancing may all change).
	var amounts []float64
	for _, r := range rows {
		if float64(r[1].Int()) < avgByItem[r[0].Int()] {
			amounts = append(amounts, r[2].Float())
		}
	}
	sort.Float64s(amounts)
	sum := 0.0
	for _, a := range amounts {
		sum += a
	}
	return []types.Row{{types.NewFloat(sum / 2)}}
}

// Q18: large-volume customers.
func Q18(e Queryer) []types.Row {
	return e.Query(TCustomer, []string{"c_key", "c_last"}, nil).
		Join(e.Query(TOrders, []string{"o_key", "o_c_key", "o_ol_cnt"}, nil),
			[]string{"c_key"}, []string{"o_c_key"}).
		Join(e.Query(TOrderLine, []string{"ol_o_key", "ol_amount"}, nil),
			[]string{"o_key"}, []string{"ol_o_key"}).
		Agg([]string{"c_key", "c_last", "o_key"},
			exec.Agg{Kind: exec.Sum, Expr: c("ol_amount"), Name: "amount"}).
		Filter(exec.Cmp(exec.GT, c("amount"), cf(200))).
		Sort(exec.SortKey{Col: "amount", Desc: true}).
		Limit(100).Run()
}

// Q19: revenue from quantity- and price-banded lines in selected
// warehouses.
func Q19(e Queryer) []types.Row {
	return e.Query(TOrderLine, []string{"ol_i_id", "ol_quantity", "ol_amount", "ol_w_id"}, nil).
		Join(e.Query(TItem, []string{"i_id", "i_price"}, nil),
			[]string{"ol_i_id"}, []string{"i_id"}).
		Filter(exec.Or(
			exec.And(exec.Between(c("ol_quantity"), 1, 5),
				exec.Cmp(exec.GE, c("i_price"), cf(1)), exec.InInts(c("ol_w_id"), 1, 2, 3)),
			exec.And(exec.Between(c("ol_quantity"), 1, 10),
				exec.Cmp(exec.GE, c("i_price"), cf(10)), exec.InInts(c("ol_w_id"), 1, 2, 4)),
		)).
		Agg(nil, exec.Agg{Kind: exec.Sum, Expr: c("ol_amount"), Name: "revenue"}).Run()
}

// Q20: suppliers with excess stock of recently sold prefix-matched items.
func Q20(e Queryer) []types.Row {
	soldRows := e.Query(TOrderLine, []string{"ol_i_id", "ol_quantity", "ol_delivery_d"}, nil).
		Filter(exec.Cmp(exec.GT, c("ol_delivery_d"), ci(0))).
		Agg([]string{"ol_i_id"}, exec.Agg{Kind: exec.Sum, Expr: c("ol_quantity"), Name: "sold"}).Run()
	sold := make(map[int64]int64, len(soldRows))
	for _, r := range soldRows {
		sold[r[0].Int()] = r[1].Int()
	}
	rows := e.Query(TStock, []string{"s_i_id", "s_quantity", "s_su_suppkey"}, nil).
		Join(e.Query(TItem, []string{"i_id", "i_name"}, nil).
			Filter(exec.HasPrefix(c("i_name"), "item-1")),
			[]string{"s_i_id"}, []string{"i_id"}).
		Run()
	hit := make(map[int64]bool)
	for _, r := range rows {
		item, qty, supp := r[0].Int(), r[1].Int(), r[2].Int()
		if s, ok := sold[item]; ok && float64(qty) > float64(s)/2 {
			hit[supp] = true
		}
	}
	return e.Query(TSupplier, []string{"su_suppkey", "su_name", "su_nationkey"}, nil).
		Join(e.Query(TNation, []string{"n_nationkey", "n_name"}, nil).
			Filter(exec.Cmp(exec.EQ, c("n_name"), cs("GERMANY"))),
			[]string{"su_nationkey"}, []string{"n_nationkey"}).
		Filter(exec.InInts(c("su_suppkey"), keys(hit)...)).
		Sort(exec.SortKey{Col: "su_name"}).Run()
}

func keys(m map[int64]bool) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	if len(out) == 0 {
		out = append(out, -1) // IN () is false; keep the filter well-formed
	}
	return out
}

// Q21: suppliers whose deliveries were late, for one nation.
func Q21(e Queryer) []types.Row {
	return e.Query(TOrderLine, []string{"ol_o_key", "ol_supply_w_id", "ol_i_id", "ol_delivery_d"}, nil).
		Join(e.Query(TOrders, []string{"o_key", "o_entry_d"}, nil),
			[]string{"ol_o_key"}, []string{"o_key"}).
		Filter(exec.And(
			exec.Cmp(exec.GT, c("ol_delivery_d"), ci(0)),
			exec.Cmp(exec.GT, c("ol_delivery_d"), c("o_entry_d")),
		)).
		Project(
			ne("sl_key", exec.Arith(exec.Add,
				exec.Arith(exec.Mul, c("ol_supply_w_id"), ci(1_000_000)), c("ol_i_id"))),
		).
		Join(e.Query(TStock, []string{"s_key", "s_su_suppkey"}, nil),
			[]string{"sl_key"}, []string{"s_key"}).
		Join(e.Query(TSupplier, []string{"su_suppkey", "su_name", "su_nationkey"}, nil),
			[]string{"s_su_suppkey"}, []string{"su_suppkey"}).
		Join(e.Query(TNation, []string{"n_nationkey", "n_name"}, nil).
			Filter(exec.Cmp(exec.EQ, c("n_name"), cs("GERMANY"))),
			[]string{"su_nationkey"}, []string{"n_nationkey"}).
		Agg([]string{"su_name"}, exec.Agg{Kind: exec.Count, Name: "numwait"}).
		Sort(exec.SortKey{Col: "numwait", Desc: true}, exec.SortKey{Col: "su_name"}).
		Limit(100).Run()
}

// Q22: sales opportunities among never-ordering customers with
// above-average balances, by phone country code.
func Q22(e Queryer) []types.Row {
	avgRows := e.Query(TCustomer, []string{"c_balance"}, nil).
		Filter(exec.Cmp(exec.GT, c("c_balance"), cf(0))).
		Agg(nil, exec.Agg{Kind: exec.Avg, Expr: c("c_balance"), Name: "a"}).Run()
	avg := avgRows[0][0].Float()
	return e.Query(TCustomer, []string{"c_key", "c_balance", "c_phone"}, nil).
		Filter(exec.And(
			exec.Cmp(exec.GT, c("c_balance"), cf(avg)),
			exec.Or(
				exec.HasPrefix(c("c_phone"), "11"), exec.HasPrefix(c("c_phone"), "22"),
				exec.HasPrefix(c("c_phone"), "33"), exec.HasPrefix(c("c_phone"), "44"),
			),
		)).
		AntiJoin(e.Query(TOrders, []string{"o_c_key"}, nil), []string{"c_key"}, []string{"o_c_key"}).
		Project(
			ne("country", exec.Substr(c("c_phone"), 0, 2)),
			ne("c_balance", c("c_balance")),
		).
		Agg([]string{"country"},
			exec.Agg{Kind: exec.Count, Name: "numcust"},
			exec.Agg{Kind: exec.Sum, Expr: c("c_balance"), Name: "totacctbal"},
		).
		Sort(exec.SortKey{Col: "country"}).Run()
}
