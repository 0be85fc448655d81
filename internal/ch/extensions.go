package ch

// This file implements the benchmark extensions the paper's §2.4 calls
// for under "HTAP Benchmark Suite":
//
//  1. "HTAP benchmarks with TPC-H should incorporate the join-crossing
//     correlation with skew" (JCC-H): Scale.Skew drives a Zipf-skewed item
//     popularity in order lines and a warehouse↔nation correlation for
//     customers, so joins cross correlated, skewed columns instead of the
//     uniform independent data TPC-H generates.
//  2. "Gartner has defined HTAP transaction could contain analytical
//     operations … e.g., insert analytical operations to TPC-C": the
//     AnalyticalNewOrder transaction embeds a popularity-check aggregate
//     over the live order-line data inside the New-Order flow.

import (
	"context"
	"math/rand"

	"htap/internal/core"
	"htap/internal/exec"
	"htap/internal/types"
)

// SkewedScale returns scale with JCC-H-style skew enabled: s controls the
// Zipf exponent of item popularity (1 < s, larger = more skewed).
func SkewedScale(base Scale, s float64) Scale {
	base.Skew = s
	return base
}

// zipfFor builds a Zipf sampler over [1, items].
func zipfFor(rng *rand.Rand, s float64, items int) *rand.Zipf {
	if s <= 1 {
		s = 1.1
	}
	return rand.NewZipf(rng, s, 1, uint64(items-1))
}

// pickItem draws an item id, Zipf-skewed when Scale.Skew is set.
func (d *Driver) pickItem(rng *rand.Rand) int64 {
	if d.Scale.Skew <= 0 {
		return int64(1 + rng.Intn(d.Scale.Items))
	}
	d.zipfMu.Lock()
	if d.zipf == nil {
		d.zipf = zipfFor(rng, d.Scale.Skew, d.Scale.Items)
	}
	v := d.zipf.Uint64()
	d.zipfMu.Unlock()
	return int64(v + 1)
}

// AnalyticalNewOrder is the New-Order transaction enriched with an
// in-transaction analytical operation: before pricing the lines, it
// aggregates the recent sales volume of the ordered items over the
// engine's analytical view and applies a popularity surcharge. This is the
// "In-Process HTAP" transaction shape of §2.4 — OLTP and OLAP woven into
// one business task.
func (d *Driver) AnalyticalNewOrder(ctx context.Context, rng *rand.Rand) error {
	w, dist := d.pickWD(rng)
	c := d.pickCustomer(rng)
	olCnt := int64(5 + rng.Intn(11))
	items := make([]int64, olCnt)
	qtys := make([]int64, olCnt)
	for i := range items {
		items[i] = d.pickItem(rng)
		qtys[i] = int64(1 + rng.Intn(10))
	}

	// Analytical operation: per-item units sold, from the columnar view.
	popularity := make(map[int64]int64, len(items))
	snap := d.E.Snapshot(ctx)
	rows := snap.Query(TOrderLine, []string{"ol_i_id", "ol_quantity"}, nil).
		Filter(exec.InInts(exec.ColName("ol_i_id"), items...)).
		Agg([]string{"ol_i_id"},
			exec.Agg{Kind: exec.Sum, Expr: exec.ColName("ol_quantity"), Name: "sold"}).
		Run()
	snap.Close()
	for _, r := range rows {
		popularity[r[0].Int()] = r[1].Int()
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
			price := irow[4].Float()
			// Popular items carry a demand surcharge — the analytical
			// result feeds the transactional decision.
			if popularity[item] > 100 {
				price *= 1.05
			}
			if err := tx.Insert(TOrderLine, types.Row{
				types.NewInt(OrderLineKey(w, dist, oID, l)), types.NewInt(oKey),
				types.NewInt(w), types.NewInt(dist), types.NewInt(oID), types.NewInt(l),
				types.NewInt(item), types.NewInt(w), types.NewInt(0),
				types.NewInt(qtys[l-1]), types.NewFloat(float64(qtys[l-1]) * price),
				types.NewString("dist-info"),
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.lastOrder[CustomerKey(w, dist, c)] = oKey
	d.undelivered[DistrictKey(w, dist)] = append(d.undelivered[DistrictKey(w, dist)], oKey)
	d.mu.Unlock()
	return nil
}
