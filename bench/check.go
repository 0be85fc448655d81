package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"htap/internal/ch"
	"htap/internal/core"
	"htap/internal/types"
)

// scale is the dataset every workload loads: about 170 k rows of which
// 120 k are order lines, so scans rather than call overhead dominate the 22
// queries and rows outnumber clients by five orders of magnitude.
var scale = ch.Scale{Warehouses: 4, Districts: 10, Customers: 300, Orders: 300, Items: 2000, Suppliers: 100, Seed: 42}

// goldenJSON pins the 22 result sets on the freshly loaded dataset.
//
//go:embed golden/ch22.json
var goldenJSON []byte

type goldenEntry struct {
	Rows   int    `json:"rows"`
	Digest string `json:"digest"`
	// Empty explains a result that is legitimately empty at this scale.
	Empty string `json:"empty,omitempty"`
}

type goldenFile struct {
	Scale   ch.Scale               `json:"scale"`
	Queries map[string]goldenEntry `json:"queries"`
}

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench: golden/ch22.json: %w", err)
	}
	if g.Scale != scale {
		return nil, fmt.Errorf("bench: golden/ch22.json was made at scale %+v, the bench loads %+v", g.Scale, scale)
	}
	for q := 1; q <= 22; q++ {
		e, ok := g.Queries[fmt.Sprint(q)]
		if !ok {
			return nil, fmt.Errorf("bench: golden/ch22.json lacks Q%d", q)
		}
		if e.Rows == 0 && e.Empty == "" {
			return nil, fmt.Errorf("bench: golden Q%d is empty and does not say why", q)
		}
	}
	return &g, nil
}

// digest hashes a result set in row order, bit for bit.
func digest(rows []types.Row) string {
	h := sha256.New()
	var buf []byte
	for _, r := range rows {
		buf = types.AppendRow(buf[:0], r)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// check compares one query's result on the freshly loaded dataset with the
// pinned digest.
func (g *goldenFile) check(q int, rows []types.Row) error {
	want := g.Queries[fmt.Sprint(q)]
	if got := digest(rows); len(rows) != want.Rows || got != want.Digest {
		return fmt.Errorf("Q%d: got %d rows digest %s, golden has %d rows digest %s", q, len(rows), got, want.Rows, want.Digest)
	}
	return nil
}

// checkConsistency evaluates TPC-C consistency conditions 1 to 3 through
// transactional reads, and that the analytical side, after a Sync, counts
// exactly the orders the districts have handed out:
//
//  1. w_ytd = sum(d_ytd) per warehouse
//  2. d_next_o_id - 1 = max(o_id) per district
//  3. d_next_o_id - 1 = max(no_o_id) per district
//
// The bench has one TP client, which is quiet when this runs.
func checkConsistency(ctx context.Context, e core.Engine) error {
	var orders int64
	err := core.Exec(ctx, e, func(tx core.Tx) error {
		orders = 0
		for w := int64(1); w <= int64(scale.Warehouses); w++ {
			wrow, err := tx.Get(ch.TWarehouse, ch.WarehouseKey(w))
			if err != nil {
				return fmt.Errorf("warehouse %d: %w", w, err)
			}
			var ytd float64
			for d := int64(1); d <= int64(scale.Districts); d++ {
				drow, err := tx.Get(ch.TDistrict, ch.DistrictKey(w, d))
				if err != nil {
					return fmt.Errorf("district %d/%d: %w", w, d, err)
				}
				ytd += drow[5].Float()
				last := drow[6].Int() - 1
				orders += last
				for _, table := range []string{ch.TOrders, ch.TNewOrder} {
					if _, err := tx.Get(table, ch.OrderKey(w, d, last)); err != nil {
						return fmt.Errorf("district %d/%d: %s has no row for d_next_o_id-1 = %d: %w", w, d, table, last, err)
					}
					if _, err := tx.Get(table, ch.OrderKey(w, d, last+1)); !errors.Is(err, core.ErrNotFound) {
						return fmt.Errorf("district %d/%d: %s has a row beyond d_next_o_id-1 = %d (err %v)", w, d, table, last, err)
					}
				}
			}
			if got := wrow[5].Float(); got != ytd {
				return fmt.Errorf("warehouse %d: w_ytd %v != sum(d_ytd) %v", w, got, ytd)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("consistency: %w", err)
	}
	e.Sync()
	n, err := e.Query(ctx, ch.TOrders, []string{"o_key"}, nil).CountCtx(ctx)
	if err != nil {
		return fmt.Errorf("consistency: counting orders: %w", err)
	}
	if int64(n) != orders {
		return fmt.Errorf("consistency: the column store counts %d orders, the districts handed out %d", n, orders)
	}
	return nil
}

// writeGolden loads the dataset into architecture A, runs the 22 queries
// on it and rewrites bench/golden/ch22.json under the current directory.
func writeGolden(ctx context.Context) error {
	e := newEngineA(nil, 0, -1, false)
	defer e.Close()
	if _, err := ch.NewGenerator(scale).Load(e); err != nil {
		return err
	}
	e.Sync()
	g := goldenFile{Scale: scale, Queries: map[string]goldenEntry{}}
	for q := 1; q <= 22; q++ {
		rows, err := ch.RunQuery(ctx, e, q)
		if err != nil {
			return err
		}
		ge := goldenEntry{Rows: len(rows), Digest: digest(rows)}
		if len(rows) == 0 {
			ge.Empty = emptyWhy[q]
		}
		g.Queries[fmt.Sprint(q)] = ge
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("bench/golden/ch22.json", append(b, '\n'), 0o644)
}

// emptyWhy records why a query returns no rows on the freshly loaded
// dataset, whatever its scale. Both fill up once New-Order and Delivery
// have run, so the measured sweeps, which follow the warm-up, see rows.
var emptyWhy = map[int]string{
	11: "stock loads with s_order_cnt 0, so no item's order count exceeds the threshold, itself 0, until New-Order runs",
	22: "every customer loads with balance -10 and, Orders being equal to Customers, one initial order: none has an above-average positive balance and no orders",
}
