package core_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"htap/internal/ch"
	"htap/internal/client"
	"htap/internal/core"
	"htap/internal/disk"
	"htap/internal/dist"
	"htap/internal/exec"
	"htap/internal/obs"
	"htap/internal/planner"
	"htap/internal/server"
	"htap/internal/types"
)

// querier is the one-scan surface every filter target shares.
type querier interface {
	Query(ctx context.Context, table string, cols []string, filter exec.Expr) *exec.Plan
}

// filterCost makes C's row path cheap enough that a key range (an index
// scan) and an unfiltered scan take it, while a pushable non-key filter
// still takes the columnar path, whose zone maps prune. C runs with
// selectivity feedback off, so each filter's path does not depend on the
// ones before it.
func filterCost() planner.CostParams {
	p := planner.DefaultCostParams()
	p.RowSeek, p.RowPerRow = 1, 0.01
	return p
}

// filterTargets are A–D, dist over two A shards and a remote client of a
// server on A, each loaded with the same small CH dataset. C has every
// order-line column in its IMCS, so its planner chooses between paths by
// the filter.
func filterTargets(t *testing.T) map[string]querier {
	t.Helper()
	scale := ch.SmallScale(2)
	scale.Customers, scale.Orders, scale.Items = 20, 30, 50
	load := func(e core.Engine) core.Engine {
		t.Cleanup(e.Close)
		if _, err := ch.NewGenerator(scale).Load(e); err != nil {
			t.Fatal(err)
		}
		if c, ok := e.(*core.EngineC); ok {
			var cols []string
			for _, col := range c.Schema(ch.TOrderLine).Cols {
				cols = append(cols, col.Name)
			}
			c.LoadColumns(ch.TOrderLine, cols)
		}
		e.Sync()
		return e
	}
	out := map[string]querier{
		"A": load(core.NewEngineA(core.ConfigA{Schemas: ch.Schemas()})),
		"B": load(core.NewEngineB(core.ConfigB{Schemas: ch.Schemas(), Partitions: 2, VotersPer: 3, LearnersPer: 1})),
		"C": load(core.NewEngineC(core.ConfigC{Schemas: ch.Schemas(), Shards: 2, Disk: disk.MemConfig(), Cost: filterCost(), SelFeedbackOff: true})),
		"D": load(core.NewEngineD(core.ConfigD{Schemas: ch.Schemas(), L1Rows: 4, L2Rows: 16})),
	}
	d, err := dist.New(2, core.NewEngineA(core.ConfigA{Schemas: ch.Schemas()}), core.NewEngineA(core.ConfigA{Schemas: ch.Schemas()}))
	if err != nil {
		t.Fatal(err)
	}
	out["dist"] = load(d)

	served := load(core.NewEngineA(core.ConfigA{Schemas: ch.Schemas()}))
	srv, err := server.Serve("127.0.0.1:0", server.Config{Engine: served, Reg: obs.NewRegistry()})
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
	out["remote"] = r
	return out
}

// digest is an order-insensitive digest of a result: the access path a
// filter steers to may return rows in another order.
func digest(rows []types.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = fmt.Sprint(r)
	}
	sort.Strings(lines)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(lines, "\n"))))
}

// TestQueryFilterEqualsPlanFilter checks on every engine surface that a
// filter handed to Query keeps exactly the rows a Filter on the unfiltered
// plan keeps, for each pushable conjunct shape and for one that cannot be
// pushed.
func TestQueryFilterEqualsPlanFilter(t *testing.T) {
	col := exec.ColName
	filters := []struct {
		name string
		f    exec.Expr
		cRow bool // C's planner takes the row path (else the columnar one)
	}{
		{"key range", exec.Between(col("ol_key"), ch.OrderLineKey(1, 1, 1, 0), ch.OrderLineKey(1, 2, 10, 15)), true},
		{"non-key range", exec.And(exec.Cmp(exec.GE, col("ol_amount"), exec.ConstFloat(20)), exec.Cmp(exec.LT, col("ol_amount"), exec.ConstFloat(60))), false},
		{"prefix", exec.HasPrefix(col("ol_dist_info"), "dist-1"), false},
		{"in set", exec.InInts(col("ol_number"), 1, 3, 5), false},
		{"or", exec.Or(exec.Cmp(exec.EQ, col("ol_number"), exec.ConstInt(2)), exec.Cmp(exec.GT, col("ol_amount"), exec.ConstFloat(90))), true},
	}
	cols := []string{"ol_key", "ol_w_id", "ol_number", "ol_amount", "ol_dist_info"}
	ctx := context.Background()
	for name, e := range filterTargets(t) {
		for _, fc := range filters {
			c, isC := e.(*core.EngineC)
			var fallbacks int64
			if isC {
				_, fallbacks = c.PushdownStats()
			}
			got, err := e.Query(ctx, ch.TOrderLine, cols, fc.f).RunCtx(ctx)
			if err != nil {
				t.Fatalf("%s/%s: Query with filter: %v", name, fc.name, err)
			}
			if isC {
				if _, after := c.PushdownStats(); (after == fallbacks+1) != fc.cRow {
					t.Errorf("C/%s: row path taken = %v, want %v", fc.name, after == fallbacks+1, fc.cRow)
				}
			}
			want, err := e.Query(ctx, ch.TOrderLine, cols, nil).Filter(fc.f).RunCtx(ctx)
			if err != nil {
				t.Fatalf("%s/%s: Query then Filter: %v", name, fc.name, err)
			}
			if len(want) == 0 {
				t.Fatalf("%s/%s: the filter keeps no row; the check would be vacuous", name, fc.name)
			}
			if digest(got) != digest(want) {
				t.Errorf("%s/%s: Query(f) returned %d rows, Query(nil).Filter(f) %d, digests differ", name, fc.name, len(got), len(want))
			}
		}
	}
}
