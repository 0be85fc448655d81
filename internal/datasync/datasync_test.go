package datasync

import (
	"testing"

	"htap/internal/colstore"
	"htap/internal/delta"
	"htap/internal/disk"
	"htap/internal/rowstore"
	"htap/internal/txn"
	"htap/internal/types"
)

var schema = types.NewSchema("t", 0,
	types.Column{Name: "id", Type: types.Int},
	types.Column{Name: "v", Type: types.Int},
)

func row(id, v int64) types.Row { return types.Row{types.NewInt(id), types.NewInt(v)} }

func wr(key int64, op txn.Op, v int64) txn.Write {
	var r types.Row
	if op != txn.OpDelete {
		r = row(key, v)
	}
	return txn.Write{Table: 1, Key: key, Op: op, Row: r}
}

func TestMergeDeltaNetEffect(t *testing.T) {
	for name, d := range map[string]delta.Store{
		"mem": delta.NewMem(),
		"log": delta.NewLog(disk.New(disk.MemConfig()), "d"),
	} {
		t.Run(name, func(t *testing.T) {
			tbl := colstore.NewTable(schema)
			tbl.AppendRows([]types.Row{row(1, 10), row(2, 20)})

			d.Append(5, []txn.Write{wr(1, txn.OpUpdate, 11), wr(3, txn.OpInsert, 30)})
			d.Append(6, []txn.Write{wr(2, txn.OpDelete, 0), wr(3, txn.OpUpdate, 31)})

			res := MergeDelta(tbl, d, 6)
			if res.Entries != 4 || res.Inserted != 2 || res.Deleted != 1 {
				t.Fatalf("result = %+v", res)
			}
			if tbl.Applied() != 6 {
				t.Fatalf("applied = %d", tbl.Applied())
			}
			if d.Unmerged() != 0 {
				t.Fatalf("unmerged = %d", d.Unmerged())
			}
			if got := tbl.LiveRows(); got != 2 {
				t.Fatalf("live rows = %d", got)
			}
			r, ok := tbl.GetKey(1)
			if !ok || r[1].Int() != 11 {
				t.Fatalf("key 1 = %v %v", r, ok)
			}
			if _, ok := tbl.GetKey(2); ok {
				t.Fatal("deleted key 2 still live")
			}
			r, ok = tbl.GetKey(3)
			if !ok || r[1].Int() != 31 {
				t.Fatalf("key 3 = %v %v (want newest image)", r, ok)
			}
		})
	}
}

func TestMergeDeltaPartialWatermark(t *testing.T) {
	tbl := colstore.NewTable(schema)
	d := delta.NewMem()
	d.Append(5, []txn.Write{wr(1, txn.OpInsert, 1)})
	d.Append(9, []txn.Write{wr(2, txn.OpInsert, 2)})
	res := MergeDelta(tbl, d, 6)
	if res.Entries != 1 || tbl.Applied() != 6 {
		t.Fatalf("res=%+v applied=%d", res, tbl.Applied())
	}
	if d.Unmerged() != 1 {
		t.Fatalf("unmerged = %d", d.Unmerged())
	}
}

func TestMergeDeltaEmptyAdvancesWatermark(t *testing.T) {
	tbl := colstore.NewTable(schema)
	d := delta.NewMem()
	MergeDelta(tbl, d, 42)
	if tbl.Applied() != 42 {
		t.Fatalf("applied = %d", tbl.Applied())
	}
}

func TestRebuild(t *testing.T) {
	rs := rowstore.New(1, schema)
	for i := int64(0); i < 100; i++ {
		rs.Load(row(i, i))
	}
	tbl := colstore.NewTable(schema)
	tbl.AppendRows([]types.Row{row(999, 999)}) // stale junk to be discarded
	d := delta.NewMem()
	d.Append(3, []txn.Write{wr(5, txn.OpUpdate, 50)})

	// Rebuild at a snapshot past the delta's watermark subsumes its entries.
	res := Rebuild(tbl, rs, d, 10)
	if res.Inserted != 100 {
		t.Fatalf("rebuilt %d rows", res.Inserted)
	}
	if _, ok := tbl.GetKey(999); ok {
		t.Fatal("stale row survived rebuild")
	}
	if d.Unmerged() != 0 {
		t.Fatal("rebuild must subsume delta entries")
	}
	if tbl.Stats().Rebuilds != 1 {
		t.Fatal("rebuild not counted")
	}
}

func TestLayeredPromotion(t *testing.T) {
	l := NewLayered(schema, 4, 100)
	l.Main.AppendRows([]types.Row{row(1, 10), row(2, 20)})

	// Three writes stay in L1 (threshold 4).
	l.Append(5, []txn.Write{wr(1, txn.OpUpdate, 11)})
	l.Append(6, []txn.Write{wr(3, txn.OpInsert, 30)})
	l.Append(7, []txn.Write{wr(2, txn.OpDelete, 0)})
	l.Maintain(7, nil)
	if l.L1.Unmerged() != 3 {
		t.Fatalf("L1 promoted early: %d", l.L1.Unmerged())
	}

	l.Append(8, []txn.Write{wr(4, txn.OpInsert, 40)})
	l.Maintain(8, nil)
	if l.L1.Unmerged() != 0 {
		t.Fatalf("L1 not drained: %d", l.L1.Unmerged())
	}
	// L2 now holds the images of 1, 3, 4; Main's key 1 and 2 are tombstoned.
	if l.L2.LiveRows() != 3 {
		t.Fatalf("L2 rows = %d", l.L2.LiveRows())
	}
	if l.Main.LiveRows() != 0 {
		t.Fatalf("Main live rows = %d (1 and 2 must be tombstoned)", l.Main.LiveRows())
	}
	if l.Applied() != 8 {
		t.Fatalf("applied = %d", l.Applied())
	}

	// Force the L2 -> Main dictionary merge.
	res := l.MergeL2()
	if res.Inserted != 3 {
		t.Fatalf("merged %d rows", res.Inserted)
	}
	if l.L2.LiveRows() != 0 || l.Main.LiveRows() != 3 {
		t.Fatalf("after merge: L2=%d Main=%d", l.L2.LiveRows(), l.Main.LiveRows())
	}
	r, ok := l.Main.GetKey(1)
	if !ok || r[1].Int() != 11 {
		t.Fatalf("Main key 1 = %v %v", r, ok)
	}
	if l.Applied() != 8 {
		t.Fatalf("applied after merge = %d", l.Applied())
	}
}

func TestLayeredDeleteInL2(t *testing.T) {
	l := NewLayered(schema, 1, 1000)
	l.Append(1, []txn.Write{wr(1, txn.OpInsert, 10)})
	l.PromoteL1(1)
	l.Append(2, []txn.Write{wr(1, txn.OpDelete, 0)})
	l.PromoteL1(2)
	if l.L2.LiveRows() != 0 {
		t.Fatalf("L2 rows = %d after delete", l.L2.LiveRows())
	}
}

func TestLayeredBytes(t *testing.T) {
	l := NewLayered(schema, 1000, 1000)
	if l.Bytes() != 0 {
		t.Fatal("empty layered store has bytes")
	}
	l.Append(1, []txn.Write{wr(1, txn.OpInsert, 10)})
	if l.Bytes() == 0 {
		t.Fatal("L1 bytes not counted")
	}
}

func TestMergeCostLogVsMem(t *testing.T) {
	// The log-based delta merge must cost device reads; the in-memory merge
	// must not. This is the Table 2 "High Merge Cost" cell.
	dev := disk.New(disk.MemConfig())
	logD := delta.NewLog(dev, "d")
	memD := delta.NewMem()
	for i := int64(0); i < 100; i++ {
		w := []txn.Write{wr(i, txn.OpInsert, i)}
		logD.Append(uint64(i+1), w)
		memD.Append(uint64(i+1), w)
	}
	t1 := colstore.NewTable(schema)
	t2 := colstore.NewTable(schema)
	before := dev.Stats().ReadOps
	MergeDelta(t1, logD, 1000)
	if dev.Stats().ReadOps == before {
		t.Fatal("log merge read no device data")
	}
	MergeDelta(t2, memD, 1000)
	if t1.LiveRows() != t2.LiveRows() {
		t.Fatal("merge results differ")
	}
}
