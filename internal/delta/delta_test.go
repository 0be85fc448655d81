package delta

import (
	"testing"
	"testing/quick"

	"htap/internal/disk"
	"htap/internal/txn"
	"htap/internal/types"
)

func w(key int64, op txn.Op, val int64) txn.Write {
	var row types.Row
	if op != txn.OpDelete {
		row = types.Row{types.NewInt(key), types.NewInt(val)}
	}
	return txn.Write{Table: 1, Key: key, Op: op, Row: row}
}

// stores returns both implementations for shared behavioural tests.
func stores() map[string]Store {
	return map[string]Store{
		"mem": NewMem(),
		"log": NewLog(disk.New(disk.MemConfig()), "delta"),
	}
}

func TestOverlayNetEffect(t *testing.T) {
	for name, s := range stores() {
		t.Run(name, func(t *testing.T) {
			s.Append(10, []txn.Write{w(1, txn.OpInsert, 100), w(2, txn.OpInsert, 200)})
			s.Append(11, []txn.Write{w(1, txn.OpUpdate, 101)})
			s.Append(12, []txn.Write{w(2, txn.OpDelete, 0)})

			o := s.Overlay(12)
			if len(o.Rows) != 1 || o.Rows[1][1].Int() != 101 {
				t.Fatalf("rows = %v", o.Rows)
			}
			if _, masked := o.Masked[2]; !masked {
				t.Fatal("deleted key must be masked")
			}
			if o.MaxTS != 12 {
				t.Fatalf("MaxTS = %d", o.MaxTS)
			}

			// Snapshot at 10 predates the update and delete.
			o = s.Overlay(10)
			if o.Rows[1][1].Int() != 100 || o.Rows[2][1].Int() != 200 {
				t.Fatalf("snapshot rows = %v", o.Rows)
			}
			// Snapshot at 0 sees nothing.
			if s.Overlay(0).Len() != 0 {
				t.Fatal("empty snapshot not empty")
			}
		})
	}
}

func TestPendingAndMarkMerged(t *testing.T) {
	for name, s := range stores() {
		t.Run(name, func(t *testing.T) {
			s.Append(1, []txn.Write{w(1, txn.OpInsert, 1)})
			s.Append(2, []txn.Write{w(2, txn.OpInsert, 2)})
			s.Append(3, []txn.Write{w(3, txn.OpInsert, 3)})
			if got := len(s.Pending(2)); got != 2 {
				t.Fatalf("pending(2) = %d", got)
			}
			if s.Unmerged() != 3 {
				t.Fatalf("unmerged = %d", s.Unmerged())
			}
			s.Publish(2, nil)
			if s.Unmerged() != 1 {
				t.Fatalf("unmerged after merge = %d", s.Unmerged())
			}
			p := s.Pending(100)
			if len(p) != 1 || p[0].Key != 3 {
				t.Fatalf("pending after merge = %v", p)
			}
			// Merged entries vanish from overlays too.
			if o := s.Overlay(100); o.Len() != 1 {
				t.Fatalf("overlay after merge = %v", o.Rows)
			}
			if s.Watermark() != 3 {
				t.Fatalf("watermark = %d", s.Watermark())
			}
		})
	}
}

func TestMemBytesShrinkAfterMerge(t *testing.T) {
	m := NewMem()
	for i := int64(0); i < 10; i++ {
		m.Append(uint64(i+1), []txn.Write{w(i, txn.OpInsert, i)})
	}
	full := m.Bytes()
	m.Publish(5, nil)
	if got := m.Bytes(); got >= full {
		t.Fatalf("bytes after merge = %d, want < %d", got, full)
	}
}

func TestLogDeltaChargesIO(t *testing.T) {
	dev := disk.New(disk.MemConfig())
	l := NewLog(dev, "d")
	l.Append(1, []txn.Write{w(1, txn.OpInsert, 1)})
	if dev.Stats().WriteOps == 0 {
		t.Fatal("append did not hit the device")
	}
	before := dev.Stats().ReadOps
	l.Overlay(1)
	if dev.Stats().ReadOps == before {
		t.Fatal("overlay did not read the device")
	}
}

func TestLogLookupViaBTree(t *testing.T) {
	dev := disk.New(disk.MemConfig())
	l := NewLog(dev, "d")
	l.Append(1, []txn.Write{w(7, txn.OpInsert, 70)})
	l.Append(2, []txn.Write{w(7, txn.OpUpdate, 71)})
	e, ok := l.Lookup(7)
	if !ok || e.CommitTS != 2 || e.Row[1].Int() != 71 {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
	if _, ok := l.Lookup(99); ok {
		t.Fatal("Lookup invented an entry")
	}
}

func TestLogBytesExcludePayload(t *testing.T) {
	dev := disk.New(disk.MemConfig())
	l := NewLog(dev, "d")
	m := NewMem()
	big := make([]txn.Write, 0, 100)
	for i := int64(0); i < 100; i++ {
		big = append(big, txn.Write{Table: 1, Key: i, Op: txn.OpInsert,
			Row: types.Row{types.NewInt(i), types.NewString(string(make([]byte, 200)))}})
	}
	l.Append(1, big)
	m.Append(1, big)
	if l.Bytes() >= m.Bytes() {
		t.Fatalf("log delta memory %d should be far below mem delta %d", l.Bytes(), m.Bytes())
	}
}

func TestEntryCodecRoundTrip(t *testing.T) {
	f := func(ts uint64, key int64, val int64, del bool) bool {
		e := Entry{CommitTS: ts, Write: txn.Write{Table: 1, Key: key, Op: txn.OpInsert,
			Row: types.Row{types.NewInt(key), types.NewInt(val)}}}
		if del {
			e = Entry{CommitTS: ts, Write: txn.Write{Table: 1, Key: key, Op: txn.OpDelete}}
		}
		// The entry's round trip through the device: Append encodes it,
		// Pending reads it back.
		l := NewLog(disk.New(disk.MemConfig()), "d")
		l.Append(e.CommitTS, []txn.Write{e.Write})
		got := l.Pending(ts)
		if len(got) != 1 {
			return false
		}
		if got[0].CommitTS != e.CommitTS || got[0].Key != e.Key || got[0].Op != e.Op {
			return false
		}
		if !del && got[0].Row[1].Int() != val {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: overlay equals a model computed from the same ops.
func TestQuickOverlayMatchesModel(t *testing.T) {
	f := func(ops []struct {
		Key uint8
		Val int16
		Del bool
	}) bool {
		m := NewMem()
		model := map[int64]int64{}
		for i, op := range ops {
			key := int64(op.Key % 8)
			ts := uint64(i + 1)
			if op.Del {
				m.Append(ts, []txn.Write{w(key, txn.OpDelete, 0)})
				delete(model, key)
			} else {
				m.Append(ts, []txn.Write{w(key, txn.OpUpdate, int64(op.Val))})
				model[key] = int64(op.Val)
			}
		}
		o := m.Overlay(uint64(len(ops) + 1))
		if len(o.Rows) != len(model) {
			return false
		}
		for k, v := range model {
			r, ok := o.Rows[k]
			if !ok || r[1].Int() != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
