package txn

import (
	"errors"
	"sync"
	"testing"

	"htap/internal/types"
)

func TestOracleMonotonic(t *testing.T) {
	var o Oracle
	prev := uint64(0)
	for i := 0; i < 100; i++ {
		ts := o.Next()
		if ts <= prev {
			t.Fatalf("timestamp %d not > %d", ts, prev)
		}
		prev = ts
	}
	o.Advance(50)
	o.Advance(30) // must not regress
	if o.Watermark() != 50 {
		t.Fatalf("watermark = %d, want 50", o.Watermark())
	}
}

func TestCommitAdvancesWatermark(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	if tx.ReadTS != 0 {
		t.Fatalf("first txn ReadTS = %d, want 0", tx.ReadTS)
	}
	tx.Write(1, 5, OpInsert, types.Row{types.NewInt(5)}, 0)
	ts, err := tx.Commit(func(commitTS uint64, w []Write) error { return nil })
	if err != nil || ts == 0 {
		t.Fatalf("Commit = (%d, %v)", ts, err)
	}
	if m.Oracle().Watermark() != ts {
		t.Fatalf("watermark = %d, want %d", m.Oracle().Watermark(), ts)
	}
	tx2 := m.Begin()
	if tx2.ReadTS != ts {
		t.Fatalf("next txn reads at %d, want %d", tx2.ReadTS, ts)
	}
}

func TestWriteWriteConflict(t *testing.T) {
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	if err := t1.Write(1, 7, OpUpdate, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write(1, 7, OpUpdate, nil, 0); !errors.Is(err, ErrConflict) {
		t.Fatalf("concurrent write = %v, want ErrConflict", err)
	}
	// Different key on same table is fine.
	if err := t2.Write(1, 8, OpUpdate, nil, 0); err != nil {
		t.Fatal(err)
	}
	t1.Abort()
	// After abort the lock is free.
	t3 := m.Begin()
	if err := t3.Write(1, 7, OpUpdate, nil, 0); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Conflicts != 1 {
		t.Fatalf("conflicts = %d, want 1", m.Stats().Conflicts)
	}
}

func TestFirstCommitterWins(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	// A later transaction commits key 7 at some TS > t1.ReadTS.
	t2 := m.Begin()
	t2.Write(1, 7, OpUpdate, nil, 0)
	commitTS, _ := t2.Commit(nil)
	// t1 now observes that the latest version is newer than its snapshot.
	if err := t1.Write(1, 7, OpUpdate, nil, commitTS); !errors.Is(err, ErrReadStale) {
		t.Fatalf("stale write = %v, want ErrReadStale", err)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	row := types.Row{types.NewInt(1)}
	tx.Write(3, 1, OpInsert, row, 0)
	w, ok := tx.GetWrite(3, 1)
	if !ok || w.Op != OpInsert || !w.Row[0].Equal(row[0]) {
		t.Fatalf("GetWrite = (%+v, %v)", w, ok)
	}
	if _, ok := tx.GetWrite(3, 2); ok {
		t.Fatal("GetWrite on unwritten key returned ok")
	}
}

func TestWriteCollapsing(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	tx.Write(1, 1, OpInsert, types.Row{types.NewInt(1)}, 0)
	tx.Write(1, 1, OpUpdate, types.Row{types.NewInt(2)}, 0)
	if n := tx.Pending(); n != 1 {
		t.Fatalf("pending = %d, want 1 (collapsed)", n)
	}
	w, _ := tx.GetWrite(1, 1)
	if w.Op != OpInsert || w.Row[0].Int() != 2 {
		t.Fatalf("collapsed write = %+v, want INSERT of new image", w)
	}
	tx.Write(1, 1, OpDelete, nil, 0)
	w, _ = tx.GetWrite(1, 1)
	if w.Op != OpDelete {
		t.Fatalf("after delete, op = %v", w.Op)
	}
}

func TestCommitApplyFailureAborts(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	tx.Write(1, 1, OpInsert, nil, 0)
	boom := errors.New("boom")
	if _, err := tx.Commit(func(uint64, []Write) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Commit = %v, want boom", err)
	}
	st := m.Stats()
	if st.Aborts != 1 || st.Commits != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Watermark must not advance past the failed commit.
	if m.Begin().ReadTS != 0 {
		t.Fatal("failed commit advanced the watermark")
	}
}

func TestFinishedTxnRejectsUse(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	tx.Commit(nil)
	if err := tx.Write(1, 1, OpInsert, nil, 0); !errors.Is(err, ErrFinished) {
		t.Fatalf("Write after commit = %v", err)
	}
	if _, err := tx.Commit(nil); !errors.Is(err, ErrFinished) {
		t.Fatalf("double commit = %v", err)
	}
	tx.Abort() // must be a no-op, not panic
	if m.Stats().Aborts != 0 {
		t.Fatal("Abort after Commit counted")
	}
}

func TestEmptyCommitNoTimestamp(t *testing.T) {
	m := NewManager()
	before := m.Oracle().Current()
	tx := m.Begin()
	if _, err := tx.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if m.Oracle().Current() != before {
		t.Fatal("read-only commit consumed a timestamp")
	}
}

func TestConcurrentDisjointCommits(t *testing.T) {
	m := NewManager()
	var applied sync.Map
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := m.Begin()
				key := int64(w*perWorker + i)
				if err := tx.Write(1, key, OpInsert, nil, 0); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if _, err := tx.Commit(func(ts uint64, ws []Write) error {
					if _, dup := applied.LoadOrStore(ts, true); dup {
						return errors.New("duplicate commit timestamp")
					}
					return nil
				}); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := m.Stats().Commits; got != workers*perWorker {
		t.Fatalf("commits = %d, want %d", got, workers*perWorker)
	}
}

// TestPinsAllocateNothing: once the pin set has grown, a transaction's pin
// and release allocate nothing, and the horizon is the oldest pin.
func TestPinsAllocateNothing(t *testing.T) {
	m := NewManager()
	commit := func() {
		tx := m.Begin()
		tx.Write(1, 1, OpUpdate, nil, 0)
		tx.Commit(nil)
	}
	old := m.Begin()
	commit()
	mid := m.Begin()
	commit()
	if h := m.Pins().Horizon(); h != old.ReadTS {
		t.Fatalf("horizon = %d, want the oldest pin %d", h, old.ReadTS)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		ts := m.Pins().Pin(m.Oracle().Watermark)
		m.Pins().Release(ts)
	}); allocs != 0 {
		t.Fatalf("pin and release allocate %.1f times", allocs)
	}
	old.Abort()
	if h := m.Pins().Horizon(); h != mid.ReadTS {
		t.Fatalf("horizon = %d, want %d once the oldest pin is released", h, mid.ReadTS)
	}
	mid.Abort()
	if h, w := m.Pins().Horizon(), m.Oracle().Watermark(); h != w || m.Pins().Held() != 0 {
		t.Fatalf("horizon = %d with %d pins held, want the watermark %d and none", h, m.Pins().Held(), w)
	}
}
