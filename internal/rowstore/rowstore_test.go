package rowstore

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"htap/internal/disk"
	"htap/internal/txn"
	"htap/internal/types"
)

var testSchema = types.NewSchema("acct", 0,
	types.Column{Name: "id", Type: types.Int},
	types.Column{Name: "bal", Type: types.Int},
)

func acct(id, bal int64) types.Row {
	return types.Row{types.NewInt(id), types.NewInt(bal)}
}

// commitVia installs the transaction's writes into the store.
func commitVia(t *testing.T, tx *txn.Txn, s *Store) uint64 {
	t.Helper()
	ts, err := tx.Commit(func(commitTS uint64, w []txn.Write) error {
		s.Apply(commitTS, w)
		return nil
	})
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	return ts
}

func TestInsertGetUpdateDelete(t *testing.T) {
	m := txn.NewManager()
	s := New(1, testSchema)

	tx := m.Begin()
	if err := s.Insert(tx, acct(1, 100)); err != nil {
		t.Fatal(err)
	}
	// Read-your-own-write before commit.
	if r, err := s.Get(tx, 1); err != nil || r[1].Int() != 100 {
		t.Fatalf("own write: %v %v", r, err)
	}
	commitVia(t, tx, s)

	tx = m.Begin()
	r, err := s.Get(tx, 1)
	if err != nil || r[1].Int() != 100 {
		t.Fatalf("Get after commit: %v %v", r, err)
	}
	if err := s.Update(tx, acct(1, 150)); err != nil {
		t.Fatal(err)
	}
	commitVia(t, tx, s)

	tx = m.Begin()
	if r, _ := s.Get(tx, 1); r[1].Int() != 150 {
		t.Fatalf("after update: %v", r)
	}
	if err := s.Delete(tx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(tx, 1); !errors.Is(err, ErrNotFound) {
		t.Fatal("delete not visible to own txn")
	}
	commitVia(t, tx, s)

	tx = m.Begin()
	if _, err := s.Get(tx, 1); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted row still visible")
	}
}

func TestSnapshotIsolationReaders(t *testing.T) {
	m := txn.NewManager()
	s := New(1, testSchema)

	tw := m.Begin()
	s.Insert(tw, acct(1, 100))
	commitVia(t, tw, s)

	reader := m.Begin() // snapshot before the update below
	tw = m.Begin()
	s.Update(tw, acct(1, 999))
	commitVia(t, tw, s)

	if r, _ := s.Get(reader, 1); r[1].Int() != 100 {
		t.Fatalf("reader sees %v, want the pre-update snapshot", r)
	}
	if r, _ := s.Get(m.Begin(), 1); r[1].Int() != 999 {
		t.Fatalf("new reader sees %v, want 999", r)
	}
}

func TestDuplicateInsert(t *testing.T) {
	m := txn.NewManager()
	s := New(1, testSchema)
	tx := m.Begin()
	s.Insert(tx, acct(1, 1))
	if err := s.Insert(tx, acct(1, 2)); !errors.Is(err, txn.ErrDuplicate) {
		t.Fatalf("same-txn duplicate: %v", err)
	}
	commitVia(t, tx, s)
	tx = m.Begin()
	if err := s.Insert(tx, acct(1, 3)); !errors.Is(err, txn.ErrDuplicate) {
		t.Fatalf("cross-txn duplicate: %v", err)
	}
	tx.Abort()
	// Delete-then-insert within one txn is legal.
	tx = m.Begin()
	if err := s.Delete(tx, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(tx, acct(1, 4)); err != nil {
		t.Fatalf("insert after delete: %v", err)
	}
	commitVia(t, tx, s)
	if r, _ := s.Get(m.Begin(), 1); r[1].Int() != 4 {
		t.Fatalf("got %v", r)
	}
}

func TestUpdateMissingAndDeleteMissing(t *testing.T) {
	m := txn.NewManager()
	s := New(1, testSchema)
	tx := m.Begin()
	if err := s.Update(tx, acct(9, 1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing: %v", err)
	}
	if err := s.Delete(tx, 9); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
}

func TestLostUpdatePrevented(t *testing.T) {
	m := txn.NewManager()
	s := New(1, testSchema)
	tx := m.Begin()
	s.Insert(tx, acct(1, 100))
	commitVia(t, tx, s)

	t1 := m.Begin()
	t2 := m.Begin()
	if err := s.Update(t2, acct(1, 200)); err != nil {
		t.Fatal(err)
	}
	commitVia(t, t2, s)
	// t1's snapshot predates t2's commit; its update must fail.
	err := s.Update(t1, acct(1, 300))
	if !errors.Is(err, txn.ErrReadStale) && !errors.Is(err, txn.ErrConflict) {
		t.Fatalf("lost update allowed: %v", err)
	}
}

func TestScanSnapshotAndOrder(t *testing.T) {
	m := txn.NewManager()
	s := New(1, testSchema)
	for i := int64(5); i >= 1; i-- {
		tx := m.Begin()
		s.Insert(tx, acct(i, i*10))
		commitVia(t, tx, s)
	}
	snap := m.Oracle().Watermark()
	tx := m.Begin()
	s.Delete(tx, 3)
	commitVia(t, tx, s)

	var keys []int64
	s.Scan(snap, func(k int64, r types.Row) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 5 {
		t.Fatalf("snapshot scan saw %v", keys)
	}
	keys = keys[:0]
	s.Scan(m.Oracle().Watermark(), func(k int64, r types.Row) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 4 {
		t.Fatalf("current scan saw %v", keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("scan out of order: %v", keys)
		}
	}
	if s.Count(snap) != 5 || s.Count(m.Oracle().Watermark()) != 4 {
		t.Fatal("Count mismatch")
	}
}

func TestScanRange(t *testing.T) {
	m := txn.NewManager()
	s := New(1, testSchema)
	for i := int64(0); i < 10; i++ {
		s.Load(acct(i, i))
	}
	n := 0
	s.ScanRange(m.Oracle().Watermark(), 3, 6, func(k int64, r types.Row) bool { n++; return true })
	if n != 4 {
		t.Fatalf("range scan saw %d rows, want 4", n)
	}
}

func TestLoadVisibleEverywhere(t *testing.T) {
	m := txn.NewManager()
	s := New(1, testSchema)
	s.Load(acct(1, 7))
	if r, err := s.GetAt(0, 1); err != nil || r[1].Int() != 7 {
		t.Fatalf("loaded row not visible at ts 0: %v %v", r, err)
	}
	_ = m
}

// TestPruneAtCommit: with nothing else pinned, a commit keeps of the key's
// versions the new head and the image it replaced (a transaction that
// begins while the commit installs still reads that one), so 20 updates
// leave two versions, not 21. A transaction that began before the updates
// holds every version since its snapshot, and still reads its own image.
func TestPruneAtCommit(t *testing.T) {
	m := txn.NewManager()
	s := New(1, testSchema)
	s.SetPins(m.Pins())
	tx := m.Begin()
	s.Insert(tx, acct(1, 0))
	commitVia(t, tx, s)
	old := m.Begin()
	for i := 1; i <= 20; i++ {
		tx := m.Begin()
		s.Update(tx, acct(1, int64(i)))
		commitVia(t, tx, s)
	}
	if got := s.Versions(); got != 21 {
		t.Fatalf("with a reader pinned before the updates: %d versions, want 21", got)
	}
	if r, err := s.Get(old, 1); err != nil || r[1].Int() != 0 {
		t.Fatalf("pinned reader read %v, %v; want its own image (bal 0)", r, err)
	}
	old.Abort()
	for i := 21; i <= 40; i++ {
		tx := m.Begin()
		s.Update(tx, acct(1, int64(i)))
		commitVia(t, tx, s)
	}
	if got := s.Versions(); got != 2 {
		t.Fatalf("with nothing pinned: %d versions, want 2", got)
	}
	if r, err := s.GetAt(m.Oracle().Watermark(), 1); err != nil || r[1].Int() != 40 {
		t.Fatalf("latest image %v, %v; want bal 40", r, err)
	}
}

// TestPruneDifferential runs a seeded mix of inserts, updates, deletes,
// pins and releases against a pruning store and a store that keeps every
// version. At every step every read at every pinned timestamp, and at the
// watermark, must agree.
func TestPruneDifferential(t *testing.T) {
	const steps, keys = 20000, 16
	m := txn.NewManager()
	pruned, full := New(1, testSchema), New(1, testSchema)
	pruned.SetPins(m.Pins())
	rng := rand.New(rand.NewSource(7))
	var readers []*txn.Txn
	var pins []uint64 // bare pins, as a snapshot holds them
	apply := func(ts uint64, ws []txn.Write) error {
		pruned.Apply(ts, ws)
		full.Apply(ts, ws)
		return nil
	}
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 6 && len(readers) < 6:
			readers = append(readers, m.Begin())
		case r < 9 && len(pins) < 4:
			pins = append(pins, m.Pins().Pin(m.Oracle().Watermark))
		case r >= 9 && r < 15 && len(readers) > 0:
			i := rng.Intn(len(readers))
			readers[i].Abort()
			readers = append(readers[:i], readers[i+1:]...)
		case r >= 15 && r < 18 && len(pins) > 0:
			i := rng.Intn(len(pins))
			m.Pins().Release(pins[i])
			pins = append(pins[:i], pins[i+1:]...)
		default:
			tx := m.Begin()
			for n := 1 + rng.Intn(3); n > 0; n-- {
				k := int64(rng.Intn(keys))
				switch rng.Intn(3) {
				case 0:
					full.Insert(tx, acct(k, int64(step)))
				case 1:
					full.Update(tx, acct(k, int64(step)))
				default:
					full.Delete(tx, k)
				}
			}
			if _, err := tx.Commit(apply); err != nil {
				t.Fatal(err)
			}
		}
		at := append([]uint64{m.Oracle().Watermark()}, pins...)
		for _, r := range readers {
			at = append(at, r.ReadTS)
		}
		for _, ts := range at {
			for k := int64(0); k < keys; k++ {
				want, werr := full.GetAt(ts, k)
				got, gerr := pruned.GetAt(ts, k)
				// Both stores hold the very row a write carried.
				if werr != gerr || len(got) != len(want) || len(got) > 0 && &got[0] != &want[0] {
					t.Fatalf("step %d: key %d at ts %d: pruned store read %v, %v; full store %v, %v",
						step, k, ts, got, gerr, want, werr)
				}
			}
		}
	}
	if pruned.Versions() >= full.Versions() {
		t.Fatalf("pruned store holds %d versions, full store %d: nothing was pruned", pruned.Versions(), full.Versions())
	}
}

func TestDiskBackedCharges(t *testing.T) {
	dev := disk.New(disk.MemConfig())
	m := txn.NewManager()
	s := NewDiskBacked(1, testSchema, dev)
	tx := m.Begin()
	s.Insert(tx, acct(1, 1))
	commitVia(t, tx, s)
	if dev.Stats().WriteOps == 0 {
		t.Fatal("disk-backed apply did not charge writes")
	}
	s.GetAt(m.Oracle().Watermark(), 1)
	if dev.Stats().ReadOps == 0 {
		t.Fatal("disk-backed read did not charge")
	}
}

func TestConcurrentTransfers(t *testing.T) {
	// Classic bank transfer: total balance is invariant under concurrent,
	// conflicting transactions with retries.
	m := txn.NewManager()
	s := New(1, testSchema)
	const accounts = 20
	for i := int64(0); i < accounts; i++ {
		s.Load(acct(i, 100))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				from, to := rng.Int63n(accounts), rng.Int63n(accounts)
				if from == to {
					continue
				}
				for attempt := 0; attempt < 20; attempt++ {
					tx := m.Begin()
					fr, err1 := s.Get(tx, from)
					tr, err2 := s.Get(tx, to)
					if err1 != nil || err2 != nil {
						tx.Abort()
						continue
					}
					if s.Update(tx, acct(from, fr[1].Int()-1)) != nil ||
						s.Update(tx, acct(to, tr[1].Int()+1)) != nil {
						tx.Abort()
						continue
					}
					if _, err := tx.Commit(func(ts uint64, ws []txn.Write) error {
						s.Apply(ts, ws)
						return nil
					}); err == nil {
						break
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	total := int64(0)
	s.Scan(m.Oracle().Watermark(), func(k int64, r types.Row) bool {
		total += r[1].Int()
		return true
	})
	if total != accounts*100 {
		t.Fatalf("total balance %d, want %d", total, accounts*100)
	}
}

// Property: after any sequence of committed single-row ops, GetAt(now)
// matches a map-based model.
func TestQuickMatchesModel(t *testing.T) {
	f := func(ops []struct {
		Key uint8
		Val int16
		Del bool
	}) bool {
		m := txn.NewManager()
		s := New(1, testSchema)
		model := map[int64]int64{}
		for _, op := range ops {
			key := int64(op.Key % 16)
			tx := m.Begin()
			var err error
			if op.Del {
				err = s.Delete(tx, key)
				if err == nil {
					delete(model, key)
				}
			} else if _, exists := model[key]; exists {
				err = s.Update(tx, acct(key, int64(op.Val)))
				if err == nil {
					model[key] = int64(op.Val)
				}
			} else {
				err = s.Insert(tx, acct(key, int64(op.Val)))
				if err == nil {
					model[key] = int64(op.Val)
				}
			}
			if err != nil {
				tx.Abort()
				continue
			}
			tx.Commit(func(ts uint64, w []txn.Write) error { s.Apply(ts, w); return nil })
		}
		now := m.Oracle().Watermark()
		if s.Count(now) != len(model) {
			return false
		}
		for k, v := range model {
			r, err := s.GetAt(now, k)
			if err != nil || r[1].Int() != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
