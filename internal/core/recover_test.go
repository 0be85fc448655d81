package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"

	"htap/internal/disk"
	"htap/internal/exec"
	"htap/internal/types"
)

// walArch is one of the three WAL engines as the recovery and fault tests
// drive it: A, C and D share commit, replayTxn and recover, so every such
// test runs over all three.
type walArch struct {
	name    string
	build   func() Engine
	recover func(dev *disk.Device) (Engine, error)
}

func walArchs() []walArch {
	cfgA := ConfigA{Schemas: testSchemas()}
	cfgC := ConfigC{Schemas: testSchemas(), Shards: 2, Disk: disk.MemConfig()}
	cfgD := ConfigD{Schemas: testSchemas(), L1Rows: 4, L2Rows: 16}
	return []walArch{
		{"A", func() Engine { return NewEngineA(cfgA) },
			func(dev *disk.Device) (Engine, error) { return RecoverEngineA(cfgA, dev) }},
		{"C", func() Engine { return NewEngineC(cfgC) },
			func(dev *disk.Device) (Engine, error) { return RecoverEngineC(cfgC, dev) }},
		{"D", func() Engine { return NewEngineD(cfgD) },
			func(dev *disk.Device) (Engine, error) { return RecoverEngineD(cfgD, dev) }},
	}
}

func forWALArchs(t *testing.T, fn func(t *testing.T, a walArch)) {
	for _, a := range walArchs() {
		a := a
		t.Run(a.name, func(t *testing.T) { fn(t, a) })
	}
}

// walOf reaches the skeleton every WAL engine embeds.
func walOf(e Engine) *walEngine {
	switch e := e.(type) {
	case *EngineA:
		return &e.walEngine
	case *EngineC:
		return &e.walEngine
	case *EngineD:
		return &e.walEngine
	}
	panic("not a WAL engine")
}

func mustExec(t *testing.T, e Engine, fn func(tx Tx) error) {
	t.Helper()
	if err := Exec(context.Background(), e, fn); err != nil {
		t.Fatal(err)
	}
}

// crash closes e — its in-memory state is gone — and recovers a new engine
// from the WAL device, which survives.
func crash(t *testing.T, a walArch, e Engine) Engine {
	t.Helper()
	dev := walOf(e).WALDevice()
	e.Close()
	r, err := a.recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRecoverReplaysCommitted(t *testing.T) {
	forWALArchs(t, func(t *testing.T, a walArch) {
		e := a.build()
		for i := int64(0); i < 10; i++ {
			i := i
			mustExec(t, e, func(tx Tx) error { return tx.Insert("acct", acct(i, 0, float64(i))) })
		}
		mustExec(t, e, func(tx Tx) error { return tx.Update("acct", acct(3, 0, 333)) })
		mustExec(t, e, func(tx Tx) error { return tx.Delete("acct", 4) })

		r := crash(t, a, e)
		defer r.Close()
		tx := r.Begin(context.Background())
		defer tx.Abort()
		if row, err := tx.Get("acct", 3); err != nil || row[2].Float() != 333 {
			t.Fatalf("recovered key 3 = %v, %v", row, err)
		}
		if _, err := tx.Get("acct", 4); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key survived recovery: %v", err)
		}
		if got := r.Query(context.Background(), "acct", nil, nil).Count(); got != 9 {
			t.Fatalf("recovered rows = %d, want 9", got)
		}
		if c, ok := r.(*EngineC); ok {
			// The IMCS restarts cold; reloading columns serves the recovered
			// data through the columnar path too.
			c.LoadColumns("acct", []string{"id", "bal"})
			if got := c.ColSource(context.Background(), "acct", []string{"id"}, nil).Count(); got != 9 {
				t.Fatalf("recovered IMCS rows = %d, want 9", got)
			}
		}
		// The recovered engine accepts new transactions and they durably
		// append after the history.
		mustExec(t, r, func(tx Tx) error { return tx.Insert("acct", acct(100, 0, 1)) })
		if got := r.Query(context.Background(), "acct", nil, nil).Count(); got != 10 {
			t.Fatalf("post-recovery insert invisible: %d", got)
		}
	})
}

func TestRecoverLosesUncommittedTail(t *testing.T) {
	forWALArchs(t, func(t *testing.T, a walArch) {
		e := a.build()
		mustExec(t, e, func(tx Tx) error { return tx.Insert("acct", acct(1, 0, 1)) })
		// A transaction that buffers writes and never commits: its records
		// never flush (group commit), so recovery must not see key 2.
		tx := e.Begin(context.Background())
		if err := tx.Insert("acct", acct(2, 0, 2)); err != nil {
			t.Fatal(err)
		}

		r := crash(t, a, e) // crash before commit
		defer r.Close()
		rtx := r.Begin(context.Background())
		defer rtx.Abort()
		if _, err := rtx.Get("acct", 1); err != nil {
			t.Fatalf("committed key lost: %v", err)
		}
		if _, err := rtx.Get("acct", 2); !errors.Is(err, ErrNotFound) {
			t.Fatal("uncommitted key survived the crash")
		}
	})
}

func TestRecoverPreservesCommitOrder(t *testing.T) {
	forWALArchs(t, func(t *testing.T, a walArch) {
		e := a.build()
		// Two updates to the same key; the later one must win after recovery.
		mustExec(t, e, func(tx Tx) error { return tx.Insert("acct", acct(7, 0, 1)) })
		mustExec(t, e, func(tx Tx) error { return tx.Update("acct", acct(7, 0, 2)) })
		mustExec(t, e, func(tx Tx) error { return tx.Update("acct", acct(7, 0, 3)) })

		r := crash(t, a, e)
		defer r.Close()
		rows := r.Query(context.Background(), "acct", nil, nil).
			Filter(exec.Cmp(exec.EQ, exec.ColName("id"), exec.ConstInt(7))).Run()
		if len(rows) != 1 || rows[0][2].Float() != 3 {
			t.Fatalf("recovered image = %v, want final balance 3", rows)
		}
	})
}

func TestRecoverySurvivesSecondCrash(t *testing.T) {
	// LSN assignment must resume past the replayed history: if a recovered
	// engine restarted LSNs at 1, a second crash-recovery cycle would still
	// work record-wise, but the log's numbering would lie. Verify both the
	// data and the LSN continuity across two cycles.
	forWALArchs(t, func(t *testing.T, a walArch) {
		e := a.build()
		for i := int64(0); i < 5; i++ {
			i := i
			mustExec(t, e, func(tx Tx) error { return tx.Insert("acct", acct(i, 0, 1)) })
		}
		firstLSN := walOf(e).wal.Stats().NextLSN

		r1 := crash(t, a, e)
		if got := walOf(r1).wal.Stats().NextLSN; got != firstLSN {
			t.Fatalf("recovered NextLSN = %d, want %d (resume, not reset)", got, firstLSN)
		}
		for i := int64(5); i < 10; i++ {
			i := i
			mustExec(t, r1, func(tx Tx) error { return tx.Insert("acct", acct(i, 0, 1)) })
		}

		r2 := crash(t, a, r1)
		defer r2.Close()
		if got := r2.Query(context.Background(), "acct", nil, nil).Count(); got != 10 {
			t.Fatalf("after two cycles rows = %d, want 10", got)
		}
	})
}

func TestWALFaultAbortsTransactionCleanly(t *testing.T) {
	forWALArchs(t, func(t *testing.T, a walArch) {
		e := a.build()
		defer e.Close()
		mustExec(t, e, func(tx Tx) error { return tx.Insert("acct", acct(1, 0, 1)) })
		dev := walOf(e).WALDevice()
		dev.SetFaultPlan(&disk.FaultPlan{Seed: 5, Rules: []disk.FaultRule{{WriteErrRate: 1.0}}})
		tx := e.Begin(context.Background())
		if err := tx.Insert("acct", acct(2, 0, 2)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err == nil {
			t.Fatal("commit with failing WAL succeeded")
		}
		dev.SetFaultPlan(nil)
		// The aborted write must not be visible anywhere: not to point
		// reads, not to analytical scans, and not after a sync.
		rtx := e.Begin(context.Background())
		if _, err := rtx.Get("acct", 2); !errors.Is(err, ErrNotFound) {
			t.Fatalf("aborted write visible to point read: %v", err)
		}
		rtx.Abort()
		e.Sync()
		if got := e.Query(context.Background(), "acct", nil, nil).Count(); got != 1 {
			t.Fatalf("aborted write visible to scan: %d rows", got)
		}
	})
}

// TestWALBytesPinned pins the redo log's byte layout: seeded disk.FaultPlans
// tear the log at a fixed record boundary, so the bytes a fixed transaction
// stream produces may not move. The digest was taken at the commit before
// the four commit paths became one; A, C and D write the same bytes.
func TestWALBytesPinned(t *testing.T) {
	const want = "c136ee26d884b43c01517ca81fe8e63ee9a212b4db185d6510f051e177f57d5c"
	note := func(id int64, s string) types.Row { return types.Row{types.NewInt(id), types.NewString(s)} }
	forWALArchs(t, func(t *testing.T, a walArch) {
		e := a.build()
		defer e.Close()
		for i := int64(0); i < 6; i++ {
			i := i
			mustExec(t, e, func(tx Tx) error {
				// Table ids interleave (log, acct, log, acct): the records must
				// still come out acct-first, each table in write order.
				if err := tx.Insert("log", note(2*i, "first")); err != nil {
					return err
				}
				if err := tx.Insert("acct", acct(2*i, i%3, float64(i))); err != nil {
					return err
				}
				if err := tx.Insert("log", note(2*i+1, "second")); err != nil {
					return err
				}
				return tx.Insert("acct", acct(2*i+1, i%3, 0.5))
			})
		}
		mustExec(t, e, func(tx Tx) error {
			if err := tx.Delete("log", 3); err != nil {
				return err
			}
			if err := tx.Update("acct", acct(4, 9, 44)); err != nil {
				return err
			}
			return tx.Update("log", note(0, "rewritten"))
		})
		mustExec(t, e, func(tx Tx) error { _, err := tx.Get("acct", 1); return err }) // read-only: logs nothing
		mustExec(t, e, func(tx Tx) error { return tx.Delete("acct", 5) })

		w := walOf(e)
		buf := make([]byte, w.walDev.Size(w.walName()))
		if err := w.walDev.ReadAt(w.walName(), buf, 0); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Fatalf("WAL digest = %s (%d bytes), want %s", got, len(buf), want)
		}
	})
}

// TestPruneEngineVersions: on an engine, a commit prunes the key's chain
// behind the oldest open transaction. One that began before 20 updates
// keeps every version since its snapshot and still reads its own image;
// once it ends, further updates leave the head and the image it replaced.
func TestPruneEngineVersions(t *testing.T) {
	e := NewEngineA(ConfigA{Schemas: testSchemas()})
	defer e.Close()
	ctx := context.Background()
	mustExec(t, e, func(tx Tx) error { return tx.Insert("acct", acct(1, 0, 0)) })
	update := func(from, to int) {
		for i := from; i <= to; i++ {
			mustExec(t, e, func(tx Tx) error { return tx.Update("acct", acct(1, 0, float64(i))) })
		}
	}
	old := e.Begin(ctx)
	update(1, 20)
	if got := e.rowVersions(); got != 21 {
		t.Fatalf("with a transaction open since before the updates: %d versions, want 21", got)
	}
	if r, err := old.Get("acct", 1); err != nil || r[2].Float() != 0 {
		t.Fatalf("open transaction read %v, %v; want its own image (bal 0)", r, err)
	}
	old.Abort()
	update(21, 40)
	if got := e.rowVersions(); got != 2 {
		t.Fatalf("with nothing open: %d versions, want 2", got)
	}
	tx := e.Begin(ctx)
	defer tx.Abort()
	if r, err := tx.Get("acct", 1); err != nil || r[2].Float() != 40 {
		t.Fatalf("latest image %v, %v; want bal 40", r, err)
	}
}

// TestPruneVersionCount: after 5 000 seeded transactions on A, with nothing
// pinned, every chain holds its head, plus the image the head replaced if
// the key was written more than once: Σ Versions() is the live keys plus
// the tombstoned chains plus the chains written twice or more.
func TestPruneVersionCount(t *testing.T) {
	e := NewEngineA(ConfigA{Schemas: testSchemas()})
	defer e.Close()
	rng := rand.New(rand.NewSource(11))
	live := map[int64]bool{}
	installs := map[int64]int{} // by key: the commits that wrote it
	for i := 0; i < 5000; i++ {
		wrote := map[int64]bool{} // by key: live after this transaction
		mustExec(t, e, func(tx Tx) error {
			clear(wrote)
			for n := 1 + rng.Intn(3); n > 0; n-- {
				k := int64(rng.Intn(300))
				if _, again := wrote[k]; again {
					continue
				}
				var err error
				switch {
				case !live[k]:
					err, wrote[k] = tx.Insert("acct", acct(k, 0, float64(i))), true
				case rng.Intn(4) == 0:
					err, wrote[k] = tx.Delete("acct", k), false
				default:
					err, wrote[k] = tx.Update("acct", acct(k, 0, float64(i))), true
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		for k, l := range wrote {
			installs[k]++
			live[k] = l
		}
	}
	want := int64(0)
	for _, n := range installs {
		want += int64(min(n, 2))
	}
	if got := e.rowVersions(); got != want {
		t.Fatalf("Σ Versions() = %d, want %d (%d chains)", got, want, len(installs))
	}
}
