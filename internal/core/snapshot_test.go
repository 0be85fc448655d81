package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"htap/internal/datasync"
	"htap/internal/disk"
	"htap/internal/exec"
	"htap/internal/obs"
	"htap/internal/planner"
	"htap/internal/sched"
	"htap/internal/types"
)

// snapCase is one architecture's analytical path under test: scan plans
// a scan of table in snapshot s.
type snapCase struct {
	name  string
	e     Engine
	scan  func(s Snapshot, table string, cols []string) *exec.Plan
	setup func() // after the initial load
}

// snapCases covers A, B, C's row path (the planner's choice at this size),
// C's IMCS forced past the planner, and D — whose L1Rows of 4 makes commits
// run PromoteL1 and MergeL2 themselves.
func snapCases() []snapCase {
	query := func(s Snapshot, table string, cols []string) *exec.Plan { return s.Query(table, cols, nil) }
	imcs := NewEngineC(ConfigC{Schemas: testSchemas(), Shards: 2, Disk: disk.MemConfig()})
	return []snapCase{
		{name: "A", e: NewEngineA(ConfigA{Schemas: testSchemas()}), scan: query},
		{name: "B", e: NewEngineB(ConfigB{Schemas: testSchemas(), Partitions: 2, VotersPer: 3, LearnersPer: 1}), scan: query},
		{name: "C-row", e: NewEngineC(ConfigC{Schemas: testSchemas(), Shards: 2, Disk: disk.MemConfig()}), scan: query},
		{name: "C-IMCS", e: imcs,
			scan: func(s Snapshot, table string, cols []string) *exec.Plan {
				return exec.From(s.(*snapshot).scan(int(imcs.ts.mustID(table)), cols))
			},
			setup: func() {
				imcs.LoadColumns("acct", []string{"region", "bal"})
				imcs.LoadColumns("log", []string{"note"})
			}},
		{name: "D", e: NewEngineD(ConfigD{Schemas: testSchemas(), L1Rows: 4, L2Rows: 16}), scan: query},
	}
}

// forSnapCases runs fn on every snapCase, loaded with accounts of balance
// 100 and synced, in Shared mode and then in Isolated mode, where a case's
// name gets an "-isolated" suffix.
func forSnapCases(t *testing.T, accounts int, fn func(t *testing.T, c snapCase)) {
	for _, m := range []sched.Mode{sched.Shared, sched.Isolated} {
		for _, c := range snapCases() {
			name := c.name
			if m == sched.Isolated {
				name += "-isolated"
			}
			t.Run(name, func(t *testing.T) {
				defer c.e.Close()
				for i := int64(0); i < int64(accounts); i++ {
					if err := c.e.Load("acct", acct(i, i%4, 100)); err != nil {
						t.Fatal(err)
					}
				}
				if c.setup != nil {
					c.setup()
				}
				c.e.Sync()
				c.e.SetMode(m)
				fn(t, c)
			})
		}
	}
}

// A snapshot reads the state as of its opening, whatever commits and
// merges happen before its scans are planned and drained.
func TestSnapshotIgnoresLaterCommitsAndMerges(t *testing.T) {
	ctx := context.Background()
	forSnapCases(t, 64, func(t *testing.T, c snapCase) {
		snap := c.e.Snapshot(ctx)
		for i := int64(0); i < 38; i++ {
			if err := Exec(ctx, c.e, func(tx Tx) error { return tx.Update("acct", acct(i, i%4, float64(200+i))) }); err != nil {
				t.Fatal(err)
			}
		}
		if err := Exec(ctx, c.e, func(tx Tx) error { return tx.Delete("acct", 40) }); err != nil {
			t.Fatal(err)
		}
		if err := Exec(ctx, c.e, func(tx Tx) error { return tx.Insert("acct", acct(100, 0, 1)) }); err != nil {
			t.Fatal(err)
		}
		c.e.Sync()
		rows := c.scan(snap, "acct", nil).Sort(exec.SortKey{Col: "id"}).Run()
		if len(rows) != 64 {
			t.Fatalf("snapshot drained %d rows, want the 64 of its opening", len(rows))
		}
		for i, r := range rows {
			if r[0].Int() != int64(i) || r[2].Float() != 100 {
				t.Fatalf("row %d = %v, want id %d with balance 100", i, r, i)
			}
		}
	})
}

// transfer moves 1 from one random account to another.
func transfer(ctx context.Context, e Engine, rng *rand.Rand, accounts int) error {
	a, b := rng.Int63n(int64(accounts)), rng.Int63n(int64(accounts)-1)
	if b >= a {
		b++
	}
	return Exec(ctx, e, func(tx Tx) error {
		for _, m := range [2]struct {
			k int64
			d float64
		}{{a, -1}, {b, 1}} {
			r, err := tx.Get("acct", m.k)
			if err != nil {
				return err
			}
			if err := tx.Update("acct", acct(m.k, r[1].Int(), r[2].Float()+m.d)); err != nil {
				return err
			}
		}
		return nil
	})
}

// underLoad runs work in two goroutines — at most budget times each — and
// Sync every millisecond until check has run n times, and reports every
// check failure.
func underLoad(t *testing.T, e Engine, n, budget int, work func(rng *rand.Rand) error, check func() error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for g := int64(0); g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(g + 1))
			for i := 0; i < budget && ctx.Err() == nil; i++ {
				if err := work(rng); err != nil && ctx.Err() == nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			e.Sync()
			time.Sleep(time.Millisecond)
		}
	}()
	wrong := 0
	var first error
	for i := 0; i < n; i++ {
		if err := check(); err != nil {
			if wrong++; first == nil {
				first = err
			}
		}
	}
	cancel()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if wrong > 0 {
		t.Fatalf("%d of %d snapshot reads wrong; first: %v", wrong, n, first)
	}
}

// Scans read one committed state while transfers commit and merges run
// beside them, in either mode: every SUM(bal), COUNT(*) over 64 accounts
// of 100 is (6 400, 64). In the two-table variant each transaction debits one
// account and logs one row, and one snapshot must see both sides of every
// transaction: 6 400 − SUM(bal) = COUNT(log).
func TestScanSnapshotUnderLoad(t *testing.T) {
	const accounts = 64
	ctx := context.Background()
	total := func(c snapCase, s Snapshot) (float64, int64) {
		r := c.scan(s, "acct", []string{"bal"}).
			Agg(nil, exec.Agg{Kind: exec.Sum, Expr: exec.ColName("bal"), Name: "s"}, exec.Agg{Kind: exec.Count, Name: "n"}).Run()
		return r[0][0].Float(), r[0][1].Int()
	}
	t.Run("transfers", func(t *testing.T) {
		forSnapCases(t, accounts, func(t *testing.T, c snapCase) {
			underLoad(t, c.e, 2000, 1<<30,
				func(rng *rand.Rand) error { return transfer(ctx, c.e, rng, accounts) },
				func() error {
					s := c.e.Snapshot(ctx)
					defer s.Close()
					if sum, n := total(c, s); sum != 100*accounts || n != accounts {
						return fmt.Errorf("SUM(bal), COUNT(*) = %v, %d", sum, n)
					}
					return nil
				})
		})
	})
	t.Run("debit-and-log", func(t *testing.T) {
		forSnapCases(t, accounts, func(t *testing.T, c snapCase) {
			var next atomic.Int64
			underLoad(t, c.e, 500, 1000,
				func(rng *rand.Rand) error {
					k := rng.Int63n(accounts)
					return Exec(ctx, c.e, func(tx Tx) error {
						r, err := tx.Get("acct", k)
						if err != nil {
							return err
						}
						if err := tx.Update("acct", acct(k, r[1].Int(), r[2].Float()-1)); err != nil {
							return err
						}
						return tx.Insert("log", types.Row{types.NewInt(next.Add(1)), types.NewString("debit")})
					})
				},
				func() error {
					s := c.e.Snapshot(ctx)
					defer s.Close()
					sum, _ := total(c, s)
					logs := c.scan(s, "log", []string{"id"}).Count()
					if 100*accounts-sum != float64(logs) {
						return fmt.Errorf("6 400 − SUM(bal) = %v but COUNT(log) = %d", 100*accounts-sum, logs)
					}
					return nil
				})
		})
	})
}

// One transaction debits account 1 and logs a row; an Isolated snapshot
// sees both writes or neither, however its scans reach the two tables: on
// C through the IMCS and the disk row store, on A between the merges of
// one sync round.
func TestIsolatedSnapshotReadsOneState(t *testing.T) {
	ctx := context.Background()
	// start loads 8 accounts, runs loaded, then commits the transaction in
	// Isolated mode.
	start := func(t *testing.T, e Engine, loaded func()) {
		for i := int64(0); i < 8; i++ {
			if err := e.Load("acct", acct(i, 0, 100)); err != nil {
				t.Fatal(err)
			}
		}
		loaded()
		e.SetMode(sched.Isolated)
		mustExec(t, e, func(tx Tx) error {
			if err := tx.Update("acct", acct(1, 0, 99)); err != nil {
				return err
			}
			return tx.Insert("log", types.Row{types.NewInt(1), types.NewString("debit")})
		})
	}
	// seen fails t unless s sees the debit and its log row together, and
	// reports whether it saw them.
	seen := func(t *testing.T, s Snapshot) bool {
		t.Helper()
		rows := s.Query("acct", []string{"id", "bal"}, nil).
			Filter(exec.Cmp(exec.EQ, exec.ColName("id"), exec.ConstInt(1))).Run()
		debited, logged := rows[0][1].Float() == 99, s.Query("log", nil, nil).Count() == 1
		if debited != logged {
			t.Fatalf("snapshot at %d: debit seen %v, its log row seen %v", s.ReadTS(), debited, logged)
		}
		return debited
	}
	// synced checks a snapshot opened after the last merge: it sees the
	// transaction, and its read point is the one Freshness reports.
	synced := func(t *testing.T, e Engine) {
		t.Helper()
		s := e.Snapshot(ctx)
		defer s.Close()
		if !seen(t, s) {
			t.Fatal("a snapshot after Sync misses the transaction")
		}
		if f := e.Freshness(); s.ReadTS() != f.AppliedTS || !f.Fresh() {
			t.Fatalf("snapshot reads at %d, Freshness = %+v", s.ReadTS(), f)
		}
	}

	t.Run("C", func(t *testing.T) {
		// Column cells cost nothing: a covered scan takes the IMCS.
		e := NewEngineC(ConfigC{Schemas: testSchemas(), Shards: 2, Disk: disk.MemConfig(),
			Cost: planner.CostParams{RowPerRow: 1, RowDiskMult: 1}})
		defer e.Close()
		start(t, e, func() { e.LoadColumns("acct", []string{"bal"}) }) // log stays on the row path
		s := e.Snapshot(ctx)
		seen(t, s)
		s.Close()
		if pd, fb := e.PushdownStats(); pd != 1 || fb != 1 {
			t.Fatalf("%d IMCS and %d row-store scans, want one of each", pd, fb)
		}
		e.Sync()
		synced(t, e)
	})

	t.Run("A", func(t *testing.T) {
		e := NewEngineA(ConfigA{Schemas: testSchemas()})
		defer e.Close()
		start(t, e, e.Sync)
		// One sync round, held after acct's merge has published and
		// before log's.
		e.syncRound(func(_ *obs.Span, upTo uint64) {
			datasync.MergeDelta(e.cols[0], e.deltas[0], upTo)
			s := e.Snapshot(ctx)
			defer s.Close()
			if !seen(t, s) {
				t.Fatal("a snapshot inside the round misses a commit the round merges")
			}
			datasync.MergeDelta(e.cols[1], e.deltas[1], upTo)
		})
		synced(t, e)
	})
}
