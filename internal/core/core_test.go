package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"htap/internal/disk"
	"htap/internal/exec"
	"htap/internal/obs"
	"htap/internal/sched"
	"htap/internal/types"
)

func testSchemas() []*types.Schema {
	return []*types.Schema{
		types.NewSchema("acct", 0,
			types.Column{Name: "id", Type: types.Int},
			types.Column{Name: "region", Type: types.Int},
			types.Column{Name: "bal", Type: types.Float},
		),
		types.NewSchema("log", 0,
			types.Column{Name: "id", Type: types.Int},
			types.Column{Name: "note", Type: types.String},
		),
	}
}

func acct(id, region int64, bal float64) types.Row {
	return types.Row{types.NewInt(id), types.NewInt(region), types.NewFloat(bal)}
}

// engines returns a fresh instance of each architecture. B is sized small
// to keep tests fast.
func engines(t *testing.T) map[string]Engine {
	t.Helper()
	return map[string]Engine{
		"A": NewEngineA(ConfigA{Schemas: testSchemas()}),
		"B": NewEngineB(ConfigB{Schemas: testSchemas(), Partitions: 2, VotersPer: 3, LearnersPer: 1}),
		"C": NewEngineC(ConfigC{Schemas: testSchemas(), Shards: 2, Disk: disk.MemConfig()}),
		"D": NewEngineD(ConfigD{Schemas: testSchemas(), L1Rows: 4, L2Rows: 16}),
	}
}

func forAll(t *testing.T, fn func(t *testing.T, e Engine)) {
	for name, e := range engines(t) {
		e := e
		t.Run(name, func(t *testing.T) {
			defer e.Close()
			fn(t, e)
		})
	}
}

func TestEngineMetadata(t *testing.T) {
	seen := map[Arch]bool{}
	for _, e := range engines(t) {
		if e.Name() == "" || e.Arch() == 0 {
			t.Fatalf("engine metadata empty: %q %v", e.Name(), e.Arch())
		}
		if len(e.Tables()) != 2 || e.Schema("acct") == nil || e.Schema("missing") != nil {
			t.Fatalf("%s: table registry broken", e.Name())
		}
		seen[e.Arch()] = true
		e.Close()
	}
	if len(seen) != 4 {
		t.Fatalf("architectures covered: %v", seen)
	}
}

func TestCRUDLifecycle(t *testing.T) {
	forAll(t, func(t *testing.T, e Engine) {
		// Insert.
		if err := Exec(context.Background(), e, func(tx Tx) error {
			return tx.Insert("acct", acct(1, 1, 100))
		}); err != nil {
			t.Fatalf("insert: %v", err)
		}
		// Read back.
		tx := e.Begin(context.Background())
		r, err := tx.Get("acct", 1)
		if err != nil || r[2].Float() != 100 {
			t.Fatalf("get: %v %v", r, err)
		}
		tx.Abort()
		// Update.
		if err := Exec(context.Background(), e, func(tx Tx) error {
			return tx.Update("acct", acct(1, 1, 150))
		}); err != nil {
			t.Fatalf("update: %v", err)
		}
		// Delete.
		if err := Exec(context.Background(), e, func(tx Tx) error {
			return tx.Delete("acct", 1)
		}); err != nil {
			t.Fatalf("delete: %v", err)
		}
		tx = e.Begin(context.Background())
		if _, err := tx.Get("acct", 1); !errors.Is(err, ErrNotFound) {
			t.Fatalf("get after delete: %v", err)
		}
		tx.Abort()
		// Missing-table errors.
		tx = e.Begin(context.Background())
		if _, err := tx.Get("nope", 1); !errors.Is(err, ErrNoTable) {
			t.Fatalf("missing table: %v", err)
		}
		tx.Abort()
	})
}

func TestReadYourOwnWrites(t *testing.T) {
	forAll(t, func(t *testing.T, e Engine) {
		tx := e.Begin(context.Background())
		if err := tx.Insert("acct", acct(7, 1, 70)); err != nil {
			t.Fatal(err)
		}
		r, err := tx.Get("acct", 7)
		if err != nil || r[2].Float() != 70 {
			t.Fatalf("own write invisible: %v %v", r, err)
		}
		if err := tx.Delete("acct", 7); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Get("acct", 7); !errors.Is(err, ErrNotFound) {
			t.Fatalf("own delete invisible: %v", err)
		}
		tx.Abort()
		// Nothing leaked.
		tx = e.Begin(context.Background())
		if _, err := tx.Get("acct", 7); !errors.Is(err, ErrNotFound) {
			t.Fatalf("aborted write leaked: %v", err)
		}
		tx.Abort()
	})
}

func TestAnalyticalScanSeesCommits(t *testing.T) {
	forAll(t, func(t *testing.T, e Engine) {
		for i := int64(0); i < 50; i++ {
			if err := e.Load("acct", acct(i, i%5, float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		// Loaded rows visible.
		if got := e.Query(context.Background(), "acct", nil, nil).Count(); got != 50 {
			t.Fatalf("loaded rows visible = %d", got)
		}
		// A committed transaction becomes visible in Shared mode (engine B
		// needs a merge for replication to land in learner state, but its
		// Shared mode reads the log delta which is applied asynchronously;
		// sync first to be deterministic).
		if err := Exec(context.Background(), e, func(tx Tx) error { return tx.Insert("acct", acct(100, 9, 999)) }); err != nil {
			t.Fatal(err)
		}
		// Engine B's learner replicas apply asynchronously; sync-and-check
		// until replication lands.
		waitFor(t, 5*time.Second, func() bool {
			e.Sync()
			rows := e.Query(context.Background(), "acct", nil, nil).
				Filter(exec.Cmp(exec.EQ, exec.ColName("id"), exec.ConstInt(100))).Run()
			return len(rows) == 1 && rows[0][2].Float() == 999
		})
		// Aggregation over the engine source.
		agg := e.Query(context.Background(), "acct", []string{"region", "bal"}, nil).
			Agg([]string{"region"}, exec.Agg{Kind: exec.Count, Name: "n"}).Run()
		if len(agg) != 6 { // regions 0..4 plus 9
			t.Fatalf("groups = %d", len(agg))
		}
	})
}

func TestUpdatesAndDeletesReachColumnStore(t *testing.T) {
	forAll(t, func(t *testing.T, e Engine) {
		for i := int64(0); i < 10; i++ {
			e.Load("acct", acct(i, 0, 1))
		}
		if err := Exec(context.Background(), e, func(tx Tx) error { return tx.Update("acct", acct(3, 0, 77)) }); err != nil {
			t.Fatal(err)
		}
		if err := Exec(context.Background(), e, func(tx Tx) error { return tx.Delete("acct", 4) }); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, func() bool {
			e.Sync()
			return e.Query(context.Background(), "acct", nil, nil).Count() == 9
		})
		rows := e.Query(context.Background(), "acct", nil, nil).Sort(exec.SortKey{Col: "id"}).Run()
		for _, r := range rows {
			if r[0].Int() == 4 {
				t.Fatal("deleted row visible in scan")
			}
			if r[0].Int() == 3 && r[2].Float() != 77 {
				t.Fatalf("update not visible: %v", r)
			}
		}
	})
}

func TestIsolatedModeIsStale(t *testing.T) {
	forAll(t, func(t *testing.T, e Engine) {
		e.Load("acct", acct(1, 1, 1))
		// C's row path reads at the merge target too, so C is stale whichever
		// path the planner picks; load the IMCS so both are in play.
		if c, ok := e.(*EngineC); ok {
			c.LoadColumns("acct", []string{"region", "bal"})
		}
		e.Sync()
		e.SetMode(sched.Isolated)
		if err := Exec(context.Background(), e, func(tx Tx) error { return tx.Insert("acct", acct(2, 1, 2)) }); err != nil {
			t.Fatal(err)
		}
		// Without a sync, isolated scans miss the new commit...
		if got := e.Query(context.Background(), "acct", nil, nil).Count(); got != 1 {
			// Engine D promotes on thresholds; a single row stays in L1, so
			// all engines should be stale here.
			t.Fatalf("isolated scan = %d rows, want 1 (stale)", got)
		}
		// ...and Shared mode (after replication settles for B) sees it.
		e.SetMode(sched.Shared)
		waitFor(t, 3*time.Second, func() bool {
			return e.Query(context.Background(), "acct", nil, nil).Count() == 2
		})
		// Freshness restored by an explicit sync (B needs replication to
		// deliver first).
		e.SetMode(sched.Isolated)
		waitFor(t, 5*time.Second, func() bool {
			e.Sync()
			return e.Query(context.Background(), "acct", nil, nil).Count() == 2
		})
	})
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func TestFreshnessTracksSync(t *testing.T) {
	forAll(t, func(t *testing.T, e Engine) {
		for i := int64(0); i < 20; i++ {
			if err := Exec(context.Background(), e, func(tx Tx) error { return tx.Insert("acct", acct(i, 0, 0)) }); err != nil {
				t.Fatal(err)
			}
		}
		// B's learner applies asynchronously; sync until the lag drains.
		waitFor(t, 5*time.Second, func() bool {
			e.Sync()
			return e.Freshness().LagTS == 0
		})
	})
}

// Freshness is read off the read point a snapshot opened now would pin:
// in Shared mode every commit (on B, once replication delivered it), in
// Isolated mode the point the last merge ran to. LagTime ages the oldest
// commit above that point.

// insertAccts commits one acct row for each key in [from, to).
func insertAccts(t *testing.T, e Engine, from, to int64) {
	for k := from; k < to; k++ {
		mustExec(t, e, func(tx Tx) error { return tx.Insert("acct", acct(k, 0, 0)) })
	}
}

// drainLag syncs until the engine reports no lag; B's learners apply
// asynchronously, so one Sync may not be enough there.
func drainLag(t *testing.T, e Engine) {
	waitFor(t, 5*time.Second, func() bool {
		e.Sync()
		return e.Freshness().LagTS == 0
	})
}

func TestFreshWhenCaughtUp(t *testing.T) {
	forAll(t, func(t *testing.T, e Engine) {
		for k := int64(0); k < 5; k++ {
			insertAccts(t, e, k, k+1)
			if f := e.Freshness(); e.Arch() != ArchB && (f.LagTS != 0 || f.LagTime != 0 || f.AppliedTS != f.CommitTS) {
				t.Fatalf("Shared, after commit %d: %+v, want no lag", k, f)
			}
		}
		drainLag(t, e)
		e.SetMode(sched.Isolated)
		insertAccts(t, e, 5, 10)
		drainLag(t, e)
		if f := e.Freshness(); f.LagTime != 0 || f.AppliedTS != f.CommitTS {
			t.Fatalf("Isolated, after Sync: %+v, want no lag", f)
		}
	})
}

func TestLagCountsCommits(t *testing.T) {
	forAll(t, func(t *testing.T, e Engine) {
		insertAccts(t, e, 0, 5)
		drainLag(t, e)
		e.SetMode(sched.Isolated)
		insertAccts(t, e, 5, 10)
		f := e.Freshness()
		if f.LagTS == 0 || f.LagTS != f.CommitTS-f.AppliedTS {
			t.Fatalf("Isolated, 5 commits after the last sync: %+v", f)
		}
		s := e.Snapshot(context.Background())
		if s.ReadTS() != f.AppliedTS {
			t.Fatalf("a snapshot reads at %d, Freshness reports %d", s.ReadTS(), f.AppliedTS)
		}
		s.Close()
	})
}

func TestLagTimeGrows(t *testing.T) {
	forAll(t, func(t *testing.T, e Engine) {
		insertAccts(t, e, 0, 5)
		drainLag(t, e)
		e.SetMode(sched.Isolated)
		const slept = 10 * time.Millisecond
		insertAccts(t, e, 5, 10)
		time.Sleep(slept)
		if f := e.Freshness(); f.LagTime < slept {
			t.Fatalf("Isolated: LagTime %v, want at least the %v slept since the commits", f.LagTime, slept)
		}
		drainLag(t, e)
		if f := e.Freshness(); f.LagTime != 0 {
			t.Fatalf("Isolated, after Sync: LagTime %v, want 0", f.LagTime)
		}
	})
}

// The commit ring ages the oldest commit above a read point exactly while
// no more than its size of timestamps lie above it, and the oldest one it
// remembers beyond that.
func TestCommitRingAgesOldestMissedCommit(t *testing.T) {
	var r commitRing
	n := uint64(len(r))
	base := time.Now().Add(-time.Hour)
	at := func(ts uint64) time.Time { return base.Add(time.Duration(ts) * time.Millisecond) }
	for ts := uint64(1); ts <= n+10; ts++ {
		r.note(ts, at(ts))
	}
	for _, c := range []struct{ applied, oldest uint64 }{{n, n + 1}, {20, 21}, {0, 11}} {
		want := time.Since(at(c.oldest))
		if got := r.age(c.applied, n+10); got < want || got > want+time.Minute {
			t.Fatalf("age(%d) = %v, want the age of commit %d, %v", c.applied, got, c.oldest, want)
		}
	}
	if got := r.age(n+10, n+10); got != 0 {
		t.Fatalf("age with nothing above the read point = %v", got)
	}
}

func TestWriteConflictRetriedByExec(t *testing.T) {
	forAll(t, func(t *testing.T, e Engine) {
		e.Load("acct", acct(1, 1, 0))
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- Exec(context.Background(), e, func(tx Tx) error {
					r, err := tx.Get("acct", 1)
					if err != nil {
						return err
					}
					return tx.Update("acct", acct(1, 1, r[2].Float()+1))
				})
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("concurrent increment failed: %v", err)
			}
		}
		tx := e.Begin(context.Background())
		r, err := tx.Get("acct", 1)
		tx.Abort()
		if err != nil || r[2].Float() != 8 {
			t.Fatalf("balance = %v (err %v), want 8", r, err)
		}
	})
}

func TestStatsPopulated(t *testing.T) {
	forAll(t, func(t *testing.T, e Engine) {
		for i := int64(0); i < 5; i++ {
			if err := Exec(context.Background(), e, func(tx Tx) error { return tx.Insert("acct", acct(i, 0, 0)) }); err != nil {
				t.Fatal(err)
			}
		}
		if st := e.Stats(); st.Commits < 5 {
			t.Fatalf("commits = %d", st.Commits)
		}
		if e.Arch() == ArchC {
			// C materializes columns only after selection loads them.
			return
		}
		waitFor(t, 5*time.Second, func() bool {
			e.Sync()
			return e.Stats().ColBytes > 0
		})
	})
}

// TestAbortAfterCommitDoesNotCount pins the `defer tx.Abort()` idiom: on a
// transaction that already committed, Abort is not an abort.
func TestAbortAfterCommitDoesNotCount(t *testing.T) {
	forAll(t, func(t *testing.T, e Engine) {
		aborts := obs.Default.Counter("htap_engine_txn_aborts_total", obs.L("arch", e.Arch().Label()))
		commits := obs.Default.Counter("htap_engine_txn_commits_total", obs.L("arch", e.Arch().Label()))
		before, committed, stats := aborts.Value(), commits.Value(), e.Stats()
		for _, write := range []bool{true, false} {
			tx := e.Begin(context.Background())
			if write {
				if err := tx.Insert("acct", acct(1, 1, 1)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx.Abort()
		}
		if d := aborts.Value() - before; d != 0 {
			t.Fatalf("htap_engine_txn_aborts_total moved by %d after two commits", d)
		}
		if d := e.Stats().Aborts - stats.Aborts; d != 0 {
			t.Fatalf("Stats().Aborts moved by %d after two commits", d)
		}
		if d := commits.Value() - committed; d != 2 {
			t.Fatalf("htap_engine_txn_commits_total moved by %d, want 2", d)
		}
		// An open transaction's Abort still counts, once.
		tx := e.Begin(context.Background())
		tx.Abort()
		tx.Abort()
		if d := aborts.Value() - before; d != 1 {
			t.Fatalf("htap_engine_txn_aborts_total moved by %d after one real abort", d)
		}
	})
}

func TestEngineCPushdownAndFallback(t *testing.T) {
	e := NewEngineC(ConfigC{Schemas: testSchemas(), Shards: 2, Disk: disk.MemConfig()})
	defer e.Close()
	for i := int64(0); i < 2000; i++ {
		e.Load("acct", acct(i, i%4, float64(i)))
	}
	// Not loaded yet: queries fall back to the disk row store.
	if got := e.Query(context.Background(), "acct", []string{"region", "bal"}, nil).Count(); got != 2000 {
		t.Fatalf("fallback scan = %d", got)
	}
	_, fb := e.PushdownStats()
	if fb == 0 {
		t.Fatal("fallback not counted")
	}
	// Load the hot columns; wide scans now push down.
	e.LoadColumns("acct", []string{"region", "bal"})
	if got := e.Query(context.Background(), "acct", []string{"region", "bal"}, nil).Count(); got != 2000 {
		t.Fatalf("pushdown scan = %d", got)
	}
	pd, _ := e.PushdownStats()
	if pd == 0 {
		t.Fatal("pushdown not counted")
	}
	// A query needing an unloaded column falls back again: only "region"
	// stays loaded, so a (region, bal) scan is uncovered.
	e.LoadColumns("acct", []string{"region"})
	fbBefore := func() int64 { _, f := e.PushdownStats(); return f }()
	if got := e.Query(context.Background(), "acct", []string{"region", "bal"}, nil).Count(); got != 2000 {
		t.Fatalf("uncovered scan = %d", got)
	}
	if fbAfter := func() int64 { _, f := e.PushdownStats(); return f }(); fbAfter != fbBefore+1 {
		t.Fatal("uncovered query did not fall back")
	}
	e.LoadColumns("acct", []string{"region", "bal"})
	// Writes propagate through the IMCS delta.
	if err := Exec(context.Background(), e, func(tx Tx) error { return tx.Update("acct", acct(5, 0, 999)) }); err != nil {
		t.Fatal(err)
	}
	rows := e.Query(context.Background(), "acct", []string{"id", "bal"}, nil).
		Filter(exec.Cmp(exec.EQ, exec.ColName("id"), exec.ConstInt(5))).Run()
	if len(rows) != 1 || rows[0][1].Float() != 999 {
		t.Fatalf("IMCS delta overlay = %v", rows)
	}
	// Reselect with the advisor: the hot table loads automatically.
	e.Unload("acct")
	sel := e.Reselect()
	if len(sel.Columns) == 0 {
		t.Fatal("reselect loaded nothing despite recorded heat")
	}
}

// Commits to a table and scans of it race LoadColumns replacing its IMCS
// delta: install and Source must read the delta under the table's lock.
// The race detector is what fails this test.
func TestEngineCCommitRacesLoadColumns(t *testing.T) {
	e := NewEngineC(ConfigC{Schemas: testSchemas(), Shards: 2, Disk: disk.MemConfig()})
	defer e.Close()
	e.LoadColumns("acct", []string{"bal"})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.LoadColumns("acct", []string{"bal"})
			}
		}
	}()
	for i := int64(0); i < 200; i++ {
		if err := Exec(context.Background(), e, func(tx Tx) error { return tx.Insert("acct", acct(i, 0, 1)) }); err != nil {
			t.Fatal(err)
		}
		e.Query(context.Background(), "acct", []string{"id", "bal"}, nil).Count()
	}
	close(stop)
	wg.Wait()
	e.Sync()
	if got := e.Query(context.Background(), "acct", nil, nil).Count(); got != 200 {
		t.Fatalf("rows = %d, want 200", got)
	}
}

func TestEngineDLayerPromotion(t *testing.T) {
	e := NewEngineD(ConfigD{Schemas: testSchemas(), L1Rows: 4, L2Rows: 8})
	defer e.Close()
	// Enough single-row commits to trip L1 (4 rows) and then L2 (8 rows).
	for i := int64(0); i < 20; i++ {
		if err := Exec(context.Background(), e, func(tx Tx) error { return tx.Insert("acct", acct(i, 0, 1)) }); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Query(context.Background(), "acct", nil, nil).Count(); got != 20 {
		t.Fatalf("layered scan = %d", got)
	}
	id := e.ts.mustID("acct")
	l := e.layers[id]
	if l.Main.LiveRows() == 0 {
		t.Fatal("nothing reached Main; L2 merge never fired")
	}
	if st := l.Main.Stats(); st.Merges == 0 {
		t.Fatal("no dictionary merges counted")
	}
}

func TestEngineBReplicationVisibleOnLearners(t *testing.T) {
	e := NewEngineB(ConfigB{Schemas: testSchemas(), Partitions: 2, VotersPer: 3, LearnersPer: 1})
	defer e.Close()
	for i := int64(0); i < 10; i++ {
		if err := Exec(context.Background(), e, func(tx Tx) error { return tx.Insert("acct", acct(i, 0, 1)) }); err != nil {
			t.Fatal(err)
		}
	}
	// Learner applies arrive asynchronously; shared-mode scans read the
	// log-based delta and eventually see all rows.
	waitFor(t, 5*time.Second, func() bool {
		return e.Query(context.Background(), "acct", nil, nil).Count() == 10
	})
	// Before a merge, learner column stores are empty: rows live in deltas.
	if e.Stats().DeltaRows == 0 {
		t.Fatal("expected unmerged delta rows on learners")
	}
	e.Sync()
	if e.Stats().DeltaRows != 0 {
		t.Fatalf("delta rows after sync = %d", e.Stats().DeltaRows)
	}
	// Isolated scans now see merged data.
	e.SetMode(sched.Isolated)
	if got := e.Query(context.Background(), "acct", nil, nil).Count(); got != 10 {
		t.Fatalf("merged scan = %d", got)
	}
}

func TestEngineBCrossPartitionAtomicity(t *testing.T) {
	e := NewEngineB(ConfigB{Schemas: testSchemas(), Partitions: 4, VotersPer: 3, LearnersPer: 1})
	defer e.Close()
	// One transaction touching many partitions commits atomically.
	if err := Exec(context.Background(), e, func(tx Tx) error {
		for i := int64(0); i < 8; i++ {
			if err := tx.Insert("acct", acct(i, 0, float64(i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin(context.Background())
	defer tx.Abort()
	for i := int64(0); i < 8; i++ {
		if _, err := tx.Get("acct", i); err != nil {
			t.Fatalf("key %d missing after cross-partition commit: %v", i, err)
		}
	}
}

func TestExecGivesUpOnPersistentError(t *testing.T) {
	e := NewEngineA(ConfigA{Schemas: testSchemas()})
	defer e.Close()
	boom := errors.New("boom")
	if err := Exec(context.Background(), e, func(tx Tx) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("non-retryable error not surfaced: %v", err)
	}
}

func TestEngineASyncStrategies(t *testing.T) {
	e := NewEngineA(ConfigA{Schemas: testSchemas()})
	defer e.Close()
	for i := int64(0); i < 30; i++ {
		if err := Exec(context.Background(), e, func(tx Tx) error { return tx.Insert("acct", acct(i, 0, 1)) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Sync()
	e.SetMode(sched.Isolated)
	if got := e.Query(context.Background(), "acct", nil, nil).Count(); got != 30 {
		t.Fatalf("rows = %d", got)
	}
	if e.Stats().Merges == 0 {
		t.Fatal("sync never merged")
	}
}

func TestEngineABackgroundSync(t *testing.T) {
	e := NewEngineA(ConfigA{Schemas: testSchemas(), SyncInterval: 2 * time.Millisecond})
	defer e.Close()
	if err := Exec(context.Background(), e, func(tx Tx) error { return tx.Insert("acct", acct(1, 0, 1)) }); err != nil {
		t.Fatal(err)
	}
	e.SetMode(sched.Isolated)
	waitFor(t, 3*time.Second, func() bool {
		return e.Query(context.Background(), "acct", nil, nil).Count() == 1
	})
}

func TestStringColumnRoundTrip(t *testing.T) {
	forAll(t, func(t *testing.T, e Engine) {
		if err := Exec(context.Background(), e, func(tx Tx) error {
			return tx.Insert("log", types.Row{types.NewInt(1), types.NewString("héllo wörld")})
		}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, func() bool {
			e.Sync()
			rows := e.Query(context.Background(), "log", nil, nil).Run()
			return len(rows) == 1 && rows[0][1].Str() == "héllo wörld"
		})
	})
}

func TestArchStringer(t *testing.T) {
	for a := ArchA; a <= ArchD; a++ {
		if a.String() == "" || a.String() == fmt.Sprintf("Arch(%d)", uint8(a)) {
			t.Fatalf("Arch %d has no name", a)
		}
	}
}
