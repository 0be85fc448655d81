package twopc

import (
	"context"
	"errors"
	"testing"
	"time"

	"htap/internal/cluster"
	"htap/internal/raft"
	"htap/internal/txn"
	"htap/internal/types"
)

// One suite for the one protocol: every test commits through
// Coordinator.Commit, i.e. production raftBranches driven by CommitAll. The
// protocol cases run over both backends below; the crash-injection cases
// need the fault plan only the log backend has.

// harness is a coordinator over some number of partitions, keys routed by
// key % partitions, every replica a Participant over memStorage.
type harness struct {
	coord  *Coordinator
	oracle *txn.Oracle
	// replicas returns the storage of every replica of a partition.
	replicas func(part int) []*memStorage
	// logs is the log backend's partitions, nil over real Raft groups.
	logs []*logPart
}

// logFault is a deterministic fault plan for one partition, in the style of
// disk.FaultPlan: the test states exactly which protocol step fails, so
// every run exercises the same crash.
type logFault struct {
	failPrepare bool // prepare never reaches the partition
	dropCommit  bool // crash BEFORE the commit record is logged: it is lost
	dropAck     bool // crash AFTER the record is logged: only the ack is lost
}

var errInjected = errors.New("injected crash")

// logPart stands in for one partition's Raft group: its durable state is a
// replayable command log feeding a Participant. "Crash" discards the
// volatile participant and store; recovery rebuilds both by replaying the
// log from the start, exactly what a restarted replica does.
type logPart struct {
	p     *Participant
	st    *memStorage
	log   []raft.Command
	fault logFault
}

func (l *logPart) propose(cmd raft.Command) error {
	switch {
	case cmd[0] == cmdPrepare && l.fault.failPrepare:
		return errInjected
	case cmd[0] == cmdCommit && l.fault.dropCommit:
		return errInjected
	}
	l.log = append(l.log, cmd)
	l.p.Apply(cmd)
	if l.fault.dropAck && (cmd[0] == cmdCommit || cmd[0] == cmdOneShot) {
		return errInjected
	}
	return nil
}

// recover models a restart: volatile state is gone, the log replays.
func (l *logPart) recover() {
	l.st = newMemStorage()
	l.p = NewParticipant(l.st)
	for _, cmd := range l.log {
		l.p.Apply(cmd)
	}
}

// kinds is the log as a string of command kinds, e.g. "PC".
func (l *logPart) kinds() string {
	var s []byte
	for _, cmd := range l.log {
		s = append(s, cmd[0])
	}
	return string(s)
}

func newLogHarness(partitions int) *harness {
	h := &harness{oracle: &txn.Oracle{}}
	for i := 0; i < partitions; i++ {
		l := &logPart{}
		l.recover()
		h.logs = append(h.logs, l)
	}
	h.replicas = func(part int) []*memStorage { return []*memStorage{h.logs[part].st} }
	h.coord = &Coordinator{
		oracle:        h.oracle,
		parts:         partitions,
		route:         func(_ uint32, key int64) int { return int(uint64(key) % uint64(partitions)) },
		propose:       func(part int, cmd raft.Command) error { return h.logs[part].propose(cmd) },
		participantAt: func(part int) *Participant { return h.logs[part].p },
	}
	return h
}

// newRaftHarness builds a real cluster whose Raft groups feed participants.
func newRaftHarness(t *testing.T, partitions int) *harness {
	t.Helper()
	const voters = 3
	h := &harness{oracle: &txn.Oracle{}}
	participants := make([][]*Participant, partitions)
	stores := make([][]*memStorage, partitions)
	for p := range participants {
		for n := 0; n < voters; n++ {
			st := newMemStorage()
			stores[p] = append(stores[p], st)
			participants[p] = append(participants[p], NewParticipant(st))
		}
	}
	c := cluster.New(cluster.Config{
		Partitions: partitions, VotersPer: voters,
		Route: func(_ uint32, key int64) int { return int(uint64(key) % uint64(partitions)) },
		Apply: func(part, nodeID int, _ bool, cmd []byte) {
			participants[part][nodeID].Apply(cmd)
		},
	})
	t.Cleanup(c.Stop)
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	h.replicas = func(part int) []*memStorage { return stores[part] }
	h.coord = NewCoordinator(c, h.oracle, func(part int) *Participant {
		return participants[part][c.Partitions[part].Leader().Status().ID]
	})
	return h
}

// forBackends runs fn over the log backend and over real Raft groups.
func forBackends(t *testing.T, partitions int, fn func(t *testing.T, h *harness)) {
	t.Run("log", func(t *testing.T) { fn(t, newLogHarness(partitions)) })
	t.Run("raft", func(t *testing.T) { fn(t, newRaftHarness(t, partitions)) })
}

func put(key, val int64) txn.Write {
	return txn.Write{Table: 1, Key: key, Op: txn.OpUpdate, Row: types.Row{types.NewInt(val)}}
}

// waitValue waits until key holds val on every replica of its partition
// (followers apply asynchronously).
func (h *harness) waitValue(t *testing.T, key, val int64) {
	t.Helper()
	part := h.coord.route(1, key)
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		for _, st := range h.replicas(part) {
			if r, found := st.get(key); !found || r[0].Int() != val {
				ok = false
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("key %d != %d on some replica of partition %d", key, val, part)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCommitSinglePartitionFastPath(t *testing.T) {
	forBackends(t, 2, func(t *testing.T, h *harness) {
		ts, err := h.coord.Commit(context.Background(), 0, []txn.Write{put(4, 40)})
		if err != nil || ts == 0 {
			t.Fatalf("commit = (%d, %v)", ts, err)
		}
		h.waitValue(t, 4, 40)
		if h.logs != nil {
			if got := h.logs[0].kinds() + "/" + h.logs[1].kinds(); got != "O/" {
				t.Fatalf("logs = %q, want one fused one-shot proposal and no prepare round", got)
			}
		}
	})
}

func TestCommitCrossPartition(t *testing.T) {
	forBackends(t, 2, func(t *testing.T, h *harness) {
		ts, err := h.coord.Commit(context.Background(), 0, []txn.Write{put(0, 100), put(1, 101)})
		if err != nil || ts == 0 {
			t.Fatalf("commit = (%d, %v)", ts, err)
		}
		h.waitValue(t, 0, 100)
		h.waitValue(t, 1, 101)
		if h.oracle.Watermark() != ts {
			t.Fatalf("watermark = %d, want commit ts %d", h.oracle.Watermark(), ts)
		}
		for _, l := range h.logs {
			if l.kinds() != "PC" || l.p.SafeTS() != ts {
				t.Fatalf("log = %q applied = %d, want prepare+commit at the one commit ts %d", l.kinds(), l.p.SafeTS(), ts)
			}
		}
	})
}

func TestCommitConflictAbortsAll(t *testing.T) {
	forBackends(t, 2, func(t *testing.T, h *harness) {
		ctx := context.Background()
		if _, err := h.coord.Commit(ctx, 0, []txn.Write{put(0, 1), put(1, 1)}); err != nil {
			t.Fatal(err)
		}
		// Key 0 is now newer than snapshot 0; key 3 is untouched. The stale
		// branch must take the clean one down with it.
		_, err := h.coord.Commit(ctx, 0, []txn.Write{put(0, 2), put(3, 2)})
		if !errors.Is(err, ErrConflict) {
			t.Fatalf("stale cross-partition commit = %v, want conflict", err)
		}
		if errors.Is(err, ErrIndeterminate) {
			t.Fatal("a prepare conflict must not be indeterminate: nothing committed, retry is safe")
		}
		for _, l := range h.logs {
			if l.p.LockCount() != 0 {
				t.Fatalf("%d locks held after abort", l.p.LockCount())
			}
		}
		// Locks must be fully released so a fresh transaction succeeds, on the
		// one-shot path too.
		if _, err := h.coord.Commit(ctx, h.oracle.Watermark(), []txn.Write{put(0, 3), put(3, 3)}); err != nil {
			t.Fatalf("post-abort commit: %v", err)
		}
		if _, err := h.coord.Commit(ctx, 0, []txn.Write{put(3, 4)}); !errors.Is(err, ErrConflict) {
			t.Fatalf("stale one-shot commit = %v, want conflict", err)
		}
		h.waitValue(t, 0, 3)
		h.waitValue(t, 3, 3)
	})
}

// --- crash injection ---

func TestCommitPrepareFailureAbortsAll(t *testing.T) {
	h := newLogHarness(3)
	muts := []txn.Write{put(0, 10), put(1, 11), put(2, 12)}
	h.logs[1].fault.failPrepare = true

	_, err := h.coord.Commit(context.Background(), 0, muts)
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected prepare failure", err)
	}
	if errors.Is(err, ErrIndeterminate) {
		t.Fatal("prepare failure must not be indeterminate: nothing committed, retry is safe")
	}
	for i, l := range h.logs {
		if l.p.LockCount() != 0 {
			t.Fatalf("partition %d holds %d locks after abort", i, l.p.LockCount())
		}
		if _, ok := l.st.get(int64(i)); ok {
			t.Fatalf("partition %d installed data from an aborted transaction", i)
		}
	}

	// Retry against a healed partition: must succeed.
	h.logs[1].fault = logFault{}
	if _, err := h.coord.Commit(context.Background(), 0, muts); err != nil {
		t.Fatalf("retry after clean abort: %v", err)
	}
	for k := int64(0); k < 3; k++ {
		h.waitValue(t, k, 10+k)
	}
}

func TestCommitLostAckIsIndeterminateAndConverges(t *testing.T) {
	h := newLogHarness(3)
	h.logs[1].fault.dropAck = true // commit record logged, partition dies before replying

	_, err := h.coord.Commit(context.Background(), 0, []txn.Write{put(0, 10), put(1, 11), put(2, 12)})
	var ind *IndeterminateError
	if !errors.As(err, &ind) || !errors.Is(err, ErrIndeterminate) {
		t.Fatalf("err = %v, want IndeterminateError", err)
	}
	if len(ind.Committed) != 2 || len(ind.Failed) != 1 || ind.Failed[0] != "partition-1" {
		t.Fatalf("outcome = committed %v / failed %v", ind.Committed, ind.Failed)
	}

	// The crashed partition restarts and replays its log: the commit record
	// is durable there, so all partitions converge with no divergence.
	h.logs[1].recover()
	commitTS := h.oracle.Current()
	for k := int64(0); k < 3; k++ {
		h.waitValue(t, k, 10+k)
		if l := h.logs[k]; l.p.SafeTS() != commitTS || l.p.LockCount() != 0 {
			t.Fatalf("partition %d after recovery: applied TS %d (want %d), %d locks", k, l.p.SafeTS(), commitTS, l.p.LockCount())
		}
	}
}

func TestCommitLostCommitRecordResolvesOnRecovery(t *testing.T) {
	h := newLogHarness(2)
	b := h.logs[1]
	b.fault.dropCommit = true // crash between prepare and commit: record never logged

	_, err := h.coord.Commit(context.Background(), 0, []txn.Write{put(0, 10), put(1, 11)})
	if !errors.Is(err, ErrIndeterminate) {
		t.Fatalf("err = %v, want indeterminate", err)
	}

	// After restart the partition replays only its prepare: the transaction
	// is still pending there, locks held, data uninstalled — prepared state
	// survives the crash instead of diverging.
	b.recover()
	if b.p.LockCount() != 1 {
		t.Fatalf("recovered partition lost its prepared locks: %d", b.p.LockCount())
	}
	if _, ok := b.st.get(1); ok {
		t.Fatal("recovered partition installed unresolved data")
	}

	// Resolution: the coordinator (or a recovery sweep reading the other
	// partition's outcome) re-delivers the commit decision; idempotent apply
	// converges both partitions.
	b.fault.dropCommit = false
	commitTS := h.logs[0].p.SafeTS()
	if err := b.propose(EncodeCommit(1, commitTS)); err != nil {
		t.Fatalf("re-delivered commit: %v", err)
	}
	b.p.Apply(EncodeCommit(1, commitTS)) // duplicate delivery must stay a no-op
	h.waitValue(t, 0, 10)
	h.waitValue(t, 1, 11)
	if b.p.SafeTS() != commitTS || b.p.LockCount() != 0 {
		t.Fatalf("after resolution: applied TS %d (want %d), %d locks", b.p.SafeTS(), commitTS, b.p.LockCount())
	}
}

func TestCommitCancelledBeforeDecisionAborts(t *testing.T) {
	h := newLogHarness(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	_, err := h.coord.Commit(ctx, 0, []txn.Write{put(0, 10), put(1, 11)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrIndeterminate) {
		t.Fatal("cancellation before the decision must stay retryable")
	}
	for i, l := range h.logs {
		if l.kinds() != "PA" || l.p.LockCount() != 0 {
			t.Fatalf("partition %d: log %q, %d locks after cancelled commit", i, l.kinds(), l.p.LockCount())
		}
	}
}
