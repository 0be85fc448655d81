// Package chaos is the crash-consistency harness: it runs CH-benCHmark-style
// read-modify-write transactions against an engine whose WAL device is armed
// with a fault plan, crashes the engine mid-commit at a deterministic
// injected point, recovers it from the surviving device, and verifies the
// durability invariants the paper's Table 2 takes for granted when it pairs
// every TP technique with "logging":
//
//  1. prefix-of-acknowledged-commits — every transaction whose Commit
//     returned nil is present after recovery, and nothing else is (the one
//     in-flight transaction whose flush tore is allowed to vanish, never to
//     half-appear);
//  2. atomicity across tables — a transaction's order-line insert and its
//     balance update recover together or not at all;
//  3. no aborted transaction is visible;
//  4. row store and column store agree after Sync — the analytical view of
//     the recovered engine matches its transactional view, key by key.
//
// Everything is seeded (the workload RNG and the device's FaultPlan), so a
// failing run replays exactly.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"htap/internal/core"
	"htap/internal/disk"
	"htap/internal/exec"
	"htap/internal/types"
)

// Schemas returns the two-table workload schema: accounts carry a running
// balance and the sequence number of the last transaction that touched
// them; hist records one row per transaction (a thin order line).
func Schemas() []*types.Schema {
	return []*types.Schema{
		types.NewSchema("acct", 0,
			types.Column{Name: "id", Type: types.Int},
			types.Column{Name: "ver", Type: types.Int},
			types.Column{Name: "bal", Type: types.Float},
		),
		types.NewSchema("hist", 0,
			types.Column{Name: "id", Type: types.Int},
			types.Column{Name: "acct", Type: types.Int},
			types.Column{Name: "delta", Type: types.Float},
		),
	}
}

// Subject is one engine under test: how to open it fresh and how to recover
// it from a crashed WAL device.
type Subject struct {
	Name    string
	Open    func() (core.Engine, *disk.Device)
	Recover func(dev *disk.Device) (core.Engine, error)
}

// Subjects returns the WAL-recoverable architectures (A, C, D). B replicates
// through Raft instead of a local WAL and has no single-device crash model.
func Subjects() []Subject {
	return []Subject{
		{
			Name: "A",
			Open: func() (core.Engine, *disk.Device) {
				e := core.NewEngineA(core.ConfigA{Schemas: Schemas()})
				return e, e.WALDevice()
			},
			Recover: func(dev *disk.Device) (core.Engine, error) {
				return core.RecoverEngineA(core.ConfigA{Schemas: Schemas()}, dev)
			},
		},
		{
			Name: "C",
			Open: func() (core.Engine, *disk.Device) {
				e := core.NewEngineC(core.ConfigC{Schemas: Schemas(), Shards: 2, Disk: disk.MemConfig()})
				return e, e.WALDevice()
			},
			Recover: func(dev *disk.Device) (core.Engine, error) {
				return core.RecoverEngineC(core.ConfigC{Schemas: Schemas(), Shards: 2, Disk: disk.MemConfig()}, dev)
			},
		},
		{
			Name: "D",
			Open: func() (core.Engine, *disk.Device) {
				e := core.NewEngineD(core.ConfigD{Schemas: Schemas(), L1Rows: 4, L2Rows: 16})
				return e, e.WALDevice()
			},
			Recover: func(dev *disk.Device) (core.Engine, error) {
				return core.RecoverEngineD(core.ConfigD{Schemas: Schemas(), L1Rows: 4, L2Rows: 16}, dev)
			},
		},
	}
}

// Config sizes one chaos run.
type Config struct {
	Seed             int64
	Accounts         int   // rows preloaded into acct (default 8)
	CrashAfterWrites int64 // WAL-device Append count before the crash (default 13)
	MaxTxns          int64 // safety bound on the workload (default 1000)
	AbortEvery       int64 // every Nth transaction aborts voluntarily (0 disables)
}

func (c Config) normalize() Config {
	if c.Accounts <= 0 {
		c.Accounts = 8
	}
	if c.CrashAfterWrites <= 0 {
		c.CrashAfterWrites = 13
	}
	if c.MaxTxns <= 0 {
		c.MaxTxns = 1000
	}
	if c.AbortEvery < 0 {
		c.AbortEvery = 0
	}
	return c
}

// Report summarizes one crash-recover cycle.
type Report struct {
	Acked    int64 // commits acknowledged before the crash
	Aborted  int64 // voluntary aborts before the crash
	CrashSeq int64 // sequence number of the transaction in flight at the crash
	CrashErr error // the fault that killed it
	// Disk is the WAL device's counters snapshotted at the crash: the fault
	// ledger (crashes, torn writes, discarded bytes) a run can assert on.
	Disk disk.Stats
}

// model is the oracle state: what the database must contain if every
// acknowledged commit is durable and nothing else is.
type model struct {
	bal     map[int64]float64 // acct id -> expected balance
	ver     map[int64]int64   // acct id -> last acked txn seq
	acked   map[int64]int64   // txn seq -> acct it touched
	aborted []int64
}

func newModel(accounts int) *model {
	m := &model{bal: map[int64]float64{}, ver: map[int64]int64{}, acked: map[int64]int64{}}
	for k := int64(0); k < int64(accounts); k++ {
		m.bal[k] = 0
	}
	return m
}

func (m *model) ack(seq, acct int64, bal float64) {
	m.bal[acct] = bal
	m.ver[acct] = seq
	m.acked[seq] = acct
}

func acctRow(id, ver int64, bal float64) types.Row {
	return types.Row{types.NewInt(id), types.NewInt(ver), types.NewFloat(bal)}
}

func histRow(id, acct int64, delta float64) types.Row {
	return types.Row{types.NewInt(id), types.NewInt(acct), types.NewFloat(delta)}
}

// isDiskFault reports whether err originates from an injected device fault.
func isDiskFault(err error) bool {
	return errors.Is(err, disk.ErrCrashed) || errors.Is(err, disk.ErrTorn) || errors.Is(err, disk.ErrInjected)
}

// Run drives the workload on a fresh subject until the armed fault plan
// crashes the WAL device mid-commit, then recovers and verifies the
// invariants. It runs a second burst of transactions on the recovered
// engine and a second (fault-free) restart, so LSN continuity and
// post-recovery durability are exercised too.
func Run(sub Subject, cfg Config) (Report, error) {
	cfg = cfg.normalize()
	var rep Report

	e, dev := sub.Open()
	m := newModel(cfg.Accounts)
	// Seed the baseline through a committed (and therefore logged)
	// transaction: Engine.Load bypasses the WAL, and rows recovery cannot
	// see would fail the verifier for the wrong reason. The fault plan is
	// armed only after the baseline is durable.
	if err := core.Exec(context.Background(), e, func(tx core.Tx) error {
		for k := int64(0); k < int64(cfg.Accounts); k++ {
			if err := tx.Insert("acct", acctRow(k, 0, 0)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return rep, fmt.Errorf("seed accounts: %w", err)
	}
	dev.SetFaultPlan(&disk.FaultPlan{Seed: cfg.Seed, CrashAfterWrites: cfg.CrashAfterWrites})

	rng := rand.New(rand.NewSource(cfg.Seed))
	seq := int64(0)
	for seq < cfg.MaxTxns {
		seq++
		crashed, err := m.step(e, rng, seq, cfg.AbortEvery, &rep)
		if err != nil {
			return rep, err
		}
		if crashed {
			rep.CrashSeq = seq
			break
		}
	}
	if rep.CrashErr == nil {
		return rep, errors.New("chaos: workload drained without hitting the crash trigger")
	}
	// The crashed device must refuse further commits — an engine that kept
	// acknowledging writes into a dead log would be lying.
	if err := oneTxn(e, seq+1, 0); err == nil {
		return rep, errors.New("chaos: commit acknowledged on a crashed device")
	}
	rep.Disk = dev.Stats()
	e.Close()

	// Restart: the machine comes back, the media survives.
	dev.Revive()
	r, err := sub.Recover(dev)
	if err != nil {
		return rep, fmt.Errorf("recover: %w", err)
	}
	if err := m.verify(r, rep.CrashSeq); err != nil {
		r.Close()
		return rep, fmt.Errorf("after first recovery: %w", err)
	}

	// The recovered engine must accept and persist new traffic.
	base := seq
	for i := int64(1); i <= 20; i++ {
		seq = base + i
		if _, err := m.step(r, rng, seq, cfg.AbortEvery, &Report{}); err != nil {
			r.Close()
			return rep, fmt.Errorf("post-recovery txn %d: %w", seq, err)
		}
	}
	r.Close()

	// Second restart, no fault this time: everything acked in both epochs
	// must still be there.
	r2, err := sub.Recover(dev)
	if err != nil {
		return rep, fmt.Errorf("second recover: %w", err)
	}
	defer r2.Close()
	if err := m.verify(r2, 0); err != nil {
		return rep, fmt.Errorf("after second recovery: %w", err)
	}
	return rep, nil
}

// step executes one read-modify-write transaction: bump an account's
// balance and insert its hist row. It returns crashed=true when the commit
// died on an injected device fault.
func (m *model) step(e core.Engine, rng *rand.Rand, seq, abortEvery int64, rep *Report) (crashed bool, err error) {
	k := int64(rng.Intn(len(m.bal)))
	tx := e.Begin(context.Background())
	cur, err := tx.Get("acct", k)
	if err != nil {
		tx.Abort()
		return false, fmt.Errorf("txn %d: read acct %d: %w", seq, k, err)
	}
	newBal := cur[2].Float() + 1
	if err := tx.Update("acct", acctRow(k, seq, newBal)); err != nil {
		tx.Abort()
		return false, fmt.Errorf("txn %d: update: %w", seq, err)
	}
	if err := tx.Insert("hist", histRow(seq, k, 1)); err != nil {
		tx.Abort()
		return false, fmt.Errorf("txn %d: insert: %w", seq, err)
	}
	if abortEvery > 0 && seq%abortEvery == 0 {
		tx.Abort()
		m.aborted = append(m.aborted, seq)
		rep.Aborted++
		return false, nil
	}
	if err := tx.Commit(); err != nil {
		if isDiskFault(err) {
			rep.CrashErr = err
			return true, nil
		}
		return false, fmt.Errorf("txn %d: commit: %w", seq, err)
	}
	m.ack(seq, k, newBal)
	rep.Acked++
	return false, nil
}

// oneTxn attempts a single throwaway commit (used to probe a dead device).
func oneTxn(e core.Engine, seq, k int64) error {
	tx := e.Begin(context.Background())
	cur, err := tx.Get("acct", k)
	if err != nil {
		tx.Abort()
		return nil // reads already failing is an acceptable way to be dead
	}
	if err := tx.Update("acct", acctRow(k, seq, cur[2].Float()+1)); err != nil {
		tx.Abort()
		return nil
	}
	return tx.Commit()
}

// verify checks the recovered engine against the model. inflight is the
// sequence number of the transaction killed by the crash (0 if none): it is
// the only non-acked transaction allowed to be absent-or-present — and even
// it may never be half-present.
func (m *model) verify(e core.Engine, inflight int64) error {
	tx := e.Begin(context.Background())
	defer tx.Abort()

	// Invariant 1+2: every acked transaction is fully present — its hist
	// row exists and its account version is at least as new.
	for seq, k := range m.acked {
		row, err := tx.Get("hist", seq)
		if err != nil {
			return fmt.Errorf("acked txn %d lost its hist row: %w", seq, err)
		}
		if row[1].Int() != k {
			return fmt.Errorf("hist %d points at acct %d, want %d", seq, row[1].Int(), k)
		}
	}
	for k, wantBal := range m.bal {
		row, err := tx.Get("acct", k)
		if err != nil {
			return fmt.Errorf("acct %d lost: %w", k, err)
		}
		if got := row[2].Float(); got != wantBal {
			return fmt.Errorf("acct %d balance = %v, want %v (acked prefix violated)", k, got, wantBal)
		}
		if got := row[1].Int(); got != m.ver[k] {
			return fmt.Errorf("acct %d version = %d, want %d", k, got, m.ver[k])
		}
	}

	// Invariant 3: no aborted transaction is visible.
	for _, seq := range m.aborted {
		if _, err := tx.Get("hist", seq); !errors.Is(err, core.ErrNotFound) {
			return fmt.Errorf("aborted txn %d visible after recovery (err=%v)", seq, err)
		}
	}
	// Invariant 1, other direction: nothing beyond the acked prefix. The
	// in-flight transaction was never acknowledged, so it must be gone —
	// its balance bump is already ruled out by the exact-balance check
	// above; its hist row must not exist either.
	if inflight > 0 {
		if _, err := tx.Get("hist", inflight); !errors.Is(err, core.ErrNotFound) {
			return fmt.Errorf("in-flight txn %d half-survived the crash (err=%v)", inflight, err)
		}
	}

	// Invariant 4: after Sync, the analytical path sees exactly the
	// transactional state.
	e.Sync()
	if got := e.Query(context.Background(), "hist", nil, nil).Count(); got != len(m.acked) {
		return fmt.Errorf("analytical hist count = %d, want %d acked", got, len(m.acked))
	}
	rows := e.Query(context.Background(), "acct", []string{"id", "ver", "bal"}, nil).Run()
	if len(rows) != len(m.bal) {
		return fmt.Errorf("analytical acct count = %d, want %d", len(rows), len(m.bal))
	}
	for _, row := range rows {
		k := row[0].Int()
		if row[2].Float() != m.bal[k] || row[1].Int() != m.ver[k] {
			return fmt.Errorf("column store acct %d = (ver %d, bal %v), row-store model wants (ver %d, bal %v)",
				k, row[1].Int(), row[2].Float(), m.ver[k], m.bal[k])
		}
	}

	// Architecture C's column store restarts cold; force a reload and check
	// the distributed columnar path explicitly.
	if cl, ok := e.(colLoader); ok {
		cl.LoadColumns("hist", []string{"id", "acct", "delta"})
		if got := cl.ColSource(context.Background(), "hist", []string{"id"}, nil).Count(); got != len(m.acked) {
			return fmt.Errorf("IMCS hist count = %d, want %d acked", got, len(m.acked))
		}
	}
	return nil
}

// colLoader is the extract-and-push-down surface of architecture C.
type colLoader interface {
	LoadColumns(table string, cols []string)
	ColSource(ctx context.Context, table string, cols []string, filter exec.Expr) *exec.Plan
}
