package core

import (
	"fmt"
	"time"

	"htap/internal/disk"
	"htap/internal/txn"
	"htap/internal/wal"
)

// recover replays the redo log on dev (the device a previous instance wrote
// its WAL to) into a freshly built engine, and adopts device and log so new
// commits append after the recovered history. Only transactions whose
// COMMIT record is durable are replayed — the group-commit tail that never
// reached the device is lost — and LSN and transaction-id assignment resume
// past everything the log holds.
func (e *walEngine) recover(dev *disk.Device) error {
	e.walDev = dev
	e.wal = wal.New(dev, e.walName())
	sum, err := replayLog(e.wal, e.replayTxn)
	if err != nil {
		return err
	}
	e.wal.SetNextLSN(sum.MaxLSN + 1)
	e.mgr.AdvanceTxnID(sum.maxTxn)
	return nil
}

// replayTxn installs one committed transaction's writes through the same
// install step a live commit runs, at a fresh timestamp drawn in log order,
// so post-recovery snapshots observe the original commit order.
func (e *walEngine) replayTxn(writes []txn.Write) error {
	if len(writes) == 0 {
		return nil
	}
	for _, w := range writes {
		if int(w.Table) >= len(e.ts.schemas) {
			return fmt.Errorf("unknown table id %d", w.Table)
		}
	}
	commitTS := e.mgr.Oracle().Next()
	e.install(commitTS, tableOrdered(writes))
	e.mgr.Oracle().Advance(commitTS)
	e.commitAt.note(commitTS, time.Now())
	return nil
}

// replaySummary is what one redo pass learned about the log.
type replaySummary struct {
	wal.ReplayResult
	maxTxn uint64 // highest transaction id seen, committed or not
}

// replayLog drives one ARIES-style redo pass over a WAL: DML records are
// staged per transaction as writes (a record's type is its write's op) and
// installed (via install) when their COMMIT record appears; transactions
// without a durable COMMIT — including any torn group-commit tail the log
// discarded — are dropped, exactly as §2.2(1)'s "MVCC + logging" promises. It returns the replay summary so callers can
// resume LSN and transaction-id assignment after the recovered history.
func replayLog(l *wal.Log, install func(writes []txn.Write) error) (replaySummary, error) {
	var sum replaySummary
	pending := make(map[uint64][]txn.Write)
	res, err := l.Replay(func(r wal.Record) error {
		if r.Txn > sum.maxTxn {
			sum.maxTxn = r.Txn
		}
		switch r.Type {
		case wal.RecInsert, wal.RecUpdate, wal.RecDelete:
			pending[r.Txn] = append(pending[r.Txn], txn.Write{Table: r.Table, Op: txn.Op(r.Type), Key: r.Key, Row: r.Row})
		case wal.RecCommit:
			writes := pending[r.Txn]
			delete(pending, r.Txn)
			if err := install(writes); err != nil {
				return fmt.Errorf("core: replaying txn %d: %w", r.Txn, err)
			}
		case wal.RecAbort:
			delete(pending, r.Txn)
		}
		return nil
	})
	sum.ReplayResult = res
	if err != nil {
		return sum, err
	}
	// Transactions left in pending never committed; they are dropped. A
	// torn tail is amputated from the device so post-recovery commits
	// append at a clean record boundary — otherwise every later replay
	// would stop at the tear and lose them.
	if res.DiscardedBytes > 0 {
		if terr := l.DiscardTornTail(res.DiscardedBytes); terr != nil {
			return sum, fmt.Errorf("core: repairing torn log tail: %w", terr)
		}
	}
	return sum, nil
}

// recovered finishes RecoverEngineA/C/D: replay the log on dev into the
// fresh engine e, then run one synchronization round, because replay lands
// writes where commits do and the analytical side should start current.
func recovered[E interface {
	Engine
	recover(*disk.Device) error
}](e E, dev *disk.Device) (E, error) {
	if err := e.recover(dev); err != nil {
		e.Close()
		var none E
		return none, err
	}
	e.Sync()
	return e, nil
}

// RecoverEngineA rebuilds an architecture-A engine from the redo log on dev.
func RecoverEngineA(cfg ConfigA, dev *disk.Device) (*EngineA, error) {
	return recovered(NewEngineA(cfg), dev)
}

// RecoverEngineC is RecoverEngineA for architecture C: committed
// transactions are reinstalled into the disk row store. The in-memory
// column store starts cold (no projections are loaded) — as after a real
// Heatwave restart — and is repopulated by the next LoadColumns/Reselect.
func RecoverEngineC(cfg ConfigC, dev *disk.Device) (*EngineC, error) {
	return recovered(NewEngineC(cfg), dev)
}

// RecoverEngineD is RecoverEngineA for architecture D: committed
// transactions are reinstalled through the layered store's L1-delta, then
// the synchronization round folds them down into Main.
func RecoverEngineD(cfg ConfigD, dev *disk.Device) (*EngineD, error) {
	return recovered(NewEngineD(cfg), dev)
}
