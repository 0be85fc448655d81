package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"htap/internal/disk"
	"htap/internal/txn"
	"htap/internal/types"
	"htap/internal/wal"
)

// walEngine is the commit path of the three single-node architectures
// (A, C, D): one timestamp authority, one redo log, and MVCC + logging
// (§2.2(1)(i)) spelled once. What distinguishes the architectures is where
// a committed write set lands — their install step — and live commit and
// crash recovery both run exactly that step, so the two cannot drift apart:
//
//	an architecture = install + replicas + Sync
type walEngine struct {
	engineBase
	walDev *disk.Device
	wal    *wal.Log
	// install lands one committed transaction in the architecture's stores
	// at commitTS. writes is ordered by table id (see tableOrdered); commits
	// and replays are serialized by the caller, and install cannot fail:
	// every check ran while the writes were buffered.
	install func(commitTS uint64, writes []txn.Write)
}

func (e *walEngine) init(a Arch, name string, schemas []*types.Schema, parallelism int, install func(uint64, []txn.Write)) {
	e.engineBase.init(a, name, schemas, parallelism)
	e.walDev = disk.New(disk.DefaultConfig())
	e.wal = wal.New(e.walDev, e.walName())
	e.install = install
}

func (e *walEngine) walName() string { return "wal-" + strings.ToLower(e.arch.Label()) }

// WALDevice exposes the engine's redo-log device so callers can simulate a
// crash-restart cycle (tests, chaos harness, examples).
func (e *walEngine) WALDevice() *disk.Device { return e.walDev }

// commit is the one commit sequence of A, C and D (the txStore hook):
// redo records in table-id order, the COMMIT record (whose flush makes the
// transaction durable), then the architecture's install. Write-ahead for
// real: a WAL failure — an injected fault, a crashed device — aborts the
// transaction before anything is installed. The record order must be
// deterministic so a seeded fault plan tears the log at the same record
// boundary on every run. It returns the commit timestamp.
func (e *walEngine) commit(_ context.Context, tx *txn.Txn) (uint64, error) {
	return tx.Commit(func(commitTS uint64, writes []txn.Write) error {
		writes = tableOrdered(writes)
		for _, w := range writes {
			if _, err := e.wal.Append(wal.Record{Txn: tx.ID, Type: wal.RecType(w.Op), Table: w.Table, Key: w.Key, Row: w.Row}); err != nil {
				return fmt.Errorf("core: wal append: %w", err)
			}
		}
		if _, err := e.wal.Append(wal.Record{Txn: tx.ID, Type: wal.RecCommit}); err != nil {
			return fmt.Errorf("core: wal commit: %w", err)
		}
		e.install(commitTS, writes)
		return nil
	})
}

// tableOrdered returns writes ordered by table id, keeping each table's
// writes in the order the transaction made them. The input is not modified;
// a write set already in order (every single-table transaction) is returned
// as is.
func tableOrdered(writes []txn.Write) []txn.Write {
	inOrder := true
	for i := 1; i < len(writes) && inOrder; i++ {
		inOrder = writes[i-1].Table <= writes[i].Table
	}
	if inOrder {
		return writes
	}
	out := append([]txn.Write(nil), writes...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

// eachTable calls fn with each table's run of a table-ordered write set.
func eachTable(writes []txn.Write, fn func(table uint32, ws []txn.Write)) {
	for i := 0; i < len(writes); {
		j := i + 1
		for j < len(writes) && writes[j].Table == writes[i].Table {
			j++
		}
		fn(writes[i].Table, writes[i:j])
		i = j
	}
}

// readPoint implements columnar: commits serialize and install before the
// watermark passes them, so every commit at or below it is in the stores.
func (e *walEngine) readPoint() uint64 { return e.mgr.Oracle().Watermark() }
