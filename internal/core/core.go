// Package core implements the paper's subject matter: the four HTAP
// storage architectures of Figure 1, each composed from the repository's
// substrates behind one Engine interface.
//
//	A  PrimaryRowIMC   — primary row store + in-memory column store
//	                     (Oracle dual-format, SQL Server CSI, DB2 BLU)
//	B  DistRowColRep   — distributed row store + column store replica (TiDB)
//	C  DiskRowDistCol  — disk row store + distributed column store
//	                     (MySQL Heatwave)
//	D  PrimaryColDelta — primary column store + delta row store (SAP HANA)
//
// The Engine interface exposes a transactional point-access API (the OLTP
// side), analytical snapshots that plan scans under the architecture's
// technique (the OLAP side), and control hooks for data synchronization
// and execution mode, so the benchmark harness can run identical workloads
// against every architecture and regenerate the paper's Table 1.
//
// Every architecture reads through one mechanism (replica.go): a replica
// pairs immutable column versions with the delta that feeds them, and a
// Snapshot fixes one read timestamp per query and captures every replica
// at it, so all scans of a query read one committed state.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"htap/internal/disk"
	"htap/internal/exec"
	"htap/internal/sched"
	"htap/internal/twopc"
	"htap/internal/txn"
	"htap/internal/types"
)

// Arch identifies a storage architecture from Figure 1.
type Arch uint8

// The four architectures.
const (
	ArchA Arch = iota + 1 // Primary Row Store + In-Memory Column Store
	ArchB                 // Distributed Row Store + Column Store Replica
	ArchC                 // Disk Row Store + Distributed Column Store
	ArchD                 // Primary Column Store + Delta Row Store
)

// String implements fmt.Stringer.
func (a Arch) String() string {
	switch a {
	case ArchA:
		return "A/PrimaryRow+InMemCol"
	case ArchB:
		return "B/DistRow+ColReplica"
	case ArchC:
		return "C/DiskRow+DistCol"
	case ArchD:
		return "D/PrimaryCol+DeltaRow"
	default:
		return fmt.Sprintf("Arch(%d)", uint8(a))
	}
}

// The existence rule's errors, on every architecture: ErrNotFound for a
// read, update or delete of a key that is not live, ErrDuplicate for an
// insert of one that is. Neither is retryable.
var (
	ErrNotFound  = txn.ErrNotFound
	ErrDuplicate = txn.ErrDuplicate
)

// ErrNoTable reports an unregistered table.
var ErrNoTable = errors.New("core: no such table")

// Tx is one OLTP transaction against an engine.
type Tx interface {
	Get(table string, key int64) (types.Row, error)
	Insert(table string, row types.Row) error
	Update(table string, row types.Row) error
	Delete(table string, key int64) error
	Commit() error
	Abort()
}

// Stats aggregates engine counters for the experiment harness.
type Stats struct {
	Commits   int64
	Aborts    int64
	Conflicts int64
	Merges    int64
	Rebuilds  int64
	ColBytes  int
	DeltaRows int
	Disk      disk.Stats
}

// Freshness is one reading of how stale analytical reads are, in commit
// timestamps and in wall time (Bouzeghoub's currency, which the paper
// cites [9]): CommitTS is the watermark, AppliedTS the read point a
// snapshot opened now pins, LagTS the commits between them, and LagTime
// how long ago the oldest of those committed.
type Freshness struct {
	CommitTS, AppliedTS, LagTS uint64
	LagTime                    time.Duration
}

// Fresh reports whether a snapshot opened now would see every commit.
func (f Freshness) Fresh() bool { return f.LagTS == 0 }

// Beginner is the transactional entry point shared by local engines and
// the network client's remote engine: anything that can start an OLTP
// transaction under a context. Exec and the CH driver depend only on this.
type Beginner interface {
	// Begin starts an OLTP transaction. The context is bound to the
	// transaction: a cancelled or expired context fails Commit, so a
	// disconnected network session cannot publish writes after its client
	// has given up.
	Begin(ctx context.Context) Tx
}

// Engine is one storage architecture.
type Engine interface {
	Name() string
	Arch() Arch
	Tables() []*types.Schema
	Schema(table string) *types.Schema

	// Begin starts an OLTP transaction bound to ctx (see Beginner).
	Begin(ctx context.Context) Tx
	// Load bulk-loads a row outside transactions (benchmark setup). The
	// row lands in both stores so experiments start synchronized.
	Load(table string, row types.Row) error

	// Snapshot opens an analytical read point under the engine's AP
	// technique and mode. Its scans poll ctx between batches: cancelling
	// it (client disconnect, deadline) abandons the remaining segments
	// mid-scan. The caller closes it when its plans have run.
	Snapshot(ctx context.Context) Snapshot
	// Query is shorthand for Snapshot(ctx).Query(table, cols, filter): a
	// one-scan query keeping the rows filter passes (every row when nil).
	// It closes its snapshot itself.
	Query(ctx context.Context, table string, cols []string, filter exec.Expr) *exec.Plan

	// Sync forces one data-synchronization round (delta merge / rebuild).
	Sync()
	// SetMode picks the read point of the snapshots opened from now on:
	// Shared reads at the newest commit the analytical side can serve
	// (fresh; scans overlay the live delta), Isolated at the point the
	// last merge ran to (stale; scans overlay only what that merge has yet
	// to publish). Both read one committed state.
	SetMode(m sched.Mode)
	// Freshness reports how far the read point a snapshot opened now
	// would pin trails the newest commit.
	Freshness() Freshness
	Stats() Stats
	Close()
}

// Snapshot is one analytical read point. Every scan it plans reads the
// same committed state — the commits at or below ReadTS, and no later
// ones — however many tables a query touches and however long it runs.
type Snapshot interface {
	// ReadTS is the commit timestamp the snapshot reads at.
	ReadTS() uint64
	// Query plans a scan of table (all columns when cols is nil) under the
	// engine's degree of parallelism and memory governor, keeping the rows
	// filter passes (every row when filter is nil). The plan equals
	// Query(table, cols, nil).Filter(filter); passing the filter here also
	// lets the access path read it (C's planner, a key-range row scan).
	Query(table string, cols []string, filter exec.Expr) *exec.Plan
	// Close releases the read point: row versions only it could see may
	// then be pruned. Plans built before Close stay valid, since every
	// scan is planned from immutable versions or materialized rows, but no
	// scan may be planned after it. Closing twice is harmless.
	Close()
}

// Indexer is implemented by engines whose primary row store supports
// secondary indexes (architectures A and C). Lookups return candidate
// primary keys whose current image matches; transactional callers re-read
// each key at their snapshot.
type Indexer interface {
	// AddIndex registers a named index derived from the row image.
	AddIndex(table, name string, key func(types.Row) int64) error
	// IndexLookup returns the primary keys indexed under k.
	IndexLookup(table, name string, k int64) []int64
}

// Exec runs fn in a transaction with bounded conflict retries, the loop
// every benchmark driver needs. The retry loop stops as soon as ctx is
// cancelled, returning the context error.
func Exec(ctx context.Context, e Beginner, fn func(Tx) error) error {
	var last error
	for attempt := 0; attempt < 64; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		tx := e.Begin(ctx)
		if err := fn(tx); err != nil {
			tx.Abort()
			if retryable(err) {
				last = err
				backoff(attempt)
				continue
			}
			return err
		}
		if err := tx.Commit(); err != nil {
			if retryable(err) {
				last = err
				backoff(attempt)
				continue
			}
			return err
		}
		return nil
	}
	return fmt.Errorf("core: transaction gave up after retries: %w", last)
}

// IsRetryable reports whether err is a transient failure a caller should
// retry (conflicts, stale reads, self-declared retryable errors). The
// network server uses it to map engine errors onto wire error codes.
func IsRetryable(err error) bool { return retryable(err) }

func retryable(err error) bool {
	// Errors may declare themselves retryable — the wire protocol's typed
	// errors (conflict, overloaded) cross the network this way without core
	// depending on the wire package.
	var r interface{ Retryable() bool }
	if errors.As(err, &r) {
		return r.Retryable()
	}
	return errors.Is(err, txn.ErrConflict) ||
		errors.Is(err, txn.ErrReadStale) ||
		errors.Is(err, twopc.ErrConflict)
}

// ctxOrBackground guards engine entry points against nil contexts.
func ctxOrBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

func backoff(attempt int) {
	if attempt > 2 {
		d := time.Duration(attempt) * 50 * time.Microsecond
		if d > 2*time.Millisecond {
			d = 2 * time.Millisecond
		}
		time.Sleep(d)
	}
}

// tableSet is the shared name->schema registry.
type tableSet struct {
	schemas []*types.Schema
	byName  map[string]int
}

func newTableSet(schemas []*types.Schema) *tableSet {
	ts := &tableSet{schemas: schemas, byName: make(map[string]int, len(schemas))}
	for i, s := range schemas {
		ts.byName[s.Name] = i
	}
	return ts
}

func (ts *tableSet) id(name string) (uint32, error) {
	i, ok := ts.byName[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return uint32(i), nil
}

func (ts *tableSet) mustID(name string) uint32 {
	id, err := ts.id(name)
	if err != nil {
		panic(err)
	}
	return id
}

func (ts *tableSet) schema(name string) *types.Schema {
	if i, ok := ts.byName[name]; ok {
		return ts.schemas[i]
	}
	return nil
}

// Paralleler is implemented by engines whose analytical queries run with a
// configurable degree of parallelism. Zero (the default) means
// exec.DefaultParallelism, i.e. GOMAXPROCS at query time.
type Paralleler interface {
	SetParallelism(n int)
}
