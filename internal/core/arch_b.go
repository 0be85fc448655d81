package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"htap/internal/cluster"
	"htap/internal/colstore"
	"htap/internal/datasync"
	"htap/internal/delta"
	"htap/internal/disk"
	"htap/internal/obs"
	"htap/internal/rowstore"
	"htap/internal/twopc"
	"htap/internal/txn"
	"htap/internal/types"
)

// ConfigB configures architecture B.
type ConfigB struct {
	Schemas     []*types.Schema
	Partitions  int
	VotersPer   int // row-store replicas per partition (TiKV peers)
	LearnersPer int // columnar replicas per partition (TiFlash peers)
	NetLatency  time.Duration
	// MergeInterval is the learners' background log-delta merge cadence;
	// zero merges only on explicit Sync().
	MergeInterval time.Duration
	// Parallelism is the degree of parallelism analytical queries run
	// with; zero means GOMAXPROCS. SetParallelism overrides it at runtime.
	Parallelism int
}

// voterStorage is one voting replica's state: MVCC row stores per table.
type voterStorage struct {
	rows []*rowstore.Store
}

// newVoterStorage returns a voter's stores; they prune behind pins, which
// holds the read timestamps of the engine's transactions.
func newVoterStorage(schemas []*types.Schema, pins *txn.Pins) *voterStorage {
	v := &voterStorage{}
	for i, s := range schemas {
		st := rowstore.New(uint32(i), s)
		st.SetPins(pins)
		v.rows = append(v.rows, st)
	}
	return v
}

// LatestVersion implements twopc.Storage.
func (v *voterStorage) LatestVersion(table uint32, key int64) uint64 {
	return v.rows[table].LatestVersion(key)
}

// ApplyMutations implements twopc.Storage.
func (v *voterStorage) ApplyMutations(commitTS uint64, writes []txn.Write) {
	eachTable(tableOrdered(writes), func(id uint32, ws []txn.Write) {
		v.rows[id].Apply(commitTS, ws)
	})
}

// learnerStorage is one columnar replica's state: per-table log-based
// delta files on a simulated disk plus the column store they merge into.
type learnerStorage struct {
	dev    *disk.Device
	deltas []*delta.Log
	cols   []*colstore.Table
}

func newLearnerStorage(pid int, schemas []*types.Schema) *learnerStorage {
	l := &learnerStorage{dev: disk.New(disk.DefaultConfig())}
	for i, s := range schemas {
		l.deltas = append(l.deltas, delta.NewLog(l.dev, fmt.Sprintf("p%d-t%d-delta", pid, i)))
		l.cols = append(l.cols, colstore.NewTable(s))
	}
	return l
}

// LatestVersion implements twopc.Storage. It must agree with the voters'
// answer for determinism: every write flows through the same log, so the
// newest delta entry's timestamp equals the row store's newest version.
func (l *learnerStorage) LatestVersion(table uint32, key int64) uint64 {
	return l.deltas[table].LatestTS(key)
}

// ApplyMutations implements twopc.Storage: committed writes land in the
// log-based delta files (the TiFlash write path).
func (l *learnerStorage) ApplyMutations(commitTS uint64, writes []txn.Write) {
	eachTable(tableOrdered(writes), func(id uint32, ws []txn.Write) {
		l.deltas[id].Append(commitTS, ws)
	})
}

// EngineB is architecture B (TiDB, §2.1(b)): transactions run under
// 2PC + Raft + logging across partitioned row-store replicas; the same
// Raft logs feed learner replicas holding columnar data, which merge their
// log-based delta files in the background. Workload isolation is high —
// analytical scans touch only learner state — and freshness is bounded by
// replication plus merge lag.
type EngineB struct {
	engineBase
	c     *cluster.Cluster
	coord *twopc.Coordinator
	cfg   ConfigB

	voters   map[int]map[int]*voterStorage // pid -> nodeID
	learners map[int]map[int]*learnerStorage
	parts    map[int]map[int]*twopc.Participant

	// lastRead is the highest read point handed out (see readPoint).
	lastRead atomic.Uint64
	// serving is each partition's learner that answers queries.
	serving []int
}

// NewEngineB builds and starts architecture B.
func NewEngineB(cfg ConfigB) *EngineB {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 2
	}
	if cfg.VotersPer <= 0 {
		cfg.VotersPer = 3
	}
	if cfg.LearnersPer <= 0 {
		cfg.LearnersPer = 1
	}
	e := &EngineB{
		cfg:      cfg,
		voters:   make(map[int]map[int]*voterStorage),
		learners: make(map[int]map[int]*learnerStorage),
		parts:    make(map[int]map[int]*twopc.Participant),
	}
	e.init(ArchB, "dist-row+col-replica", cfg.Schemas, cfg.Parallelism)
	e.serving = make([]int, cfg.Partitions)
	for pid := 0; pid < cfg.Partitions; pid++ {
		e.voters[pid] = make(map[int]*voterStorage)
		e.learners[pid] = make(map[int]*learnerStorage)
		e.parts[pid] = make(map[int]*twopc.Participant)
		for n := 0; n < cfg.VotersPer; n++ {
			vs := newVoterStorage(cfg.Schemas, e.pins)
			e.voters[pid][n] = vs
			e.parts[pid][n] = twopc.NewParticipant(vs)
		}
		for n := cfg.VotersPer; n < cfg.VotersPer+cfg.LearnersPer; n++ {
			ls := newLearnerStorage(pid, cfg.Schemas)
			for _, ct := range ls.cols {
				observeSelectivity(e.fb, ArchB, ct)
			}
			e.learners[pid][n] = ls
			e.parts[pid][n] = twopc.NewParticipant(ls)
		}
		e.serving[pid] = cfg.VotersPer // one learner per partition serves queries
	}
	e.reps = make([][]*replica, len(cfg.Schemas))
	for id := range e.reps {
		for pid := range cfg.Partitions {
			ls := e.learners[pid][e.serving[pid]]
			e.reps[id] = append(e.reps[id], &replica{parts: []*colstore.Table{ls.cols[id]}, delta: ls.deltas[id]})
		}
	}
	e.c = cluster.New(cluster.Config{
		Partitions: cfg.Partitions, VotersPer: cfg.VotersPer, LearnersPer: cfg.LearnersPer,
		NetLatency: cfg.NetLatency, CompactEvery: 4096,
		Apply: func(part, nodeID int, learner bool, cmd []byte) {
			e.parts[part][nodeID].Apply(cmd)
		},
	})
	if err := e.c.WaitReady(10 * time.Second); err != nil {
		panic(err)
	}
	e.coord = twopc.NewCoordinator(e.c, e.mgr.Oracle(), func(part int) *twopc.Participant {
		l := e.c.Partitions[part].Leader()
		if l == nil {
			return e.parts[part][0]
		}
		return e.parts[part][l.Status().ID]
	})
	e.serve(e, func() disk.Stats { return e.Stats().Disk }, e.rowVersions)
	e.every(cfg.MergeInterval, e.Sync)
	return e
}

// leaderRows returns the row store of table at the current leader of the
// partition that owns key.
func (e *EngineB) leaderRows(table uint32, key int64) *rowstore.Store {
	pid := e.c.Route(table, key).ID
	vs := e.voters[pid][0]
	if l := e.c.Partitions[pid].Leader(); l != nil {
		vs = e.voters[pid][l.Status().ID]
	}
	return vs.rows[table]
}

// Lookup implements txn.Reader: transactions read partition leaders at
// their snapshot.
func (e *EngineB) Lookup(table uint32, key int64, ts uint64) (types.Row, bool, uint64) {
	return e.leaderRows(table, key).Lookup(table, key, ts)
}

// read implements txStore.
func (e *EngineB) read(table uint32, key int64, ts uint64) (types.Row, bool) {
	row, live, _ := e.Lookup(table, key, ts)
	return row, live
}

// commit implements txStore: the write set commits through the 2PC
// coordinator — one Raft round on one partition, prepare and commit rounds
// across several — which draws the commit timestamp from the engine's
// oracle itself. An error matching twopc.ErrIndeterminate means some
// partitions may have committed: it must not be retried.
func (e *EngineB) commit(ctx context.Context, tx *txn.Txn) (uint64, error) {
	return tx.CommitWith(func(readTS uint64, writes []txn.Write) (uint64, error) {
		return e.coord.Commit(ctx, readTS, writes)
	})
}

// Load implements Engine: rows are installed directly on every replica of
// the owning partition (row stores on voters, column stores on learners),
// bypassing consensus, so experiments start from a synchronized state.
func (e *EngineB) Load(table string, row types.Row) error {
	id, err := e.ts.id(table)
	if err != nil {
		return err
	}
	if err := e.ts.schemas[id].Validate(row); err != nil {
		return err
	}
	pid := e.c.Route(id, e.ts.schemas[id].Key(row)).ID
	for _, vs := range e.voters[pid] {
		if err := vs.rows[id].Load(row); err != nil {
			return err
		}
	}
	for _, ls := range e.learners[pid] {
		ls.cols[id].Append(row)
	}
	return nil
}

// Sync implements Engine: every learner merges its log-based delta files
// into its column store, up to the read point — never past it, so no
// snapshot finds a column version newer than what it reads.
func (e *EngineB) Sync() {
	e.syncRound(func(sp *obs.Span, upTo uint64) {
		for pid := 0; pid < e.cfg.Partitions; pid++ {
			for n, ls := range e.learners[pid] {
				child := sp.Child("learner").AttrInt("partition", int64(pid)).AttrInt("node", int64(n))
				for tid := range ls.cols {
					datasync.MergeDelta(ls.cols[tid], ls.deltas[tid], upTo)
				}
				child.End()
			}
		}
	})
}

// readPoint implements columnar. The watermark is a prefix of finished
// commits (twopc.Coordinator), and per partition the serving learner's
// SafeTS bounds it — every transaction at or below that touched the
// partition is installed on the learner — unless the learner is safe up to
// the partition's last commit (an idle partition cannot hold reads back).
// So a cross-partition commit is read on every partition or on none. The
// minimum is the read point, and it never moves back.
func (e *EngineB) readPoint() uint64 {
	r := e.mgr.Oracle().Watermark()
	for pid := 0; pid < e.cfg.Partitions; pid++ {
		if safe := e.parts[pid][e.serving[pid]].SafeTS(); safe < e.coord.LastCommit(pid) {
			r = min(r, safe)
		}
	}
	for {
		cur := e.lastRead.Load()
		if r <= cur {
			return cur
		}
		if e.lastRead.CompareAndSwap(cur, r) {
			return r
		}
	}
}

// rowVersions is the number of row versions every voter's stores hold.
func (e *EngineB) rowVersions() int64 {
	var n int64
	for _, vs := range e.voters {
		for _, v := range vs {
			for _, s := range v.rows {
				n += s.Versions()
			}
		}
	}
	return n
}

// Stats implements Engine.
func (e *EngineB) Stats() Stats {
	st := e.txnStats()
	for pid := 0; pid < e.cfg.Partitions; pid++ {
		for _, ls := range e.learners[pid] {
			d := ls.dev.Stats()
			st.Disk.ReadOps += d.ReadOps
			st.Disk.WriteOps += d.WriteOps
			st.Disk.ReadBytes += d.ReadBytes
			st.Disk.WriteBytes += d.WriteBytes
			for tid := range ls.cols {
				cs := ls.cols[tid].Stats()
				st.Merges += cs.Merges
				st.ColBytes += cs.Bytes
				st.DeltaRows += ls.deltas[tid].Unmerged()
			}
		}
	}
	return st
}

// Close implements Engine.
func (e *EngineB) Close() {
	e.engineBase.Close()
	e.c.Stop()
}
