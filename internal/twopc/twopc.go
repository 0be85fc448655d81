// Package twopc implements two-phase commit over Raft-replicated
// partitions — the "2PC + Raft + logging" transaction-processing technique
// the paper attributes to TiDB (Table 2, §2.2(1)(ii)).
//
// Every protocol action is itself a Raft proposal, so locks and pending
// writes are replicated state: a participant's state machine is
// deterministic across its replicas, and leadership changes cannot lose
// prepared transactions. A transaction touching one partition takes the
// one-phase fast path (a single PREPARE+COMMIT proposal); a multi-partition
// transaction pays one Raft round for PREPARE on each participant and a
// second for COMMIT — which is exactly why the paper's Table 2 scores this
// technique "High Scalability / Low Efficiency".
package twopc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"htap/internal/cluster"
	"htap/internal/raft"
	"htap/internal/txn"
)

// Command kinds, the first byte of every replicated command.
const (
	cmdPrepare byte = 'P'
	cmdCommit  byte = 'C'
	cmdAbort   byte = 'A'
	cmdOneShot byte = 'O' // single-partition fast path: prepare+commit fused
)

// ErrConflict reports a prepare-time lock or version conflict.
var ErrConflict = errors.New("twopc: conflict")

// Storage is the partition-local state a participant mutates. Voter
// replicas install rows into a row store; learner replicas feed a columnar
// delta. Implementations must be deterministic given the same calls.
type Storage interface {
	// LatestVersion returns the newest committed version timestamp for the
	// key (0 when absent); prepare validation compares it to the
	// transaction's snapshot.
	LatestVersion(table uint32, key int64) uint64
	// ApplyMutations installs committed writes at commitTS.
	ApplyMutations(commitTS uint64, muts []txn.Write)
}

// --- command encoding ---

// Prepare carries a transaction's writes for one partition.
type Prepare struct {
	TxnID   uint64
	StartTS uint64
	Muts    []txn.Write
}

// EncodePrepare serializes a PREPARE command.
func EncodePrepare(p Prepare) raft.Command {
	buf := []byte{cmdPrepare}
	buf = binary.AppendUvarint(buf, p.TxnID)
	buf = binary.AppendUvarint(buf, p.StartTS)
	buf = appendWrites(buf, p.Muts)
	return buf
}

// EncodeOneShot serializes the single-partition fast-path command.
func EncodeOneShot(txnID, startTS, commitTS uint64, muts []txn.Write) raft.Command {
	buf := []byte{cmdOneShot}
	buf = binary.AppendUvarint(buf, txnID)
	buf = binary.AppendUvarint(buf, startTS)
	buf = binary.AppendUvarint(buf, commitTS)
	buf = appendWrites(buf, muts)
	return buf
}

// EncodeCommit serializes a COMMIT command.
func EncodeCommit(txnID, commitTS uint64) raft.Command {
	buf := []byte{cmdCommit}
	buf = binary.AppendUvarint(buf, txnID)
	buf = binary.AppendUvarint(buf, commitTS)
	return buf
}

// EncodeAbort serializes an ABORT command.
func EncodeAbort(txnID uint64) raft.Command {
	buf := []byte{cmdAbort}
	buf = binary.AppendUvarint(buf, txnID)
	return buf
}

// appendWrites appends a count, then each write in txn.AppendWrite form.
func appendWrites(buf []byte, ws []txn.Write) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ws)))
	for _, w := range ws {
		buf = txn.AppendWrite(buf, w)
	}
	return buf
}

func decodeWrites(b []byte) ([]txn.Write, error) {
	cnt, n := binary.Uvarint(b)
	// A write takes at least three bytes (op, table, key): a larger count
	// is corrupt, and checking it first bounds the allocation below.
	if n <= 0 || cnt > uint64(len(b)-n)/3 {
		return nil, fmt.Errorf("twopc: bad write count")
	}
	b = b[n:]
	ws := make([]txn.Write, cnt)
	for i := range ws {
		w, n, err := txn.DecodeWrite(b)
		if err != nil {
			return nil, err
		}
		ws[i], b = w, b[n:]
	}
	return ws, nil
}

// --- participant ---

type lockKey struct {
	table uint32
	key   int64
}

type pendingTxn struct {
	startTS uint64
	muts    []txn.Write
	locks   []lockKey
	// floor is the highest commit timestamp installed before the prepare.
	// The transaction's own commit timestamp is drawn after every prepare
	// applied, and so after everything ahead of it in the log: it is
	// higher than floor.
	floor uint64
}

// Participant is the deterministic per-replica state machine. Feed every
// committed Raft command of the partition to Apply, in order.
type Participant struct {
	store Storage

	mu       sync.Mutex
	locks    map[lockKey]uint64 // -> txn id
	pending  map[uint64]*pendingTxn
	verdicts map[uint64]error // prepare outcomes, consumed by the coordinator
	applied  uint64           // highest commitTS installed
}

// NewParticipant wraps storage in a 2PC state machine.
func NewParticipant(store Storage) *Participant {
	return &Participant{
		store:    store,
		locks:    make(map[lockKey]uint64),
		pending:  make(map[uint64]*pendingTxn),
		verdicts: make(map[uint64]error),
	}
}

// Apply executes one committed command. It must be called in Raft log
// order.
func (p *Participant) Apply(cmd raft.Command) {
	if len(cmd) == 0 {
		return
	}
	b := []byte(cmd[1:])
	switch cmd[0] {
	case cmdPrepare:
		txnID, n := binary.Uvarint(b)
		b = b[n:]
		startTS, n := binary.Uvarint(b)
		b = b[n:]
		muts, err := decodeWrites(b)
		if err != nil {
			panic(fmt.Sprintf("twopc: corrupt prepare: %v", err))
		}
		p.applyPrepare(txnID, startTS, muts)
	case cmdOneShot:
		txnID, n := binary.Uvarint(b)
		b = b[n:]
		startTS, n := binary.Uvarint(b)
		b = b[n:]
		commitTS, n := binary.Uvarint(b)
		b = b[n:]
		muts, err := decodeWrites(b)
		if err != nil {
			panic(fmt.Sprintf("twopc: corrupt one-shot: %v", err))
		}
		if p.applyPrepare(txnID, startTS, muts) == nil {
			p.applyCommit(txnID, commitTS)
		}
		// On failure nothing was installed (applyPrepare is all-or-nothing)
		// and the verdict MUST survive for the coordinator to read — an
		// applyAbort here would erase it and turn the conflict into a
		// silent lost update.
	case cmdCommit:
		txnID, n := binary.Uvarint(b)
		b = b[n:]
		commitTS, _ := binary.Uvarint(b)
		p.applyCommit(txnID, commitTS)
	case cmdAbort:
		txnID, _ := binary.Uvarint(b)
		p.applyAbort(txnID)
	}
}

func (p *Participant) applyPrepare(txnID, startTS uint64, muts []txn.Write) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Validate: every key unlocked and unchanged since the snapshot.
	var err error
	for _, m := range muts {
		k := lockKey{m.Table, m.Key}
		if holder, locked := p.locks[k]; locked && holder != txnID {
			err = fmt.Errorf("%w: key %d locked by txn %d", ErrConflict, m.Key, holder)
			break
		}
		if v := p.store.LatestVersion(m.Table, m.Key); v > startTS {
			err = fmt.Errorf("%w: key %d has version %d > snapshot %d", ErrConflict, m.Key, v, startTS)
			break
		}
	}
	p.verdicts[txnID] = err
	// Only the leader's verdict is consumed; bound the map on replicas
	// that never serve coordinators.
	if len(p.verdicts) > 1<<14 {
		for id := range p.verdicts {
			delete(p.verdicts, id)
			if len(p.verdicts) <= 1<<13 {
				break
			}
		}
	}
	if err != nil {
		return err
	}
	pt := &pendingTxn{startTS: startTS, muts: muts, floor: p.applied}
	for _, m := range muts {
		k := lockKey{m.Table, m.Key}
		p.locks[k] = txnID
		pt.locks = append(pt.locks, k)
	}
	p.pending[txnID] = pt
	return nil
}

func (p *Participant) applyCommit(txnID, commitTS uint64) {
	p.mu.Lock()
	pt := p.pending[txnID]
	p.mu.Unlock()
	if pt == nil {
		return // duplicate or post-abort commit: idempotent no-op
	}
	// Install first: until the transaction leaves pending, SafeTS stays
	// below commitTS. Apply runs in log order on one
	// goroutine, so nothing else touches these locks meanwhile.
	p.store.ApplyMutations(commitTS, pt.muts)
	p.mu.Lock()
	delete(p.pending, txnID)
	for _, k := range pt.locks {
		if p.locks[k] == txnID {
			delete(p.locks, k)
		}
	}
	if commitTS > p.applied {
		p.applied = commitTS
	}
	delete(p.verdicts, txnID)
	p.mu.Unlock()
}

func (p *Participant) applyAbort(txnID uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pt := p.pending[txnID]
	if pt != nil {
		delete(p.pending, txnID)
		for _, k := range pt.locks {
			if p.locks[k] == txnID {
				delete(p.locks, k)
			}
		}
	}
	delete(p.verdicts, txnID)
}

// Verdict returns and consumes the prepare outcome for txnID.
func (p *Participant) Verdict(txnID uint64) (error, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	err, ok := p.verdicts[txnID]
	if ok {
		delete(p.verdicts, txnID)
	}
	return err, ok
}

// SafeTS returns a timestamp at or below which every transaction that
// wrote to this partition is installed here. It is the highest commit
// installed, held below each prepared transaction's floor: a transaction whose commit has not
// applied yet commits above its floor, and one whose prepare has not
// applied yet commits above everything installed so far.
func (p *Participant) SafeTS() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.applied
	for _, pt := range p.pending {
		s = min(s, pt.floor)
	}
	return s
}

// LockCount reports currently held locks (tests and stats).
func (p *Participant) LockCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.locks)
}

// --- coordinator ---

// Oracle supplies globally ordered timestamps (TiDB's placement-driver TSO;
// here the txn.Oracle).
type Oracle interface {
	Next() uint64
	Current() uint64
	Advance(ts uint64)
}

// Coordinator commits write sets across Raft-replicated partitions. It only
// routes: each partition a transaction touches becomes a raftBranch, and
// CommitAll — the one place prepare→decide→commit is sequenced — drives
// them. It is stateless across transactions and safe for concurrent use.
type Coordinator struct {
	oracle Oracle
	parts  int
	route  func(table uint32, key int64) int
	// propose replicates cmd through a partition's Raft group and returns
	// once it is committed and applied on the leader.
	propose func(part int, cmd raft.Command) error
	// participantAt returns the leader-local participant of a partition,
	// used to read prepare verdicts after a proposal applies.
	participantAt func(part int) *Participant

	nextTxn atomic.Uint64

	// tsMu guards the decided commit timestamps whose transaction is still
	// committing, and each partition's newest commit. The oracle's
	// watermark stays below the oldest in flight, so it is a prefix: every
	// commit at or below it has finished, and a transaction reading there
	// cannot miss one that commits below it.
	tsMu     sync.Mutex
	inflight map[uint64]struct{}
	last     map[int]uint64
}

// NewCoordinator builds a coordinator over the cluster.
func NewCoordinator(c *cluster.Cluster, o Oracle, participantAt func(part int) *Participant) *Coordinator {
	return &Coordinator{
		oracle:        o,
		parts:         len(c.Partitions),
		route:         func(table uint32, key int64) int { return c.Route(table, key).ID },
		propose:       func(part int, cmd raft.Command) error { return c.Partitions[part].Propose(cmd) },
		participantAt: participantAt,
	}
}

// decideTS draws a commit timestamp and records it as in flight.
func (c *Coordinator) decideTS() uint64 {
	c.tsMu.Lock()
	defer c.tsMu.Unlock()
	ts := c.oracle.Next()
	if c.inflight == nil {
		c.inflight, c.last = make(map[uint64]struct{}), make(map[int]uint64)
	}
	c.inflight[ts] = struct{}{}
	return ts
}

// finished retires a decided timestamp, whatever the outcome: it records a
// commit on the partitions it wrote, then raises the watermark to just
// below the oldest timestamp still in flight.
func (c *Coordinator) finished(ts uint64, parts []int) {
	c.tsMu.Lock()
	defer c.tsMu.Unlock()
	delete(c.inflight, ts)
	for _, p := range parts {
		c.last[p] = max(c.last[p], ts)
	}
	wm := c.oracle.Current()
	for t := range c.inflight {
		wm = min(wm, t-1)
	}
	c.oracle.Advance(wm)
}

// Commit commits a write set captured at startTS and returns the commit
// timestamp. A write set on one partition takes CommitAll's single-branch
// fast path (one Raft round); failures are CommitAll's: a prepare failure
// or conflict aborted everything and is safe to retry, an
// IndeterminateError is not.
func (c *Coordinator) Commit(ctx context.Context, startTS uint64, muts []txn.Write) (uint64, error) {
	if len(muts) == 0 {
		return startTS, nil
	}
	t := &raftTxn{c: c, id: c.nextTxn.Add(1), startTS: startTS}
	byPart := make([][]txn.Write, c.parts)
	for _, m := range muts {
		pid := c.route(m.Table, m.Key)
		byPart[pid] = append(byPart[pid], m)
	}
	var branches []TxParticipant
	var parts []int
	for pid, ms := range byPart {
		if len(ms) > 0 {
			branches = append(branches, &raftBranch{txn: t, part: pid, muts: ms})
			parts = append(parts, pid)
		}
	}
	err := CommitAll(ctx, branches...)
	if t.commitTS != 0 {
		if err != nil {
			parts = nil
		}
		c.finished(t.commitTS, parts)
	}
	if err != nil {
		return 0, err
	}
	return t.commitTS, nil
}

// LastCommit returns the newest commit timestamp that wrote to partition
// part. The watermark never passes a commit before it is recorded here.
func (c *Coordinator) LastCommit(part int) uint64 {
	c.tsMu.Lock()
	defer c.tsMu.Unlock()
	return c.last[part]
}

// raftTxn is the state the branches of one transaction share.
type raftTxn struct {
	c           *Coordinator
	id, startTS uint64

	decided  sync.Once
	commitTS uint64
}

// decide draws the commit timestamp, once, when the first branch is told to
// commit — which CommitAll does only after every prepare succeeded.
func (t *raftTxn) decide() uint64 {
	t.decided.Do(func() { t.commitTS = t.c.decideTS() })
	return t.commitTS
}

// raftBranch is one partition's share of a transaction as a TxParticipant:
// every protocol step is a proposal to the partition's Raft log, so
// prepared state survives leader changes and replays on recovery.
type raftBranch struct {
	txn      *raftTxn
	part     int
	muts     []txn.Write
	prepared bool
}

// Name implements TxParticipant.
func (b *raftBranch) Name() string { return fmt.Sprintf("partition-%d", b.part) }

func (b *raftBranch) propose(cmd raft.Command) error { return b.txn.c.propose(b.part, cmd) }

// verdict reads the leader's outcome of the prepare just applied. A missing
// verdict means it was consumed on another replica (the leader moved
// between apply and read); that counts as success because commit
// application is idempotent and validation is deterministic.
func (b *raftBranch) verdict() error {
	err, _ := b.txn.c.participantAt(b.part).Verdict(b.txn.id)
	return err
}

// Prepare implements TxParticipant.
func (b *raftBranch) Prepare(context.Context) error {
	b.prepared = true
	if err := b.propose(EncodePrepare(Prepare{TxnID: b.txn.id, StartTS: b.txn.startTS, Muts: b.muts})); err != nil {
		return err
	}
	return b.verdict()
}

// Commit implements TxParticipant. A branch that was never prepared is the
// driver's single-branch fast path: prepare and commit fuse into one
// proposal, whose verdict is the commit's outcome.
func (b *raftBranch) Commit(context.Context) error {
	t := b.txn
	if b.prepared {
		return b.propose(EncodeCommit(t.id, t.decide()))
	}
	if err := b.propose(EncodeOneShot(t.id, t.startTS, t.decide(), b.muts)); err != nil {
		return err
	}
	return b.verdict()
}

// Abort implements TxParticipant. Best-effort, as that contract allows: a
// partition that cannot take the proposal now cannot be helped by the
// caller either.
func (b *raftBranch) Abort(context.Context) { _ = b.propose(EncodeAbort(b.txn.id)) }
