package twopc

import (
	"errors"
	"sync"
	"testing"

	"htap/internal/txn"
	"htap/internal/types"
)

// memStorage is a deterministic map-backed Storage.
type memStorage struct {
	mu       sync.Mutex
	rows     map[int64]types.Row
	versions map[int64]uint64
}

func newMemStorage() *memStorage {
	return &memStorage{rows: make(map[int64]types.Row), versions: make(map[int64]uint64)}
}

func (s *memStorage) LatestVersion(table uint32, key int64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.versions[key]
}

func (s *memStorage) ApplyMutations(commitTS uint64, muts []txn.Write) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range muts {
		s.versions[m.Key] = commitTS
		if m.Op == txn.OpDelete {
			delete(s.rows, m.Key)
		} else {
			s.rows[m.Key] = m.Row
		}
	}
}

func (s *memStorage) get(key int64) (types.Row, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.rows[key]
	return r, ok
}

func TestParticipantPrepareCommit(t *testing.T) {
	st := newMemStorage()
	p := NewParticipant(st)

	muts := []txn.Write{{Table: 1, Key: 1, Op: txn.OpUpdate, Row: types.Row{types.NewInt(1)}}}
	p.Apply(EncodePrepare(Prepare{TxnID: 7, StartTS: 0, Muts: muts}))
	if err, ok := p.Verdict(7); !ok || err != nil {
		t.Fatalf("verdict = (%v, %v)", err, ok)
	}
	if p.LockCount() != 1 {
		t.Fatalf("locks = %d", p.LockCount())
	}
	p.Apply(EncodeCommit(7, 5))
	if p.LockCount() != 0 {
		t.Fatal("locks not released")
	}
	if r, ok := st.get(1); !ok || r[0].Int() != 1 {
		t.Fatalf("row = %v %v", r, ok)
	}
	if p.SafeTS() != 5 {
		t.Fatalf("applied = %d", p.SafeTS())
	}
}

func TestParticipantConflicts(t *testing.T) {
	st := newMemStorage()
	p := NewParticipant(st)
	muts := func(key int64) []txn.Write {
		return []txn.Write{{Table: 1, Key: key, Op: txn.OpUpdate, Row: types.Row{types.NewInt(key)}}}
	}
	// Lock conflict.
	p.Apply(EncodePrepare(Prepare{TxnID: 1, StartTS: 0, Muts: muts(9)}))
	p.Apply(EncodePrepare(Prepare{TxnID: 2, StartTS: 0, Muts: muts(9)}))
	if err, _ := p.Verdict(2); !errors.Is(err, ErrConflict) {
		t.Fatalf("lock conflict verdict = %v", err)
	}
	p.Apply(EncodeAbort(1))
	if p.LockCount() != 0 {
		t.Fatal("abort did not release lock")
	}
	// Version conflict: commit at ts 10, then prepare with snapshot 5.
	p.Apply(EncodePrepare(Prepare{TxnID: 3, StartTS: 0, Muts: muts(9)}))
	p.Apply(EncodeCommit(3, 10))
	p.Apply(EncodePrepare(Prepare{TxnID: 4, StartTS: 5, Muts: muts(9)}))
	if err, _ := p.Verdict(4); !errors.Is(err, ErrConflict) {
		t.Fatalf("version conflict verdict = %v", err)
	}
	// Snapshot at/after the version is fine.
	p.Apply(EncodePrepare(Prepare{TxnID: 5, StartTS: 10, Muts: muts(9)}))
	if err, _ := p.Verdict(5); err != nil {
		t.Fatalf("fresh snapshot rejected: %v", err)
	}
}

func TestParticipantOneShot(t *testing.T) {
	st := newMemStorage()
	p := NewParticipant(st)
	muts := []txn.Write{{Table: 1, Key: 2, Op: txn.OpUpdate, Row: types.Row{types.NewInt(2)}}}
	p.Apply(EncodeOneShot(11, 0, 7, muts))
	if r, ok := st.get(2); !ok || r[0].Int() != 2 {
		t.Fatalf("one-shot row = %v %v", r, ok)
	}
	if p.LockCount() != 0 {
		t.Fatal("one-shot left locks")
	}
	// A conflicting one-shot self-aborts.
	p.Apply(EncodePrepare(Prepare{TxnID: 12, StartTS: 7, Muts: muts}))
	p.Apply(EncodeOneShot(13, 7, 9, muts))
	if _, ok := st.get(2); !ok {
		t.Fatal("row vanished")
	}
	if st.versions[2] != 7 {
		t.Fatalf("conflicting one-shot applied: version = %d", st.versions[2])
	}
}

func TestParticipantIdempotentCommit(t *testing.T) {
	st := newMemStorage()
	p := NewParticipant(st)
	muts := []txn.Write{{Table: 1, Key: 3, Op: txn.OpUpdate, Row: types.Row{types.NewInt(3)}}}
	p.Apply(EncodePrepare(Prepare{TxnID: 1, StartTS: 0, Muts: muts}))
	p.Apply(EncodeCommit(1, 4))
	p.Apply(EncodeCommit(1, 4)) // duplicate: must be a no-op
	p.Apply(EncodeAbort(99))    // unknown txn: no-op
	if st.versions[3] != 4 {
		t.Fatalf("version = %d", st.versions[3])
	}
}

func TestParticipantDeterminism(t *testing.T) {
	// Two replicas fed the same command sequence converge exactly.
	cmds := [][]byte{
		EncodePrepare(Prepare{TxnID: 1, StartTS: 0, Muts: []txn.Write{
			{Table: 1, Key: 1, Op: txn.OpUpdate, Row: types.Row{types.NewInt(10)}}}}),
		EncodeCommit(1, 2),
		EncodePrepare(Prepare{TxnID: 2, StartTS: 1, Muts: []txn.Write{
			{Table: 1, Key: 1, Op: txn.OpUpdate, Row: types.Row{types.NewInt(20)}}}}),
		EncodeAbort(2), // conflicted on version, coordinator aborts
		EncodePrepare(Prepare{TxnID: 3, StartTS: 2, Muts: []txn.Write{
			{Table: 1, Key: 1, Op: txn.OpDelete}}}),
		EncodeCommit(3, 5),
	}
	a, b := newMemStorage(), newMemStorage()
	pa, pb := NewParticipant(a), NewParticipant(b)
	for _, c := range cmds {
		pa.Apply(c)
		pb.Apply(c)
	}
	if len(a.rows) != len(b.rows) || a.versions[1] != b.versions[1] {
		t.Fatalf("replicas diverged: %v vs %v", a.rows, b.rows)
	}
	if _, ok := a.get(1); ok {
		t.Fatal("delete not applied")
	}
}
