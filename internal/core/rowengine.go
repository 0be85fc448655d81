package core

import (
	"fmt"
	"sync"

	"htap/internal/rowstore"
	"htap/internal/types"
)

// rowEngine is a walEngine whose primary copy is an MVCC row store per table
// — architectures A (memory-optimized) and C (disk-backed). Transaction
// reads, bulk load, secondary indexes and version pruning are the same on both;
// only the column side, which the embedding engine adds, differs.
type rowEngine struct {
	walEngine
	rows []*rowstore.Store

	idxMu     sync.RWMutex
	secondary map[string]*rowstore.SecondaryIndex
}

// Lookup implements txn.Reader over table's row store.
func (e *rowEngine) Lookup(table uint32, key int64, ts uint64) (types.Row, bool, uint64) {
	return e.rows[table].Lookup(table, key, ts)
}

// read implements txStore: a disk-backed (C) store charges the read.
func (e *rowEngine) read(table uint32, key int64, ts uint64) (types.Row, bool) {
	r, err := e.rows[table].GetAt(ts, key)
	return r, err == nil
}

// Load implements Engine for the row side: the row becomes visible to every
// snapshot, bypassing transactions and the WAL.
func (e *rowEngine) Load(table string, row types.Row) error {
	id, err := e.ts.id(table)
	if err != nil {
		return err
	}
	return e.rows[id].Load(row)
}

// addRows adds table s's row store, which prunes behind h.
func (e *rowEngine) addRows(s *rowstore.Store, h rowstore.Horizon) {
	s.SetPins(h)
	e.rows = append(e.rows, s)
}

// rowVersions is the number of row versions the engine's stores hold.
func (e *rowEngine) rowVersions() int64 {
	var n int64
	for _, s := range e.rows {
		n += s.Versions()
	}
	return n
}

// AddIndex implements Indexer.
func (e *rowEngine) AddIndex(table, name string, key func(types.Row) int64) error {
	id, err := e.ts.id(table)
	if err != nil {
		return err
	}
	e.idxMu.Lock()
	defer e.idxMu.Unlock()
	if e.secondary == nil {
		e.secondary = make(map[string]*rowstore.SecondaryIndex)
	}
	if _, dup := e.secondary[table+"/"+name]; dup {
		return fmt.Errorf("core: index %s/%s already exists", table, name)
	}
	e.secondary[table+"/"+name] = e.rows[id].AddIndex(name, key)
	return nil
}

// IndexLookup implements Indexer.
func (e *rowEngine) IndexLookup(table, name string, k int64) []int64 {
	e.idxMu.RLock()
	ix := e.secondary[table+"/"+name]
	e.idxMu.RUnlock()
	if ix == nil {
		return nil
	}
	return ix.Lookup(k)
}
