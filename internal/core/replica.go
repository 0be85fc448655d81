package core

import (
	"context"
	"sync/atomic"

	"htap/internal/colstore"
	"htap/internal/delta"
	"htap/internal/exec"
)

// replica is one column-store copy of a table and the delta that feeds
// it — the one analytical read path of every architecture:
//
//	A  one replica per table: the in-memory column table and its Mem delta
//	B  one per table on each partition's serving learner: a column table
//	   and its log-based delta
//	C  one per loaded table: the IMCS shards (disjoint keys) and one Mem
//	   delta of projected rows
//	D  one per table: the layer set Main then L2, with L1 as its delta
//
// A merge publishes the parts' next versions and discards the entries they
// now hold as one step (delta.Store.Publish), and snapshot reads the parts'
// versions inside delta.Store.View, so every unmerged entry is in exactly
// one of the two.
type replica struct {
	parts []*colstore.Table
	delta delta.Store
}

// replicaSnap is a replica as one snapshot reads it.
type replicaSnap struct {
	vers []*colstore.Version // parallel to the replica's parts
	view delta.View
	r    *replica
}

func (r *replica) snapshot() replicaSnap {
	s := replicaSnap{r: r, vers: make([]*colstore.Version, len(r.parts))}
	for _, p := range r.parts {
		p.Flush() // bulk loads; outside View, which must not take a table lock
	}
	s.view = r.delta.View(func() {
		for i, p := range r.parts {
			s.vers[i] = p.Version()
		}
	})
	return s
}

// columnar is what an architecture adds to the one snapshot read path.
type columnar interface {
	// readPoint is the timestamp a Shared-mode snapshot opened now reads
	// at. Every commit at or below it is in the replicas or their deltas.
	readPoint() uint64
	// replicas returns table id's replicas in scan order.
	replicas(id int) []*replica
	// source is the access path of one scan of table id in s.
	source(s *snapshot, id int, cols []string, pred *exec.ScanPred) exec.Source
}

// snapshot is the Snapshot of the four architectures: every table's
// replicas, captured at one read point when the snapshot opens.
type snapshot struct {
	b      *engineBase
	ctx    context.Context
	readTS uint64
	reps   [][]replicaSnap // by table id
	closed atomic.Bool
}

// Snapshot implements Engine. The read point is fixed first — the
// architecture's read point in Shared mode, the merge target in Isolated
// mode (snapPoint) — then every replica is captured; a merge that
// publishes past the read point before a replica is captured forces a
// fresh one, so no captured version holds a commit after readTS and every
// view holds every unmerged entry up to it. The read point stays pinned
// until Close.
func (b *engineBase) Snapshot(ctx context.Context) Snapshot { return b.open(ctx) }

func (b *engineBase) open(ctx context.Context) *snapshot {
	s := &snapshot{b: b, ctx: ctxOrBackground(ctx), reps: make([][]replicaSnap, len(b.ts.schemas))}
	for !s.capture() {
	}
	return s
}

// capture fixes and pins the read point, then captures every replica. It
// reports false, with the pin released, when a merge published past the
// read point meanwhile. A merge raises the merge target before it
// publishes, so an Isolated retry reads the raised target and does not
// spin.
func (s *snapshot) capture() bool {
	s.readTS = s.b.pins.Pin(s.b.snapPoint)
	for id := range s.reps {
		s.reps[id] = s.reps[id][:0]
		for _, r := range s.b.col.replicas(id) {
			rs := r.snapshot()
			for _, v := range rs.vers {
				if v.Applied > s.readTS {
					s.b.pins.Release(s.readTS)
					return false
				}
			}
			s.reps[id] = append(s.reps[id], rs)
		}
	}
	return true
}

// ReadTS implements Snapshot.
func (s *snapshot) ReadTS() uint64 { return s.readTS }

// Close implements Snapshot: it releases the read point's pin. Closing
// twice is harmless.
func (s *snapshot) Close() {
	if s.closed.CompareAndSwap(false, true) {
		s.b.pins.Release(s.readTS)
	}
}

// Query implements Snapshot: the architecture's access path under the
// engine's degree of parallelism and memory governor.
func (s *snapshot) Query(table string, cols []string, pred *exec.ScanPred) *exec.Plan {
	b := s.b
	b.om.queries.Inc()
	dop := int(b.par.Load())
	if dop <= 0 {
		dop = exec.DefaultParallelism()
	}
	return b.govern(s.ctx, b.arch.Label(), exec.From(s.Source(table, cols, pred)).Parallel(dop))
}

// Source is the access path Query plans over, before the engine's degree
// of parallelism and memory governor: the dist coordinator unions its
// local shards' sources under its own.
func (s *snapshot) Source(table string, cols []string, pred *exec.ScanPred) exec.Source {
	return s.b.col.source(s, int(s.b.ts.mustID(table)), cols, pred)
}

// scan reads table id's replicas: a column scan of every version, under
// the delta's net effect up to readTS, which masks every part of its
// replica and contributes its rows once.
func (s *snapshot) scan(id int, cols []string, pred *exec.ScanPred) exec.Source {
	var srcs []exec.Source
	for _, r := range s.reps[id] {
		o := r.view.Overlay(s.readTS)
		for _, v := range r.vers {
			srcs = append(srcs, exec.NewColScan(s.ctx, v, cols, pred, o))
			o = o.MaskOnly()
		}
	}
	if len(srcs) == 1 {
		return srcs[0]
	}
	return exec.NewUnion(srcs...)
}

// replicas implements columnar for the architectures whose replicas are
// fixed at construction (A, B, D).
func (b *engineBase) replicas(id int) []*replica { return b.reps[id] }

// source implements columnar: every architecture but C scans its replicas.
func (b *engineBase) source(s *snapshot, id int, cols []string, pred *exec.ScanPred) exec.Source {
	return s.scan(id, cols, pred)
}
