package main

import (
	"encoding/json"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span layers. Layer 0 is the generator's own span around one transaction
// or query (the ch driver's work). Layer 1 is the first decorated boundary
// below it — core on serial/hybrid, client on service, the dist coordinator
// on dist — and layer 2 the boundary below that: the served engine on
// service, a shard engine on dist.
const (
	layOp = iota
	layOuter
	layInner
	nLayers
)

// span is one timed call. Times are nanoseconds since the tracer started.
type span struct {
	layer int
	name  string // "<module>.<call>", e.g. "core.get"
	shard int    // shard index for layer-2 spans on dist, else -1
	start int64
	end   int64
	self  int64 // duration not covered by deeper-layer spans
}

// op collects the spans of one transaction. The generator runs at most one
// TP client, so the op in flight is unique and decorators find it through
// tracer.cur rather than through a context the server would not carry.
type op struct {
	mu    sync.Mutex
	id    int64
	kind  string
	start int64
	end   int64
	spans []span
}

// mark is what enter hands to exit: where the call's children begin.
type mark struct {
	idx   int
	start int64
}

func (o *op) enter(now int64) mark {
	o.mu.Lock()
	m := mark{idx: len(o.spans), start: now}
	o.mu.Unlock()
	return m
}

// exit records a finished call. For a layer-1 call, self time is its
// duration minus the union of the layer-2 spans recorded since enter: a
// fan-out to several shards costs its slowest branch, not their sum.
func (o *op) exit(layer int, name string, shard int, m mark, now int64) {
	o.mu.Lock()
	s := span{layer: layer, name: name, shard: shard, start: m.start, end: now}
	s.self = s.end - s.start
	if layer == layOuter {
		s.self -= unionLen(o.spans[m.idx:], layInner, s.start, s.end)
	}
	o.spans = append(o.spans, s)
	o.mu.Unlock()
}

// unionLen is the total time within [lo, hi] covered by spans of layer.
func unionLen(spans []span, layer int, lo, hi int64) int64 {
	var buf [8][2]int64 // a fan-out rarely exceeds a few branches
	iv := buf[:0]
	for _, s := range spans {
		if s.layer != layer {
			continue
		}
		a, b := max(s.start, lo), min(s.end, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	if len(iv) > 1 {
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	}
	var total int64
	end := lo
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// callAgg accumulates one span name over a run.
type callAgg struct {
	count int64
	dur   int64
	self  int64
}

// keepEvery is the sampling stride of the trace file: every op feeds the
// aggregates, every keepEvery-th is also written out span by span.
const keepEvery = 64

// maxKeptOps bounds the trace file (about 60 spans per op).
const maxKeptOps = 2000

type tracer struct {
	on  atomic.Bool // transaction and Sync spans are recorded
	t0  time.Time
	cur atomic.Pointer[op]

	mu      sync.Mutex
	nextID  int64
	calls   map[string]*callAgg
	layerNS [nLayers]int64 // self time per layer, over finished ops
	opNS    int64          // wall time of finished ops
	ops     int64
	commit1 samples // coordinator commits that touched one shard
	commit2 samples // ... two or more shards (2PC)
	syncs   []span
	queries []span
	keptOps []*op
	scratch *op
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), calls: map[string]*callAgg{}}
}

// now is nanoseconds since the tracer started, 0 without a tracer.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// active returns the op decorators should record into, nil when recording
// is off or no transaction is in flight.
func (t *tracer) active() *op {
	if t == nil || !t.on.Load() {
		return nil
	}
	return t.cur.Load()
}

// begin opens the op for one transaction.
func (t *tracer) begin(kind string) *op {
	if t == nil || !t.on.Load() {
		return nil
	}
	o := t.scratch
	if o == nil {
		o = &op{}
	}
	t.scratch = nil
	o.kind, o.spans, o.start = kind, o.spans[:0], t.now()
	t.cur.Store(o)
	return o
}

// finish closes the op, folds its spans into the aggregates and keeps a
// sample of whole ops for the trace file.
func (t *tracer) finish(o *op, kind string) {
	if o == nil {
		return
	}
	t.cur.Store(nil)
	o.mu.Lock()
	o.end, o.kind = t.now(), kind
	t.mu.Lock()
	t.nextID++
	o.id = t.nextID
	var outer, inner int64
	var shards uint64 // bit per shard touched
	var commit *span
	for i := range o.spans {
		s := &o.spans[i]
		a := t.calls[s.name]
		if a == nil {
			a = &callAgg{}
			t.calls[s.name] = a
		}
		a.count++
		a.dur += s.end - s.start
		a.self += s.self
		switch s.layer {
		case layOuter:
			outer += s.end - s.start
			inner += s.end - s.start - s.self
			if s.name == "dist.commit" {
				commit = s
			}
		case layInner:
			if s.shard >= 0 {
				shards |= 1 << uint(s.shard)
			}
		}
	}
	if commit != nil {
		if bits.OnesCount64(shards) >= 2 {
			t.commit2 = append(t.commit2, commit.end-commit.start)
		} else {
			t.commit1 = append(t.commit1, commit.end-commit.start)
		}
	}
	wall := o.end - o.start
	t.ops++
	t.opNS += wall
	t.layerNS[layOp] += wall - outer
	t.layerNS[layOuter] += outer - inner
	t.layerNS[layInner] += inner
	keep := t.ops%keepEvery == 0 && len(t.keptOps) < maxKeptOps
	if keep {
		t.keptOps = append(t.keptOps, o)
	}
	t.mu.Unlock()
	o.mu.Unlock()
	if !keep {
		t.scratch = o
	}
}

func (t *tracer) recordSync(start, end int64) {
	t.mu.Lock()
	t.syncs = append(t.syncs, span{layer: layOuter, name: "core.sync", shard: -1, start: start, end: end})
	t.mu.Unlock()
}

// recordQuery keeps one analytical query's span. Queries are few, so they
// are recorded whether or not transaction recording is on.
func (t *tracer) recordQuery(name string, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.queries = append(t.queries, span{layer: layOp, name: name, shard: -1, start: start, end: end})
	t.mu.Unlock()
}

// call returns the aggregate for a span name (zero when never seen).
func (t *tracer) call(name string) callAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.calls[name]; a != nil {
		return *a
	}
	return callAgg{}
}

// traceSpan is the file form of a span: name, start, end, the span that
// caused it and the op all spans of one transaction or query share.
type traceSpan struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // 0 = root
	Op      int64  `json:"op"`
	Shard   *int   `json:"shard,omitempty"`
}

// write dumps the kept spans to dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []traceSpan
	id := 0
	add := func(s span, name string, parent int, opID int64) int {
		id++
		ts := traceSpan{ID: id, Name: name, StartNS: s.start, EndNS: s.end, Parent: parent, Op: opID}
		if s.shard >= 0 {
			sh := s.shard
			ts.Shard = &sh
		}
		out = append(out, ts)
		return id
	}
	for _, o := range t.keptOps {
		root := add(span{start: o.start, end: o.end, shard: -1}, "ch."+o.kind, 0, o.id)
		// Layer-1 spans hang off the op; a layer-2 span hangs off the
		// layer-1 span whose interval contains it.
		var outers []int
		for i, s := range o.spans {
			if s.layer == layOuter {
				outers = append(outers, i)
			}
		}
		ids := make(map[int]int, len(outers))
		for _, i := range outers {
			ids[i] = add(o.spans[i], o.spans[i].name, root, o.id)
		}
		for _, s := range o.spans {
			if s.layer != layInner {
				continue
			}
			parent := root
			for _, i := range outers {
				if p := o.spans[i]; s.start >= p.start && s.end <= p.end {
					parent = ids[i]
					break
				}
			}
			add(s, s.name, parent, o.id)
		}
	}
	opID := t.nextID
	for _, q := range t.queries {
		opID++
		add(q, q.name, 0, opID)
	}
	for _, s := range t.syncs {
		opID++
		add(s, s.name, 0, opID)
	}
	doc := struct {
		Workload string      `json:"workload"`
		Unit     string      `json:"unit"`
		Sampling string      `json:"sampling"`
		Spans    []traceSpan `json:"spans"`
	}{workload, "ns since trace start", "every 64th transaction, every query, every sync", out}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
