package main

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"htap/internal/ch"
	"htap/internal/client"
	"htap/internal/core"
	"htap/internal/htapbench"
)

// smoke turns on the tests that load the full dataset. They keep two cores
// and up to a gigabyte busy for half a minute, which the timing-sensitive
// tests of other packages running beside them under `go test ./...` do not
// survive, so they run on request: go test ./bench -smoke
var smoke = flag.Bool("smoke", false, "also run the decorator-fidelity test and the smoke suite on the full dataset")

func needSmoke(t *testing.T) {
	t.Helper()
	if !*smoke {
		t.Skip("loads the full dataset; run with: go test ./bench -smoke")
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {50, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v: the rule is at least ten samples beyond", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := samples{50, 10, 40, 20, 30}.sorted()
	for _, c := range []struct{ p, want float64 }{{50, 30}, {99, 50}, {20, 10}, {21, 20}, {100, 50}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The acceptance procedure measures spread with Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	oneToTen := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(oneToTen), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want %v", got, want)
	}
	odd := []float64{3, 1, 4, 1, 5, 9, 2} // quartiles 1, 3, 5
	if got, want := quartileSpread(odd), 4.0/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestGeomeanSkipsMissingQueries(t *testing.T) {
	if got := geomean([]float64{2, 8, 0}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
}

func TestPacerScheduleIsFixed(t *testing.T) {
	start := time.Unix(100, 0)
	p := newPacer(start, 2000)
	for i := 0; i < 5; i++ {
		if got, want := p.next(), start.Add(time.Duration(i)*500*time.Microsecond); !got.Equal(want) {
			t.Fatalf("due time %d = %v, want %v", i, got, want)
		}
	}
	var r tpResult
	due := start
	r.lateness(due, due.Add(-time.Millisecond), p.interval)     // early: not late
	r.lateness(due, due.Add(400*time.Microsecond), p.interval)  // within one interval
	r.lateness(due, due.Add(1500*time.Microsecond), p.interval) // more than one interval
	r.lateness(due, due.Add(700*time.Microsecond), p.interval)  // more than one interval
	if r.late != 2 || r.maxLate != 1500*time.Microsecond {
		t.Errorf("late = %d maxLate = %v, want 2 and 1.5ms", r.late, r.maxLate)
	}
}

// An open loop keeps its schedule when the system is slower than the rate:
// latency counts from the due time and so grows with the backlog, while
// service time does not.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// 30 transactions are due 10 ms apart; the system finishes one every
	// 13 ms. It follows an absolute schedule so that a slow test host adds
	// jitter to the backlog and not a trend.
	const service, n = 13 * time.Millisecond, 30
	t0 := time.Now()
	i := 0
	res := driveTP(context.Background(), n*10*time.Millisecond, 100, nil, func() (ch.TxnType, error) {
		i++
		time.Sleep(time.Until(t0.Add(time.Duration(i) * service)))
		return ch.PaymentTxn, nil
	})
	if res.txns != n || res.failed != 0 {
		t.Fatalf("ran %d transactions, %d failed; all %d due within the window must run", res.txns, res.failed, n)
	}
	lat, svc := res.lat[ch.PaymentTxn], res.svc[ch.PaymentTxn]
	last := n - 1
	// The last transaction is due at 290 ms and cannot finish before 390.
	if backlog := 90 * time.Millisecond; time.Duration(lat[last]) < backlog {
		t.Errorf("last latency %v, want at least the backlog %v", time.Duration(lat[last]), backlog)
	}
	if lat[0] > lat[last] {
		t.Errorf("latency fell from %v to %v under a growing backlog", time.Duration(lat[0]), time.Duration(lat[last]))
	}
	if lat[last] < svc[last] || time.Duration(svc[last]) > 3*service {
		t.Errorf("service time %v, latency %v: only latency includes the wait since the due time", time.Duration(svc[last]), time.Duration(lat[last]))
	}
	if res.late < 20 || res.maxLate < 60*time.Millisecond {
		t.Errorf("%d transactions late, at most by %v: from the fifth on each starts more than an interval late", res.late, res.maxLate)
	}
}

func TestClosedLoopWaitsForReply(t *testing.T) {
	calls := 0
	res := driveTP(context.Background(), 30*time.Millisecond, 0, nil, func() (ch.TxnType, error) {
		calls++
		time.Sleep(5 * time.Millisecond)
		return ch.NewOrderTxn, nil
	})
	if calls > 7 || res.txns != int64(calls) || res.late != 0 {
		t.Errorf("%d calls, %d transactions, %d late: a closed loop sends only after the reply", calls, res.txns, res.late)
	}
}

func TestSpanSelfTime(t *testing.T) {
	o := &op{}
	// A coordinator commit from 100 to 200 whose two shard branches overlap:
	// 110-150 and 130-180 cover 70, so the commit's own time is 30.
	m := o.enter(100)
	o.exit(layInner, "core.commit", 0, o.enter(110), 150)
	o.exit(layInner, "core.commit", 1, o.enter(130), 180)
	o.exit(layOuter, "dist.commit", -1, m, 200)
	// A later call must not be charged the earlier call's children.
	m = o.enter(300)
	o.exit(layInner, "core.get", 0, o.enter(310), 320)
	o.exit(layOuter, "dist.get", -1, m, 340)
	want := map[string]int64{"dist.commit": 30, "dist.get": 30}
	for _, s := range o.spans {
		if w, ok := want[s.name]; ok && s.self != w {
			t.Errorf("%s self time = %d, want %d", s.name, s.self, w)
		}
	}
	if got := unionLen(o.spans, layInner, 0, 1000); got != 80 {
		t.Errorf("union of the shard spans = %d, want 80", got)
	}
	if got := unionLen(o.spans, layInner, 140, 170); got != 30 {
		t.Errorf("union clipped to 140..170 = %d, want 30", got)
	}
}

func TestTracerAccountsForTheWholeTransaction(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	o := tr.begin("txn")
	m := o.enter(tr.now())
	inner := o.enter(tr.now())
	time.Sleep(time.Millisecond)
	o.exit(layInner, "core.commit", 0, inner, tr.now())
	o.exit(layInner, "core.commit", 1, o.enter(tr.now()), tr.now())
	o.exit(layOuter, "dist.commit", -1, m, tr.now())
	tr.finish(o, "payment")
	var sum int64
	for _, ns := range tr.layerNS {
		sum += ns
	}
	if sum != tr.opNS || tr.ops != 1 {
		t.Errorf("layers' self times sum to %d, the transaction took %d", sum, tr.opNS)
	}
	if len(tr.commit2) != 1 || len(tr.commit1) != 0 {
		t.Errorf("a commit over two shards was filed as %d two-shard and %d one-shard commits", len(tr.commit2), len(tr.commit1))
	}
	if tr.active() != nil {
		t.Error("an op is still in flight after finish")
	}
}

// The decorators must answer every optional-interface probe the program
// makes, whatever they wrap.
func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	var e any = &tracedEngine{}
	if _, ok := e.(core.Engine); !ok {
		t.Error("tracedEngine is not a core.Engine")
	}
	if _, ok := e.(core.Indexer); !ok {
		t.Error("tracedEngine hides core.Indexer")
	}
	if _, ok := e.(core.Paralleler); !ok {
		t.Error("tracedEngine hides core.Paralleler")
	}
	if _, ok := e.(core.MemGoverned); !ok {
		t.Error("tracedEngine hides core.MemGoverned")
	}
	if _, ok := e.(interface {
		MoveRange(ctx context.Context, lo, hi, dest int) (int64, int64, error)
	}); !ok {
		t.Error("tracedEngine hides the server's rangeMover probe")
	}
	var tx any = &tracedTx{}
	if _, ok := tx.(interface{ Prepare() error }); !ok {
		t.Error("tracedTx hides the txPreparer probe")
	}
	var r any = newTracedRemote(&client.Remote{}, nil)
	if _, ok := r.(htapbench.CHRunner); !ok {
		t.Error("tracedRemote hides htapbench.CHRunner")
	}
	if _, ok := r.(htapbench.Engine); !ok {
		t.Error("tracedRemote is not an htapbench.Engine")
	}
}

// fidelityQueries are the queries the fidelity test digests: between them
// they read every table the transactions write.
var fidelityQueries = []int{1, 3, 11, 15, 22}

// fidelityCounters are the counters that must not notice the decorators.
var fidelityCounters = []string{
	"htap_engine_txn_begins_total", "htap_engine_txn_commits_total", "htap_engine_txn_aborts_total",
	"htap_engine_queries_total",
	"htap_exec_pushdown_predicates_total", "htap_exec_pushdown_rows_scanned_total",
	"htap_exec_pushdown_rows_materialized_total", "htap_exec_pushdown_segments_pruned_total",
	"htap_dist_txn_routed_total", "htap_dist_txn_cross_shard_total",
}

// runFixed sets dist up with or without decorators, runs a fixed number of
// transactions and returns the result digests and counter deltas.
func runFixed(t *testing.T, seed int64, tr *tracer) (map[int]string, counters) {
	t.Helper()
	ctx := context.Background()
	before := readCounters()
	r, err := setUp(ctx, specByName("dist"), seed, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if tr != nil {
		tr.on.Store(true)
	}
	for i := 0; i < 400; i++ {
		o := tr.begin("txn")
		class, err := r.driver.RunOneTyped(ctx, r.rng)
		tr.finish(o, class.String())
		if err != nil {
			t.Fatal(err)
		}
	}
	r.local.Sync()
	if err := checkConsistency(ctx, r.local); err != nil {
		t.Error(err)
	}
	digests := map[int]string{}
	for _, q := range fidelityQueries {
		rows, err := r.runQuery(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		digests[q] = digest(rows)
	}
	return digests, before.delta(readCounters())
}

// A traced run must execute the same code paths as an untraced one: same
// seed, same transactions, same results, same engine and pushdown counters.
// dist is the workload that decorates two layers and commits through 2PC.
func TestTracedRunMatchesUntraced(t *testing.T) {
	needSmoke(t)
	plain, plainCtr := runFixed(t, 7, nil)
	tr := newTracer()
	traced, tracedCtr := runFixed(t, 7, tr)
	for _, q := range fidelityQueries {
		if plain[q] != traced[q] {
			t.Errorf("Q%d: untraced digest %s, traced %s", q, plain[q], traced[q])
		}
	}
	for _, name := range fidelityCounters {
		if plainCtr[name] != tracedCtr[name] {
			t.Errorf("%s moved by %v untraced and %v traced", name, plainCtr[name], tracedCtr[name])
		}
	}
	if plainCtr["htap_dist_txn_cross_shard_total"] == 0 {
		t.Error("no transaction crossed shards: the test does not reach 2PC")
	}
	if tr.ops != 400 || tr.call("dist.commit").count == 0 || tr.call("core.commit").count == 0 {
		t.Errorf("the tracer saw %d transactions, %d coordinator and %d shard commits",
			tr.ops, tr.call("dist.commit").count, tr.call("core.commit").count)
	}
	if len(tr.commit2) == 0 {
		t.Error("no two-shard commit was recorded")
	}
}

// BENCHMARK.json must declare what the bench prints.
func TestBenchmarkFileMatchesBench(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the bench has %d", len(bf.Workloads), len(specs))
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json runs %v seconds, the bench's default is %v", bf.RunSeconds, defaultSeconds)
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), the bench has %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEndSpec) || len(bf.PerLayer) != len(perLayerSpec) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics, the bench %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEndSpec), len(perLayerSpec))
	}
	units := map[string]string{}
	for _, m := range append(append([]struct{ name, unit string }(nil), endToEndSpec...), perLayerSpec...) {
		units[m.name] = m.unit
	}
	seen := map[string]bool{}
	for _, m := range bf.EndToEnd {
		if seen[m.Name] {
			t.Errorf("BENCHMARK.json names %s twice", m.Name)
		}
		seen[m.Name] = true
		if units[m.Name] != m.Unit {
			t.Errorf("end-to-end metric %s [%s] of BENCHMARK.json: the bench has unit %q", m.Name, m.Unit, units[m.Name])
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range bf.PerLayer {
		if seen[m.Name] {
			t.Errorf("BENCHMARK.json names %s twice", m.Name)
		}
		seen[m.Name] = true
		if units[m.Name] != m.Unit {
			t.Errorf("per-layer metric %s [%s] of BENCHMARK.json: the bench has unit %q", m.Name, m.Unit, units[m.Name])
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer metric %s: better %q", m.Name, m.Better)
		}
	}

}

// The smoke test: every workload at 1/20 of the load, traced, which yields
// both metric sets; shape is checked here, goldens and consistency by the
// run itself.
func TestQuickSuite(t *testing.T) {
	needSmoke(t)
	// The workloads run side by side: the smoke test checks shape and
	// correctness, not speed.
	traces := t.TempDir()
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			o, err := runWorkload(context.Background(), runOpts{
				spec: s, seed: 1, seconds: defaultSeconds / 20.0, traced: true, setUps: 1, traceDir: traces,
			})
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if !o.Correct {
				t.Errorf("%s: wrong results: %s", s.name, strings.Join(o.Problems, "; "))
			}
			for _, traced := range []bool{false, true} {
				rec := &runRecord{Workload: s.name, Traced: traced}
				rec.result = result{Correct: o.Correct, Attempted: o.Attempted, Failed: o.Failed, Metrics: o.EndToEnd}
				if traced {
					rec.Metrics = o.PerLayer
				}
				if err := validate(rec); err != nil {
					t.Error(err)
				}
				if _, err := json.Marshal(rec); err != nil {
					t.Errorf("%s: %v", s.name, err)
				}
			}
			// What a layer number must be on the workload that exercises it.
			positive := []string{"ch.q01_p50_ms", "ch.neworder_p50_us", "core.commit_us", "core.ops_per_txn", "wal.records_per_txn",
				"exec.rows_scanned_per_query", "colstore.scan_ns_per_row", "wire.frame_write_ns", "rowstore.get_ns"}
			switch {
			case s.remote:
				positive = append(positive, "client.roundtrip_us", "server.requests_per_txn", "service.overhead_us_per_txn")
			case s.shards > 0:
				positive = append(positive, "dist.self_us_per_txn", "dist.cross_shard_share", "twopc.single_shard_commit_p50_us", "dist.fragments_per_query")
			}
			for _, name := range positive {
				if o.PerLayer[name].Value <= 0 {
					t.Errorf("%s: %s = %v, want a positive number", s.name, name, o.PerLayer[name].Value)
				}
			}
			if _, err := os.Stat(filepath.Join(traces, "trace-"+s.name+".json")); err != nil {
				t.Errorf("%s: no trace file: %v", s.name, err)
			}
		})
	}
}
