package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"htap/internal/ch"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a timing, 0 for anything else.
	N int `json:"-"`
}

// outcome is what one run of one workload produced.
type outcome struct {
	Workload  string
	Correct   bool
	Attempted int64
	Failed    int64
	EndToEnd  map[string]metric
	PerLayer  map[string]metric // traced runs only
	Problems  []string
}

func (o *outcome) problem(format string, a ...any) {
	o.Correct = false
	o.Problems = append(o.Problems, fmt.Sprintf(format, a...))
}

// runOpts selects one run.
type runOpts struct {
	spec    *spec
	seed    int64
	seconds float64
	traced  bool
	// setUps is how many times set-up runs; setup_s is their median.
	setUps int
	// traceDir receives trace-<workload>.json on a traced run.
	traceDir string
}

// measured is everything the three load phases observed.
type measured struct {
	// ap is the AP stream alone, on quiescent data.
	ap *apResult
	// mix and mixAP are the paced TP client and the AP stream side by side.
	mix   *tpResult
	mixAP *apResult
	// tp is the closed-loop TP client alone. On a traced run it is the slice
	// recorded with tracing on, and tpOff the slice before it with tracing
	// off, whose service time prices the tracing.
	tp, tpOff *tpResult
	probe     *probeResult // traced runs only
}

func (m *measured) txns() int64 {
	n := m.tp.txns + m.mix.txns
	if m.tpOff != nil {
		n += m.tpOff.txns
	}
	return n
}

func (m *measured) queries() int64 { return m.ap.queries + m.mixAP.queries }

// runWorkload sets the workload up, loads it, checks it and derives its
// metrics. The error is for what prevents a measurement at all; a wrong
// result is reported through outcome.Correct.
func runWorkload(ctx context.Context, opt runOpts) (*outcome, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if opt.traced {
		tr = newTracer()
	}
	r, setupS, err := setUpTimed(ctx, opt.spec, opt.seed, tr, golden, opt.setUps)
	if err != nil {
		return nil, err
	}
	defer r.close()

	out := &outcome{Workload: opt.spec.name, Correct: true}
	total := time.Duration(opt.seconds * float64(time.Second))
	load := total
	if opt.traced {
		// The rest of a traced run's time goes to the per-layer micro-calls.
		load = total * 3 / 4
	}
	w := openWindow(r)
	m := measure(ctx, r, load, tr)
	r.local.Sync()
	if err := checkConsistency(ctx, r.local); err != nil {
		out.problem("%v", err)
	}
	w.close(r)

	for _, q := range m.ap.unstable {
		out.problem("Q%d changed between sweeps of quiescent data", q)
	}
	out.Attempted = m.ap.attempted() + m.mixAP.attempted() + m.mix.attempted() + m.tp.attempted()
	out.Failed = m.ap.failed + m.mixAP.failed + m.mix.failed + m.tp.failed
	if m.tpOff != nil {
		out.Attempted += m.tpOff.attempted()
		out.Failed += m.tpOff.failed
	}
	if out.Failed > 0 {
		out.problem("%d of %d operations failed", out.Failed, out.Attempted)
	}
	out.EndToEnd = endToEnd(m, setupS)
	if !opt.traced {
		for _, note := range tailsSupported(m) {
			fmt.Fprintln(os.Stderr, "bench: note:", note)
		}
	} else {
		out.PerLayer = perLayerMetrics(ctx, r, m, tr, w)
		if opt.traceDir != "" {
			if err := tr.write(opt.traceDir, opt.spec.name); err != nil {
				return nil, fmt.Errorf("writing trace: %w", err)
			}
		}
	}
	// Peak memory is read last so that it covers the whole run.
	out.EndToEnd["rss_peak_mb"] = metric{Value: peakRSSMB(), Unit: "MB"}
	return out, nil
}

// The load, the same on every workload, in three phases that split
// --seconds between them. TP grows the data and AP slows down as it grows,
// so the phase that commits the most comes last: a faster TP path must not
// hand the AP phases more rows.
const (
	// apShare: one closed-loop AP stream alone, whole ordered sweeps of
	// Q1..Q22 on quiescent data.
	apShare = 0.35
	// mixShare: the HTAPBench rule. One TP client paced open-loop at mixRate,
	// each transaction timed from its due time, and beside it the AP stream,
	// still closed-loop.
	mixShare = 0.40
	// The rest: one closed-loop TP client alone, standard TPC-C mix.

	// mixRate is low enough for every deployment to sustain beside an AP
	// stream on two cores with room to spare (the service path commits about
	// 1700 txn/s alone and a third of that beside the stream), so the phase
	// prices interference, not saturation.
	mixRate = 250
)

// measure puts the three-phase load on the rig for about dur.
func measure(ctx context.Context, r *rig, dur time.Duration, tr *tracer) *measured {
	m := &measured{}
	apDur := time.Duration(float64(dur) * apShare)
	mixDur := time.Duration(float64(dur) * mixShare)

	m.ap = runAP(ctx, r, apDur, nil, true, tr)

	// Sync runs in the background wherever TP runs; on a traced run so does
	// the sampler.
	stopSync := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go syncLoop(r, stopSync, &wg)
	if tr != nil {
		m.probe = startProbe(r, stopSync, &wg)
	}

	stopAP, apDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(apDone)
		m.mixAP = runAP(ctx, r, 0, stopAP, false, tr)
	}()
	m.mix = runTP(ctx, r, mixDur, mixRate, nil)
	close(stopAP)
	<-apDone

	// A traced run splits the closed loop: a first slice with recording off,
	// then the recorded slice.
	tpDur := dur - apDur - mixDur
	if tr != nil {
		m.tpOff = runTP(ctx, r, tpDur*3/10, 0, nil)
		tpDur -= tpDur * 3 / 10
		tr.on.Store(true)
	}
	m.tp = runTP(ctx, r, tpDur, 0, tr)
	if tr != nil {
		tr.on.Store(false)
	}
	close(stopSync)
	wg.Wait()
	return m
}

// endToEndSpec lists the end-to-end metrics in reporting order.
var endToEndSpec = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"tp_txn_per_s", "1/s"},
	{"tp_neworder_p50_ms", "ms"},
	{"tp_neworder_p99_ms", "ms"},
	{"ap_query_per_s", "1/s"},
	{"ap_geomean_ms", "ms"},
	{"ap_q09_ms", "ms"},
	{"cpu_ms_per_txn", "ms"},
	{"cpu_ms_per_query", "ms"},
	{"allocs_per_txn", "count"},
	{"allocs_per_query", "count"},
	{"rss_peak_mb", "MB"},
	{"mix_neworder_p95_ms", "ms"},
	{"mix_query_per_s", "1/s"},
}

// Every end-to-end number is the best of its windows. A TP run is cut into
// tpWindows windows and an AP run is a handful of whole sweeps; throughput,
// latency percentiles, CPU and allocations are computed per window or
// sweep, a query's latency per execution, and the run reports the best one.
// On a shared host a collection, a merge or another tenant only ever adds
// time: the best window estimates the undisturbed system and repeats from
// run to run, where a median over five windows follows the host's mood.

// lowest is the smallest of f over a TP run's windows.
func lowest(tp *tpResult, f func(w *tpWindow) float64) float64 {
	best := math.Inf(1)
	for i := range tp.windows {
		best = math.Min(best, f(&tp.windows[i]))
	}
	return best
}

// fastestSweep returns the whole sweep of an AP run whose queries took the
// least time, the zero sweep when there is none.
func fastestSweep(ap *apResult) apSweep {
	var best apSweep
	for _, s := range ap.sweeps {
		if best.ns == 0 || s.ns < best.ns {
			best = s
		}
	}
	return best
}

// queryBest returns each query's fastest execution in ms (index 1..22; 0
// where a query never completed).
func queryBest(ap *apResult) [23]float64 {
	var best [23]float64
	for q := 1; q <= 22; q++ {
		best[q] = ms(percentile(ap.lat[q].sorted(), 0))
	}
	return best
}

// newOrderLatency returns the function that gives a window's p-th
// percentile New-Order latency in ms.
func newOrderLatency(p float64) func(w *tpWindow) float64 {
	return func(w *tpWindow) float64 { return ms(percentile(w.newOrder.sorted(), p)) }
}

func endToEnd(m *measured, setupS float64) map[string]metric {
	out := map[string]metric{}
	out["setup_s"] = metric{Value: setupS, Unit: "s"}

	// The closed-loop TP client alone.
	tp := m.tp
	newOrders := len(tp.lat[ch.NewOrderTxn])
	out["tp_txn_per_s"] = metric{Unit: "1/s", N: int(tp.txns),
		Value: ratio(1, lowest(tp, func(w *tpWindow) float64 { return ratio(w.wall.Seconds(), float64(w.txns)) }))}
	out["tp_neworder_p50_ms"] = metric{Unit: "ms", N: newOrders, Value: lowest(tp, newOrderLatency(50))}
	out["tp_neworder_p99_ms"] = metric{Unit: "ms", N: newOrders, Value: lowest(tp, newOrderLatency(99))}
	out["cpu_ms_per_txn"] = metric{Unit: "ms",
		Value: lowest(tp, func(w *tpWindow) float64 { return ratio(ms(float64(w.use.cpu)), float64(w.txns)) })}
	out["allocs_per_txn"] = metric{Unit: "count",
		Value: lowest(tp, func(w *tpWindow) float64 { return ratio(float64(w.use.mallocs), float64(w.txns)) })}

	// The AP stream alone.
	ap := m.ap
	best, sweep := queryBest(ap), fastestSweep(ap)
	out["ap_query_per_s"] = metric{Unit: "1/s", N: 22 * len(ap.sweeps), Value: ratio(22, float64(sweep.ns)/1e9)}
	out["ap_geomean_ms"] = metric{Value: geomean(best[1:]), Unit: "ms", N: int(ap.queries)}
	out["ap_q09_ms"] = metric{Value: best[9], Unit: "ms", N: len(ap.lat[9])}
	out["cpu_ms_per_query"] = metric{Unit: "ms", Value: ms(float64(sweep.use.cpu)) / 22}
	out["allocs_per_query"] = metric{Unit: "count", Value: float64(sweep.use.mallocs) / 22}

	// Both side by side: what each costs the other.
	mixOrders := len(m.mix.lat[ch.NewOrderTxn])
	out["mix_neworder_p95_ms"] = metric{Unit: "ms", N: mixOrders, Value: lowest(m.mix, newOrderLatency(95))}
	out["mix_query_per_s"] = metric{Unit: "1/s", N: 22 * len(m.mixAP.sweeps), Value: ratio(22, float64(fastestSweep(m.mixAP).ns)/1e9)}
	return out
}

// tailsSupported names the tail percentiles that fewer than ten samples per
// window lie beyond, which the reporting rule does not allow.
func tailsSupported(m *measured) []string {
	var bad []string
	check := func(name string, tp *tpResult, p float64) {
		perWindow := len(tp.lat[ch.NewOrderTxn]) / len(tp.windows)
		if best := highestPercentile(perWindow); best < p {
			bad = append(bad, fmt.Sprintf("%s rests on about %d samples per window, which support p%v at most", name, perWindow, best))
		}
	}
	check("tp_neworder_p99_ms", m.tp, 99)
	check("mix_neworder_p95_ms", m.mix, 95)
	return bad
}
