package main

import (
	"context"
	"sync"
	"time"

	"htap/internal/ch"
)

// tpWindows is how many equal windows a TP run is cut into. End-to-end TP
// numbers are computed per window and the best window is reported (see
// endToEnd), so that a stall, a collection or a noisy neighbour that hits
// some windows does not move them.
const tpWindows = 5

// tpWindow is one window of a TP run.
type tpWindow struct {
	txns     int64 // completed, counted where they started
	wall     time.Duration
	use      usage
	newOrder samples // New-Order latencies
}

// tpResult is what one TP run observed.
type tpResult struct {
	windows []tpWindow
	// lat holds per-class latencies: from start on a closed loop, from the
	// due time on an open loop, so a stall is charged to every transaction
	// it delayed.
	lat [ch.StockLevelTxn + 1]samples
	// svc holds per-class service times, start to end, on either loop.
	svc    [ch.StockLevelTxn + 1]samples
	txns   int64 // completed
	failed int64 // errors after core.Exec's retries, or never started
	wall   time.Duration
	// Open loop only: how late the generator itself ran.
	late    int64 // transactions started more than one interval after due
	maxLate time.Duration
}

func (r *tpResult) attempted() int64 { return r.txns + r.failed }

func (r *tpResult) svcMeanNS() float64 {
	var sum, n float64
	for _, s := range r.svc {
		for _, v := range s {
			sum += float64(v)
		}
		n += float64(len(s))
	}
	return ratio(sum, n)
}

// pacer yields the due time of each transaction of an open loop: a fixed
// schedule that does not slow down when the system does.
type pacer struct {
	start    time.Time
	interval time.Duration
	n        int64
}

func newPacer(start time.Time, rate float64) *pacer {
	return &pacer{start: start, interval: time.Duration(float64(time.Second) / rate)}
}

// next returns the due time of the next transaction.
func (p *pacer) next() time.Time {
	due := p.start.Add(time.Duration(p.n) * p.interval)
	p.n++
	return due
}

// spinWithin is how close to a due time the pacer stops sleeping. The sizing
// host rounds a sleep of under a millisecond up to the next timer tick,
// about 1.1 ms away, which would make the generator itself the latency
// being measured. Longer sleeps wake within 0.2 ms, so the pacer sleeps to
// just short of the due time and spins for the rest. It spins without
// yielding: a yield beside a CPU-bound query hands the processor over for a
// whole scheduler quantum.
const spinWithin = 300 * time.Microsecond

func waitUntil(due time.Time) {
	if wait := time.Until(due); wait > time.Millisecond+spinWithin {
		time.Sleep(wait - spinWithin)
	}
	for time.Now().Before(due) {
	}
}

// lateness accounts one transaction that was due at due and started at
// started.
func (r *tpResult) lateness(due, started time.Time, interval time.Duration) {
	if d := started.Sub(due); d > 0 {
		if d > interval {
			r.late++
		}
		if d > r.maxLate {
			r.maxLate = d
		}
	}
}

// giveUpAfter keeps a run of a second or two, the smoke test's, from giving
// up on a host that is merely slow, such as one under the race detector.
const giveUpAfter = 10 * time.Second

// runTP drives the TPC-C mix against the rig from one client for dur.
func runTP(ctx context.Context, r *rig, dur time.Duration, rate float64, tr *tracer) *tpResult {
	return driveTP(ctx, dur, rate, tr, func() (ch.TxnType, error) { return r.driver.RunOneTyped(ctx, r.rng) })
}

// driveTP calls run, one transaction per call, from one client for dur.
// With rate 0 the loop is closed: the next transaction starts when the last
// one ends. With a rate it is open: transaction i is due at start + i/rate
// whatever the system does, every transaction due within dur is run, and
// latency counts from the due time. An open loop that falls more than dur
// behind (and more than giveUpAfter) gives up, and what it never started
// counts as failed.
func driveTP(ctx context.Context, dur time.Duration, rate float64, tr *tracer, run func() (ch.TxnType, error)) *tpResult {
	res := &tpResult{windows: make([]tpWindow, 1, tpWindows)}
	start := time.Now()
	end := start.Add(dur)
	var p *pacer
	if rate > 0 {
		p = newPacer(start, rate)
	}
	winStart, winUse := start, usageNow()
	// closeWindow ends the current window at now.
	closeWindow := func(now time.Time) {
		w := &res.windows[len(res.windows)-1]
		w.wall, w.use = now.Sub(winStart), winUse.since()
		winStart, winUse = now, usageNow()
	}
	for ctx.Err() == nil {
		var due time.Time
		if p != nil {
			due = p.next()
			if !due.Before(end) {
				break
			}
			if time.Now().After(due.Add(max(dur, giveUpAfter))) {
				res.failed += int64(end.Sub(due) / p.interval)
				break
			}
			waitUntil(due)
		} else if !time.Now().Before(end) {
			break
		}
		began := time.Now()
		if n := len(res.windows); n < tpWindows && began.Sub(start) >= dur*time.Duration(n)/tpWindows {
			closeWindow(began)
			res.windows = append(res.windows, tpWindow{})
		}
		win := &res.windows[len(res.windows)-1]
		o := tr.begin("txn")
		class, err := run()
		done := time.Now()
		tr.finish(o, class.String())
		if err != nil {
			res.failed++
			continue
		}
		res.txns++
		win.txns++
		res.svc[class] = append(res.svc[class], int64(done.Sub(began)))
		lat := done.Sub(began)
		if p != nil {
			res.lateness(due, began, p.interval)
			lat = done.Sub(due)
		}
		res.lat[class] = append(res.lat[class], int64(lat))
		if class == ch.NewOrderTxn {
			win.newOrder = append(win.newOrder, int64(lat))
		}
	}
	closeWindow(time.Now())
	res.wall = time.Since(start)
	return res
}

// apResult is what one AP run observed.
type apResult struct {
	lat     [23]samples // per query, index 1..22
	queries int64       // successful
	failed  int64
	// sweeps holds whole Q1..Q22 sweeps only, so that throughput and cost
	// are taken over a fixed query mix; end-to-end AP numbers are medians
	// over the sweeps.
	sweeps []apSweep
	// unstable lists queries whose result changed between sweeps although
	// the data was quiescent.
	unstable []int
}

// apSweep is one whole sweep: the time its 22 queries took and what the
// process spent from its first query to its last.
type apSweep struct {
	ns  int64
	use usage
}

func (r *apResult) attempted() int64 { return r.queries + r.failed }

// runAP cycles Q1..Q22 in order from one closed-loop stream. With a budget
// it runs whole sweeps until the next would overshoot the budget by more
// than it undershoots; without, until stop closes, when it drops the sweep
// in hand unless it is the first. With quiescent set, every sweep must
// reproduce the first one's digests.
func runAP(ctx context.Context, r *rig, budget time.Duration, stop <-chan struct{}, quiescent bool, tr *tracer) *apResult {
	res := &apResult{}
	start := time.Now()
	var first [23]string
	stopped := func() bool {
		select {
		case <-stop:
			return len(res.sweeps) > 0
		default:
			return ctx.Err() != nil
		}
	}
	for !stopped() {
		if budget > 0 && len(res.sweeps) > 0 {
			if avg := time.Since(start) / time.Duration(len(res.sweeps)); time.Since(start)+avg/2 > budget {
				break
			}
		}
		sweep, u := apSweep{}, usageNow()
		whole := true
		for q := 1; q <= 22; q++ {
			if stopped() {
				whole = false
				break
			}
			t0 := tr.now()
			began := time.Now()
			rows, err := r.runQuery(ctx, q)
			el := time.Since(began)
			if err != nil {
				res.failed++
				whole = false
				continue
			}
			tr.recordQuery(queryNames[q], t0, t0+int64(el))
			res.queries++
			res.lat[q] = append(res.lat[q], int64(el))
			sweep.ns += int64(el)
			if quiescent {
				d := digest(rows)
				if first[q] == "" {
					first[q] = d
				} else if first[q] != d {
					res.unstable = append(res.unstable, q)
				}
			}
		}
		if whole {
			sweep.use = u.since()
			res.sweeps = append(res.sweeps, sweep)
		}
	}
	return res
}

// syncLoop runs engine.Sync every syncEvery until stop closes.
func syncLoop(r *rig, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	t := time.NewTicker(syncEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			r.local.Sync()
		}
	}
}
