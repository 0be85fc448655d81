// Scheduling: the paper's §2.2(5) — resource scheduling balances the
// trade-off between workload isolation and data freshness by moving
// workers between OLTP and OLAP and switching execution modes.
//
// The same bursty mixed workload runs three times on architecture A, once
// under each controller: workload-driven (HANA/Siper: follow demand,
// ignore freshness), freshness-driven (RDE: switch modes when staleness
// crosses a bound), and the adaptive controller combining both (the
// paper's §2.4 open problem).
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"htap"
	"htap/internal/ch"
	"htap/internal/sched"
)

func main() {
	controllers := []sched.Controller{
		sched.WorkloadDriven{Total: 4},
		sched.FreshnessDriven{Total: 4, MaxLag: 20},
		sched.Adaptive{Total: 4, MaxLag: 20},
	}
	fmt.Printf("%-20s %10s %10s %12s %7s\n", "controller", "txn/s", "q/s", "avg lag", "syncs")
	for _, ctrl := range controllers {
		tps, qps, lag, syncs := run(ctrl)
		fmt.Printf("%-20s %10.0f %10.1f %12.1f %7d\n", ctrl.Name(), tps, qps, lag, syncs)
	}
	fmt.Println("\nworkload-driven maximizes throughput but lets staleness grow;")
	fmt.Println("freshness-driven caps staleness at the cost of throughput;")
	fmt.Println("adaptive restores freshness by merging instead of sharing scans.")
}

func run(ctrl sched.Controller) (tps, qps, avgLag float64, syncs int64) {
	engine := htap.New(htap.ArchA, htap.CHSchemas())
	defer engine.Close()
	scale := htap.CHSmallScale(2)
	if _, err := htap.NewCHGenerator(scale).Load(engine); err != nil {
		log.Fatal(err)
	}
	engine.SetMode(sched.Isolated)
	driver := ch.NewDriver(engine, scale)
	queries := ch.Queries()

	rngs := make(chan *rand.Rand, 8)
	for i := 0; i < 8; i++ {
		rngs <- rand.New(rand.NewSource(int64(i)))
	}
	pool := sched.NewPool(
		func() bool {
			r := <-rngs
			err := driver.RunOne(context.Background(), r)
			rngs <- r
			return err == nil
		},
		func() bool {
			q := ch.Bind(context.Background(), engine)
			queries[6](q)
			q.Close()
			return true
		},
	)
	defer pool.Stop()

	decision := ctrl.Decide(sched.Signals{}, sched.Decision{})
	pool.Resize(decision.TPWorkers, decision.APWorkers)
	engine.SetMode(decision.Mode)

	var txns, qs int64
	var lagSum float64
	const epochs = 30
	start := time.Now()
	for ep := 0; ep < epochs; ep++ {
		time.Sleep(25 * time.Millisecond)
		tp, apc := pool.Completed()
		txns += tp
		qs += apc
		snap := engine.Freshness()
		lagSum += float64(snap.LagTS)
		// Demand bursts: even epochs are OLTP-heavy, odd ones OLAP-heavy.
		tpDemand, apDemand := tp*3+1, apc+1
		if ep%2 == 1 {
			tpDemand, apDemand = tp+1, apc*3+1
		}
		decision = ctrl.Decide(sched.Signals{
			TPCompleted: tp, APCompleted: apc,
			TPDemand: tpDemand, APDemand: apDemand,
			LagTS: snap.LagTS, LagTime: snap.LagTime,
		}, decision)
		pool.Resize(decision.TPWorkers, decision.APWorkers)
		engine.SetMode(decision.Mode)
		if decision.SyncNow {
			engine.Sync()
			syncs++
		}
	}
	el := time.Since(start).Seconds()
	pool.Resize(0, 0)
	return float64(txns) / el, float64(qs) / el, lagSum / epochs, syncs
}
