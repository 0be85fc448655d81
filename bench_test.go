// Benchmarks regenerating every table and figure of the paper (see
// DESIGN.md's per-experiment index). Each benchmark runs the corresponding
// experiment and reports its headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the measured counterpart of the paper's qualitative cells.
// cmd/repro prints the same results as formatted tables.
package htap_test

import (
	"fmt"
	"testing"
	"time"

	"htap/internal/accel"
	"htap/internal/ch"
	"htap/internal/core"
	"htap/internal/experiments"
	"htap/internal/htapbench"
	"htap/internal/micro"
)

// benchOpts sizes experiment benchmarks for repeatable sub-second windows.
func benchOpts() experiments.Opts {
	return experiments.Opts{Warehouses: 4, Duration: 200 * time.Millisecond, Seed: 42}
}

func loadedEngine(b *testing.B, a core.Arch) (core.Engine, ch.Scale) {
	b.Helper()
	e := experiments.NewEngine(a)
	s := ch.SmallScale(2)
	s.Customers = 60
	s.Orders = 60
	s.Items = 200
	if _, err := ch.NewGenerator(s).Load(e); err != nil {
		b.Fatal(err)
	}
	if c, ok := e.(*core.EngineC); ok {
		for _, sch := range ch.Schemas() {
			cols := make([]string, len(sch.Cols))
			for i, col := range sch.Cols {
				cols[i] = col.Name
			}
			c.LoadColumns(sch.Name, cols)
		}
	}
	e.Sync()
	return e, s
}

// --- F1: Figure 1 ---

// BenchmarkFig1Architectures runs the same mixed workload on each of the
// four storage architectures.
func BenchmarkFig1Architectures(b *testing.B) {
	for _, a := range []core.Arch{core.ArchA, core.ArchB, core.ArchC, core.ArchD} {
		a := a
		b.Run(a.String(), func(b *testing.B) {
			e, s := loadedEngine(b, a)
			defer e.Close()
			b.ResetTimer()
			var txns, queries int64
			for i := 0; i < b.N; i++ {
				res := htapbench.Run(htapbench.Config{
					Engine: e, Scale: s, TPWorkers: 2, APStreams: 1,
					Duration: 200 * time.Millisecond, QuerySet: []int{1, 6},
					SyncInterval: 50 * time.Millisecond, Seed: int64(i),
				})
				txns += res.Txns
				queries += res.Queries
			}
			el := b.Elapsed().Seconds()
			b.ReportMetric(float64(txns)/el, "txn/s")
			b.ReportMetric(float64(queries)/el, "query/s")
		})
	}
}

// --- T1: Table 1 ---

// BenchmarkTable1 measures every classification cell per architecture.
func BenchmarkTable1(b *testing.B) {
	for _, a := range []core.Arch{core.ArchA, core.ArchB, core.ArchC, core.ArchD} {
		a := a
		b.Run(a.String(), func(b *testing.B) {
			var last experiments.Table1Row
			for i := 0; i < b.N; i++ {
				rows := experiments.Table1(benchOpts())
				for _, r := range rows {
					if r.Arch == a {
						last = r
					}
				}
			}
			b.ReportMetric(last.TPThroughput, "tp-txn/s")
			b.ReportMetric(last.APThroughput, "ap-q/s")
			b.ReportMetric(last.TPSpeedup, "tp-speedup-x4")
			b.ReportMetric(last.IsolationPct, "isolation-%")
			b.ReportMetric(last.FreshLagMs, "fresh-lag-ms")
		})
	}
}

// --- T2.TP ---

// BenchmarkTable2TP compares MVCC+logging with 2PC+Raft+logging.
func BenchmarkTable2TP(b *testing.B) {
	var rows []experiments.TPRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2TP(benchOpts())
	}
	for _, r := range rows {
		b.ReportMetric(r.TPS1, r.Technique+"-tps@1")
		b.ReportMetric(r.Speedup, r.Technique+"-speedup")
	}
}

// --- T2.AP ---

// BenchmarkTable2AP compares the three analytical scan techniques.
func BenchmarkTable2AP(b *testing.B) {
	var rows []experiments.APRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2AP(benchOpts())
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.QueryLat.Microseconds()), r.Technique+"-µs")
	}
}

// --- T2.DS ---

// BenchmarkTable2DS compares the three data-synchronization techniques.
func BenchmarkTable2DS(b *testing.B) {
	var rows []experiments.DSRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2DS(benchOpts())
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.MergeTime.Microseconds()), r.Technique+"-µs")
		b.ReportMetric(float64(r.LoadCost), r.Technique+"-rows")
	}
}

// --- T2.QO ---

// BenchmarkTable2QO covers column selection, hybrid scans, and CPU/GPU
// placement.
func BenchmarkTable2QO(b *testing.B) {
	b.Run("colsel", func(b *testing.B) {
		var rows []experiments.ColSelRow
		for i := 0; i < b.N; i++ {
			rows = experiments.Table2QOColSel(benchOpts())
		}
		for _, r := range rows {
			b.ReportMetric(r.Utility, fmt.Sprintf("%s@%d%%-utility", r.Policy, r.BudgetPct))
		}
	})
	b.Run("hybrid-scan", func(b *testing.B) {
		var rows []experiments.HybridRow
		for i := 0; i < b.N; i++ {
			rows = experiments.Table2QOHybrid(benchOpts())
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Latency.Microseconds()), r.Plan+"-µs")
		}
	})
	b.Run("cpu-gpu", func(b *testing.B) {
		var rows []experiments.AccelRow
		for i := 0; i < b.N; i++ {
			rows = experiments.Table2QOAccel(benchOpts())
		}
		for _, r := range rows {
			b.ReportMetric(r.TPRate, r.Placement.String()+"-tp/s")
			b.ReportMetric(r.APRate, r.Placement.String()+"-ap/s")
		}
	})
}

// --- T2.RS ---

// BenchmarkTable2RS compares the scheduling controllers.
func BenchmarkTable2RS(b *testing.B) {
	var rows []experiments.RSRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2RS(benchOpts())
	}
	for _, r := range rows {
		b.ReportMetric(r.TPS, r.Policy+"-txn/s")
		b.ReportMetric(r.FreshAvgTS, r.Policy+"-lag")
	}
}

// --- B2: the HTAPBench rule ---

// BenchmarkHTAPBench runs the paced HTAPBench rule: a fixed tpmC target,
// measuring the analytical throughput sustained beside it.
func BenchmarkHTAPBench(b *testing.B) {
	e, s := loadedEngine(b, core.ArchA)
	defer e.Close()
	b.ResetTimer()
	var qphh float64
	for i := 0; i < b.N; i++ {
		res := htapbench.Run(htapbench.Config{
			Engine: e, Scale: s, TPWorkers: 2, APStreams: 2,
			Duration: 300 * time.Millisecond, TargetTpmC: 6000,
			SyncInterval: 50 * time.Millisecond, Seed: int64(i),
		})
		qphh = res.QphH
	}
	b.ReportMetric(qphh, "QphH@6000tpmC")
}

// --- B3: micro-benchmarks ---

// BenchmarkMicroADAPT runs the ADAPT sweep.
func BenchmarkMicroADAPT(b *testing.B) {
	var pts []micro.ADAPTPoint
	for i := 0; i < b.N; i++ {
		pts = micro.RunADAPT(30_000, 16, []float64{0.0625, 1.0}, 1000)
	}
	for _, p := range pts {
		b.ReportMetric(float64(p.ScanTime.Microseconds()),
			fmt.Sprintf("%s@%.2f-scan-µs", p.Layout, p.Projectivity))
	}
}

// BenchmarkMicroHAP runs the HAP update-fraction sweep.
func BenchmarkMicroHAP(b *testing.B) {
	var pts []micro.HAPPoint
	for i := 0; i < b.N; i++ {
		pts = micro.RunHAP(3000, 8, 40, []float64{0.0, 1.0})
	}
	for _, p := range pts {
		b.ReportMetric(p.OpsPerSec, fmt.Sprintf("%s@%.1f-ops/s", p.Layout, p.UpdateFraction))
	}
}

// --- E1: isolation vs freshness ---

// BenchmarkTradeoff sweeps the synchronization period on architecture A.
func BenchmarkTradeoff(b *testing.B) {
	var pts []experiments.TradeoffPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.Tradeoff(benchOpts(), []time.Duration{
			2 * time.Millisecond, 50 * time.Millisecond,
		})
	}
	for _, p := range pts {
		b.ReportMetric(p.TPS, fmt.Sprintf("tps@sync=%s", p.SyncInterval))
		b.ReportMetric(p.FreshLagMs, fmt.Sprintf("lag-ms@sync=%s", p.SyncInterval))
	}
}

// --- X1: §2.4 extensions ---

// BenchmarkExtensions measures the future-work features built on top of
// the survey's baselines: the decayed (learned-lite) column selector under
// workload shift, and the adaptive scheduler.
func BenchmarkExtensions(b *testing.B) {
	b.Run("accel-crossover", func(b *testing.B) {
		// Locate the CPU/GPU crossover row count; a shape the cost model
		// must keep stable.
		cpu, gpu := accel.CPU(), accel.GPU()
		var cross int
		for n := 0; n < b.N; n++ {
			cross = 0
			for rows := 1; rows <= 1_000_000; rows *= 2 {
				if gpu.KernelCost(rows, rows*16) < cpu.KernelCost(rows, rows*16) {
					cross = rows
					break
				}
			}
		}
		b.ReportMetric(float64(cross), "crossover-rows")
	})
	b.Run("adaptive-scheduler", func(b *testing.B) {
		var rows []experiments.RSRow
		for i := 0; i < b.N; i++ {
			rows = experiments.Table2RS(benchOpts())
		}
		for _, r := range rows {
			if r.Policy == "adaptive" {
				b.ReportMetric(r.TPS, "adaptive-txn/s")
				b.ReportMetric(r.FreshAvgTS, "adaptive-lag")
			}
		}
	})
}
