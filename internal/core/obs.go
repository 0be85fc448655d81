// Engine observability: every architecture exports the same htap_engine_*
// series (labeled arch="A".."D"), so one scrape compares the four designs
// side by side — the per-architecture view of the paper's Table 1 trade-offs.
// Scrape-time callbacks (freshness lag, device counters) are registered per
// live engine and handed over when an experiment rebuilds one.
package core

import (
	"htap/internal/colstore"
	"htap/internal/disk"
	"htap/internal/obs"
	"htap/internal/planner"
	"htap/internal/txn"
)

// Label returns the short arch value used in metric labels.
func (a Arch) Label() string {
	switch a {
	case ArchA:
		return "A"
	case ArchB:
		return "B"
	case ArchC:
		return "C"
	case ArchD:
		return "D"
	default:
		return "?"
	}
}

// archMetrics holds the hot-path handles of one architecture. Engines of the
// same architecture share the series (registry get-or-create), so counters
// survive engine rebuilds within a run.
type archMetrics struct {
	begins    *obs.Counter   // htap_engine_txn_begins_total
	commits   *obs.Counter   // htap_engine_txn_commits_total
	aborts    *obs.Counter   // htap_engine_txn_aborts_total
	commitLat *obs.Histogram // htap_engine_commit_duration_ns
	queries   *obs.Counter   // htap_engine_queries_total
	syncs     *obs.Counter   // htap_engine_syncs_total
	syncLat   *obs.Histogram // htap_engine_sync_duration_ns
}

func newArchMetrics(a Arch) archMetrics {
	l := obs.L("arch", a.Label())
	return archMetrics{
		begins:    obs.Default.Counter("htap_engine_txn_begins_total", l),
		commits:   obs.Default.Counter("htap_engine_txn_commits_total", l),
		aborts:    obs.Default.Counter("htap_engine_txn_aborts_total", l),
		commitLat: obs.Default.Histogram("htap_engine_commit_duration_ns", l),
		queries:   obs.Default.Counter("htap_engine_queries_total", l),
		syncs:     obs.Default.Counter("htap_engine_syncs_total", l),
		syncLat:   obs.Default.Histogram("htap_engine_sync_duration_ns", l),
	}
}

// registerEngineFuncs exports scrape-time callbacks for one live engine: the
// freshness lag gauges every architecture must expose, how far its oldest
// open reader trails the watermark, the row versions its stores hold (nil
// when it has no row store), and its device counters re-labeled by
// architecture.
// Rebuilding an engine of the same architecture transfers series ownership
// to the newest instance; Close unregisters only what it still owns.
func registerEngineFuncs(a Arch, fresh func() Freshness, dev func() disk.Stats, pins *txn.Pins, versions func() int64) []*obs.FuncHandle {
	l := obs.L("arch", a.Label())
	hs := []*obs.FuncHandle{
		obs.Default.RegisterFunc("htap_freshness_lag_ts", l, obs.KindGauge, func() float64 {
			return float64(fresh().LagTS)
		}),
		obs.Default.RegisterFunc("htap_freshness_lag_seconds", l, obs.KindGauge, func() float64 {
			return fresh().LagTime.Seconds()
		}),
		obs.Default.RegisterFunc("htap_txn_snapshot_lag", l, obs.KindGauge, func() float64 {
			return float64(pins.Lag())
		}),
	}
	if versions != nil {
		hs = append(hs, obs.Default.RegisterFunc("htap_rowstore_versions", l, obs.KindGauge, func() float64 {
			return float64(versions())
		}))
	}
	for _, c := range []struct {
		name string
		get  func(disk.Stats) int64
	}{
		{"htap_disk_read_ops", func(s disk.Stats) int64 { return s.ReadOps }},
		{"htap_disk_write_ops", func(s disk.Stats) int64 { return s.WriteOps }},
		{"htap_disk_read_bytes", func(s disk.Stats) int64 { return s.ReadBytes }},
		{"htap_disk_write_bytes", func(s disk.Stats) int64 { return s.WriteBytes }},
		{"htap_disk_faults_injected", func(s disk.Stats) int64 { return s.FaultsInjected }},
		{"htap_disk_torn_writes", func(s disk.Stats) int64 { return s.TornWrites }},
		{"htap_disk_torn_bytes_discarded", func(s disk.Stats) int64 { return s.TornBytesDiscarded }},
		{"htap_disk_crashes", func(s disk.Stats) int64 { return s.Crashes }},
	} {
		get := c.get
		hs = append(hs, obs.Default.RegisterFunc(c.name, l, obs.KindCounter, func() float64 {
			return float64(get(dev()))
		}))
	}
	return hs
}

// observeSelectivity registers a pushed-predicate selection-density
// observer on tbl (see colstore.Table.SetSelObserver): every segment a scan
// filters with pushed-down predicates reports the fraction of rows its
// selection vector kept. Observations feed fb — the engine's planner
// feedback accumulator — and the running per-table estimate is exported as
// the htap_planner_observed_selectivity gauge.
func observeSelectivity(fb *planner.Feedback, a Arch, tbl *colstore.Table) {
	name := tbl.Schema.Name
	g := obs.Default.Gauge("htap_planner_observed_selectivity", obs.L("arch", a.Label(), "table", name))
	tbl.SetSelObserver(func(sel float64) {
		fb.Observe(name, sel)
		if s, ok := fb.Selectivity(name); ok {
			g.Set(s)
		}
	})
}
