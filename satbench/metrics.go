package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"satin/internal/experiment"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value; set looks the unit up in the
// tables below, so a name missing from them is a bug caught at once.
type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	d, ok := metricByName[name]
	if !ok {
		panic("satbench: metric " + name + " is not declared in metrics.go")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: d.unit}
}

// def declares one metric. For a per-layer metric, moves names the
// end-to-end metric it should move and on names the workloads where the
// layer is exercised; elsewhere the traced run reports it as 0.
type def struct {
	name, unit, better string
	moves              string
	on                 []string
}

const (
	paperW  = "paper-quick"
	gridW   = "campaign-grid"
	servedW = "served-sweep"
)

var (
	allW      = []string{paperW, gridW, servedW}
	campaignW = []string{gridW, servedW}
)

// endToEndDefs are the metrics of untraced runs, reported on every workload.
// On paper-quick a "cell" is one registry experiment.
var endToEndDefs = []def{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "cells_per_s", unit: "1/s", better: "higher"},
	{name: "cell_ms_p50", unit: "ms", better: "lower"},
	{name: "cell_ms_p90", unit: "ms", better: "lower"},
	{name: "alloc_mb", unit: "MiB", better: "lower"},
	{name: "max_rss_mb", unit: "MiB", better: "lower"},
}

// layerDefs are the traced run's per-layer metrics.
var layerDefs = append([]def{
	{"satin.boot_ms_p50", "ms", "lower", "cells_per_s, cell_ms_p50, alloc_mb on campaign-grid; no change on served-sweep", campaignW},
	{"satin.run_ms_p50", "ms", "lower", "cell_ms_p50 on campaign-grid", campaignW},
	{"satin.reduce_ms_p50", "ms", "lower", "cell_ms_p50 on campaign-grid", campaignW},
	{"satin.boot_allocs", "count", "lower", "alloc_mb on campaign-grid", campaignW},
	{"satin.run_allocs", "count", "lower", "alloc_mb on campaign-grid", campaignW},
	{"mem.image_ms", "ms", "lower", "cells_per_s on campaign-grid (part of satin.boot_ms)", allW},
	{"mem.image_mb", "MiB", "lower", "alloc_mb on campaign-grid (part of satin.boot_allocs)", allW},
	{"introspect.golden_ms", "ms", "lower", "cells_per_s on campaign-grid (part of satin.boot_ms)", allW},
	{"introspect.cache_hit_ratio_evader", "ratio", "higher", "cell_ms_p50 on campaign-grid", campaignW},
	{"introspect.cache_hit_ratio_clean", "ratio", "higher", "cell_ms_p50 on campaign-grid", []string{gridW}},
	{"introspect.bytes_hashed_per_cell", "bytes", "lower", "cell_ms_p50 on campaign-grid", campaignW},
	{"trustzone.world_entries_per_cell", "count", "lower", "cell_ms_p50 on campaign-grid", campaignW},
	{"core.rounds_per_cell", "count", "lower", "cell_ms_p50 on campaign-grid", campaignW},
	{"simclock.events_per_cell", "count", "lower", "cell_ms_p50 on campaign-grid", campaignW},
	{"simclock.ns_per_event", "ns", "lower", "cell_ms_p50 on campaign-grid", campaignW},
	{"richos.ns_per_event", "ns", "lower", "wall_s on paper-quick", []string{paperW}},
	{"richos.events_per_sim_s", "1/s", "lower", "wall_s on paper-quick", []string{paperW}},
	{"richos.allocs_per_event", "count", "lower", "wall_s and alloc_mb on paper-quick", []string{paperW}},
	{"experiment.rig_boot_ms", "ms", "lower", "wall_s on paper-quick", []string{paperW}},
	{"spec.canonicalize_us", "us", "lower", "setup_s on campaign-grid and served-sweep", campaignW},
	{"campaign.expand_ms", "ms", "lower", "setup_s on campaign-grid and served-sweep", campaignW},
	{"campaign.append_us", "us", "lower", "wall_s on campaign-grid", campaignW},
	{"campaign.finalize_ms", "ms", "lower", "wall_s on campaign-grid", campaignW},
	{"campaign.forked_ratio", "ratio", "higher", "cells_per_s on campaign-grid", []string{gridW}},
	{"runner.idle_ratio", "ratio", "lower", "cells_per_s and cell_ms_p90 on campaign-grid and served-sweep", campaignW},
	{"shard.plan_us", "us", "lower", "setup_s on served-sweep", []string{servedW}},
	{"shard.imbalance", "ratio", "lower", "cells_per_s on served-sweep", []string{servedW}},
	{"serve.submit_ms", "ms", "lower", "setup_s on served-sweep", []string{servedW}},
	{"serve.lease_ms_p50", "ms", "lower", "cells_per_s and cell_ms_p90 on served-sweep", []string{servedW}},
	{"serve.progress_ms_p50", "ms", "lower", "cells_per_s and cell_ms_p90 on served-sweep", []string{servedW}},
	{"serve.upload_ms_p50", "ms", "lower", "cells_per_s and cell_ms_p90 on served-sweep", []string{servedW}},
	{"serve.result_ms", "ms", "lower", "wall_s on served-sweep", []string{servedW}},
	{"serve.requests_per_cell", "count", "lower", "cells_per_s and cell_ms_p90 on served-sweep", []string{servedW}},
	{"serve.leases_granted", "count", "lower", "cells_per_s on served-sweep", []string{servedW}},
	{"serve.leases_expired", "count", "lower", "cells_per_s and cell_ms_p90 on served-sweep", []string{servedW}},
	{"serve.stale_rejections", "count", "lower", "cells_per_s and cell_ms_p90 on served-sweep", []string{servedW}},
	{"serve.useful_cell_ratio", "ratio", "higher", "cells_per_s on served-sweep", []string{servedW}},
	{"serve.merge_ms", "ms", "lower", "wall_s on served-sweep", []string{servedW}},
	{"serve.worker_idle_ratio", "ratio", "lower", "cells_per_s and cell_ms_p90 on served-sweep", []string{servedW}},
	{"bench.trace_overhead_ratio", "ratio", "lower", "none: traced wall_s over untraced wall_s of the same run", allW},
	{"accuracy.fig7_avg_1task_pp", "pp", "lower", "none: in-sample error against the calibration target", []string{paperW}},
	{"accuracy.fig7_avg_6task_pp", "pp", "lower", "none: in-sample error against the calibration target", []string{paperW}},
	{"accuracy.table1_a53_hash_pct", "%", "lower", "none: in-sample error against the calibration target", []string{paperW}},
	{"accuracy.detection_full_scan_pct", "%", "lower", "none: in-sample error against the calibration target", []string{paperW}},
}, experimentDefs()...)

// experimentDefs declares experiment.<name>_s for every registry entry.
func experimentDefs() []def {
	var out []def
	for _, name := range experiment.Names() {
		out = append(out, def{"experiment." + name + "_s", "s", "lower", "wall_s on paper-quick", []string{paperW}})
	}
	return out
}

var metricByName = func() map[string]def {
	m := map[string]def{}
	for _, d := range append(append([]def(nil), endToEndDefs...), layerDefs...) {
		if _, dup := m[d.name]; dup {
			panic("satbench: metric " + d.name + " declared twice")
		}
		m[d.name] = d
	}
	return m
}()

// zeroLayers starts a traced run's metric set with every per-layer metric
// at 0, the value of a layer the workload does not exercise.
func zeroLayers() metrics {
	m := metrics{}
	for _, d := range layerDefs {
		m.set(d.name, 0)
	}
	return m
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics (the inclusive
// method). An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func durMedian(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// maxRSSMB reads the process's peak resident set (VmHWM) in MiB.
func maxRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// ratio divides, reporting 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
