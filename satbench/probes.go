package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"satin"
	"satin/internal/campaign"
	"satin/internal/experiment"
	"satin/internal/hw"
	"satin/internal/introspect"
	"satin/internal/mem"
	"satin/internal/spec"
	unixbench "satin/internal/workload"
)

// The traced run's layer probes. Each calls one layer's public functions
// serially, from outside, and attributes time, allocations and the
// simulator's own counters to that layer alone.

// probePass runs every cell once, serially, through satin.FromSpec,
// DriveSpec and Report, and reads the scenario's counters. Allocation
// deltas are taken here only: with nothing else running, a call's mallocs
// are its own.
func probePass(tr *tracer, process string, cells []campaign.Cell, m metrics) error {
	var boot, drive, reduce, bootAllocs, runAllocs []float64
	var hits, misses [2]uint64 // [0] evader cells, [1] clean cells
	var hashed, entries, rounds, events, driveNs float64
	for _, c := range cells {
		s := *c.Scenario
		track := fmt.Sprintf("cell %d", c.Index)
		var m0, m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		sc, err := satin.FromSpec(s)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("probe cell %d: %w", c.Index, err)
		}
		runtime.ReadMemStats(&m1)
		t2 := time.Now()
		satin.DriveSpec(sc, s)
		t3 := time.Now()
		runtime.ReadMemStats(&m2)
		t4 := time.Now()
		rep := sc.Report()
		t5 := time.Now()
		tr.add(process, track, "probe cell", "", t0, t5)
		tr.add(process, track, "satin.FromSpec", "", t0, t1)
		tr.add(process, track, "satin.DriveSpec", "", t2, t3)
		tr.add(process, track, "satin.Report", "", t4, t5)

		boot = append(boot, ms(t1.Sub(t0)))
		drive = append(drive, ms(t3.Sub(t2)))
		reduce = append(reduce, ms(t5.Sub(t4)))
		bootAllocs = append(bootAllocs, float64(m1.Mallocs-m0.Mallocs))
		runAllocs = append(runAllocs, float64(m2.Mallocs-m1.Mallocs))

		h, mi := sc.Checker().CacheStats()
		k := 0
		if s.Evader.Kind == spec.EvaderNone {
			k = 1
		}
		hits[k] += h
		misses[k] += mi
		hashed += counter(rep, "introspect.bytes_hashed")
		entries += counter(rep, "monitor.world_entries")
		rounds += float64(rep.SATINRounds)
		events += float64(sc.Engine().Dispatched())
		driveNs += float64(t3.Sub(t2))
	}
	n := float64(len(cells))
	m.set("satin.boot_ms_p50", median(boot))
	m.set("satin.run_ms_p50", median(drive))
	m.set("satin.reduce_ms_p50", median(reduce))
	m.set("satin.boot_allocs", median(bootAllocs))
	m.set("satin.run_allocs", median(runAllocs))
	m.set("introspect.cache_hit_ratio_evader", ratio(float64(hits[0]), float64(hits[0]+misses[0])))
	m.set("introspect.cache_hit_ratio_clean", ratio(float64(hits[1]), float64(hits[1]+misses[1])))
	m.set("introspect.bytes_hashed_per_cell", hashed/n)
	m.set("trustzone.world_entries_per_cell", entries/n)
	m.set("core.rounds_per_cell", rounds/n)
	m.set("simclock.events_per_cell", events/n)
	m.set("simclock.ns_per_event", ratio(driveNs, events))
	return nil
}

func counter(rep satin.Report, name string) float64 {
	row, ok := rep.Metrics.Get(name)
	if !ok {
		return 0
	}
	return float64(row.Value)
}

// bootProbe times the seed-only part of booting a board: generating the
// kernel image and hashing its golden table, once per distinct seed (at
// least five samples).
func bootProbe(tr *tracer, process string, seeds []uint64, m metrics) error {
	areas, err := mem.BuildAreas(mem.JunoKernelLayout(), mem.JunoAreaGroups())
	if err != nil {
		return err
	}
	list := seeds
	for len(list) < 5 {
		list = append(list, seeds...)
	}
	var image, golden, mib []float64
	for _, seed := range list {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		im, err := mem.NewJunoImage(seed)
		t1 := time.Now()
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		t2 := time.Now()
		_, err = introspect.GoldenTable(im, introspect.HashDjb2, areas)
		t3 := time.Now()
		if err != nil {
			return err
		}
		track := fmt.Sprintf("boot seed %d", seed)
		tr.add(process, track, "mem.NewJunoImage", "", t0, t1)
		tr.add(process, track, "introspect.GoldenTable", "", t2, t3)
		image = append(image, ms(t1.Sub(t0)))
		golden = append(golden, ms(t3.Sub(t2)))
		mib = append(mib, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	}
	m.set("mem.image_ms", median(image))
	m.set("mem.image_mb", median(mib))
	m.set("introspect.golden_ms", median(golden))
	return nil
}

// specProbe times the set-up path's pure functions: canonicalizing the
// scenario template and expanding the campaign into cells.
func specProbe(tr *tracer, process string, in campaignInput, m metrics) error {
	var canon, expand []time.Duration
	var err error
	for i := 0; i < 200; i++ {
		canon = append(canon, tr.do(process, "spec", "spec.Canonicalize", func() {
			_, err = spec.Canonicalize(*in.raw.Scenario)
		}))
		if err != nil {
			return err
		}
	}
	for i := 0; i < 20; i++ {
		expand = append(expand, tr.do(process, "campaign", "campaign.Cells", func() {
			_, err = campaign.Cells(in.canon)
		}))
		if err != nil {
			return err
		}
	}
	m.set("spec.canonicalize_us", us(durMedian(canon)))
	m.set("campaign.expand_ms", ms(durMedian(expand)))
	return nil
}

// replayProbe replays a finalized result's cells through a fresh result
// file — CreateOrResume, Append per cell, Finalize — and requires the
// replayed file to be byte-identical to the original.
func replayProbe(e *env, process string, in campaignInput, final []byte, m metrics) error {
	_, results, _, err := campaign.ReadFile(final)
	if err != nil {
		return err
	}
	path := filepath.Join(e.dir, "replay.result")
	rf, err := campaign.CreateOrResume(path, in.specBytes)
	if err != nil {
		return err
	}
	var app []time.Duration
	for _, r := range results {
		r := r
		app = append(app, e.tr.do(process, "result file", "campaign.ResultFile.Append", func() {
			err = rf.Append(r)
		}))
		if err != nil {
			rf.Close()
			return err
		}
	}
	fin := e.tr.do(process, "result file", "campaign.ResultFile.Finalize", func() {
		err = rf.Finalize(len(results))
	})
	if cerr := rf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	got, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, final) {
		return fmt.Errorf("replayed result file differs from the run's finalized bytes")
	}
	m.set("campaign.append_us", us(durMedian(app)))
	m.set("campaign.finalize_ms", ms(fin))
	return os.Remove(path)
}

// richosProbe runs the normal world alone: a rig per UnixBench program at 1
// and 6 tasks, advanced over the quick Fig. 7 window with SATIN off, so
// every dispatched event is the rich OS's.
func richosProbe(tr *tracer, process string, seed uint64, window time.Duration, m metrics) error {
	var wall time.Duration
	var events, mallocs uint64
	runs := 0
	for _, ws := range unixbench.UnixBench() {
		for _, tasks := range []int{1, 6} {
			rig, err := experiment.NewRig(seed)
			if err != nil {
				return err
			}
			if _, err := unixbench.Start(rig.OS, ws, tasks); err != nil {
				return err
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			d0 := rig.Engine.Dispatched()
			t0 := time.Now()
			rig.Engine.RunFor(window)
			t1 := time.Now()
			runtime.ReadMemStats(&m1)
			tr.add(process, fmt.Sprintf("richos %s x%d", ws.Name, tasks), "simclock.Engine.RunFor", "", t0, t1)
			wall += t1.Sub(t0)
			events += rig.Engine.Dispatched() - d0
			mallocs += m1.Mallocs - m0.Mallocs
			runs++
		}
	}
	m.set("richos.ns_per_event", ratio(float64(wall), float64(events)))
	m.set("richos.events_per_sim_s", float64(events)/(window.Seconds()*float64(runs)))
	m.set("richos.allocs_per_event", ratio(float64(mallocs), float64(events)))
	return nil
}

// Paper numbers quoted in the registry's section headers and result
// types. The model was calibrated to them, so the errors below are
// in-sample, not held-out validation.
const (
	paperFig7Avg1Task    = 0.711   // % degradation, 1 task (Fig. 7)
	paperFig7Avg6Task    = 0.848   // % degradation, 6 tasks (Fig. 7)
	paperTable1A53Hash   = 1.07e-8 // s per byte, A53 hash (Table I)
	paperDetectionFullSc = 152.0   // s per full scan (§VI-B1)
)

// accuracyProbe reports the simulator's error against the paper from the
// typed results of the quick Fig. 7 run, Table I and the detection run.
func accuracyProbe(tr *tracer, process string, seed uint64, window time.Duration, m metrics) error {
	cfg := experiment.DefaultFig7Config()
	cfg.Seed = seed
	cfg.Window = window
	var f7 experiment.Fig7Result
	var err error
	tr.do(process, "accuracy", "experiment.RunFig7", func() { f7, err = experiment.RunFig7(cfg) })
	if err != nil {
		return err
	}
	var t1 experiment.Table1Result
	tr.do(process, "accuracy", "experiment.RunTable1", func() { t1, err = experiment.RunTable1(seed) })
	if err != nil {
		return err
	}
	a53, err := t1.Cell(hw.CortexA53, introspect.DirectHash)
	if err != nil {
		return err
	}
	dc := experiment.DefaultDetectionConfig()
	dc.Seed = seed
	var det experiment.DetectionResult
	tr.do(process, "accuracy", "experiment.RunDetection", func() { det, err = experiment.RunDetection(dc) })
	if err != nil {
		return err
	}
	m.set("accuracy.fig7_avg_1task_pp", math.Abs(100*f7.Average(1)-paperFig7Avg1Task))
	m.set("accuracy.fig7_avg_6task_pp", math.Abs(100*f7.Average(6)-paperFig7Avg6Task))
	m.set("accuracy.table1_a53_hash_pct", 100*math.Abs(a53.PerByte.Mean-paperTable1A53Hash)/paperTable1A53Hash)
	m.set("accuracy.detection_full_scan_pct", 100*math.Abs(det.MeanFullScanTime.Seconds()-paperDetectionFullSc)/paperDetectionFullSc)
	return nil
}
