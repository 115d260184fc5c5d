package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"satin/internal/profile"
	"satin/internal/telemetry"
)

// Self-tests at the smallest workload sizes: 16 grid cells, 4 served
// cells over 2 shards, and three cheap registry experiments.

func smallGrid(t *testing.T, seed uint64) *grid {
	t.Helper()
	g, err := newGrid(seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func smallServed(t *testing.T, seed uint64) *served {
	t.Helper()
	s, err := newServed(seed, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func checkedSection(t *testing.T, w workload) section {
	t.Helper()
	s, err := w.section(context.Background(), &env{dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if s.failed != 0 {
		t.Fatalf("clean section counted %d failed cells: %v", s.failed, s.notes)
	}
	return s
}

func TestCorruptedResultCountsAsFailed(t *testing.T) {
	g := smallGrid(t, 3)
	s := checkedSection(t, g)
	if n, notes, d := checkResult(g.lastBytes, g.in); n != 0 || d != s.digest {
		t.Fatalf("intact result: %d failed (%v), digest %s vs %s", n, notes, d, s.digest)
	}
	flipped := bytes.Clone(g.lastBytes)
	flipped[len(flipped)/2] ^= 0x40
	if n, _, _ := checkResult(flipped, g.in); n != len(g.in.cells) {
		t.Errorf("flipped byte: %d failed cells, want all %d", n, len(g.in.cells))
	}
	if n, _, _ := checkResult(g.lastBytes[:len(g.lastBytes)-10], g.in); n != len(g.in.cells) {
		t.Errorf("truncated result: %d failed cells, want all %d", n, len(g.in.cells))
	}
	pinned := g.in
	pinned.pin = digestOf([]byte("another result"))
	if n, _, _ := checkResult(g.lastBytes, pinned); n != len(g.in.cells) {
		t.Errorf("digest differing from the pin: %d failed cells, want all %d", n, len(g.in.cells))
	}
}

func TestWorkloadsStayWithinWorkerBound(t *testing.T) {
	if s := checkedSection(t, smallGrid(t, 1)); s.peak < 1 || s.peak > workers {
		t.Errorf("campaign-grid ran %d simulations at once, bound %d", s.peak, workers)
	}
	s := checkedSection(t, smallServed(t, 1))
	if s.peak < 1 || s.peak > workers {
		t.Errorf("served-sweep ran %d simulations at once, bound %d", s.peak, workers)
	}
	if s.http < 1 || s.http > workers {
		t.Errorf("served-sweep had %d coordinator requests in flight at once, bound %d", s.http, workers)
	}

	// The paper experiments run on the calling goroutine; sensitivity fans
	// out to its own pool of RunConfig.Workers. Sample the goroutine count.
	var peak atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
				if n := int64(runtime.NumGoroutine()); n > peak.Load() {
					peak.Store(n)
				}
			}
		}
	}()
	base := int64(runtime.NumGoroutine())
	checkedSection(t, newPaper(1, []string{"switch", "detection", "sensitivity"}))
	close(stop)
	wg.Wait()
	if extra := peak.Load() - base; extra > workers {
		t.Errorf("paper-quick peaked at %d extra goroutines, bound %d", extra, workers)
	}
}

func TestSeedChangesInputsNotMetricNames(t *testing.T) {
	if bytes.Equal(gridCampaign(1, 1), gridCampaign(2, 1)) || bytes.Equal(sweepCampaign(1, 4), sweepCampaign(2, 4)) {
		t.Fatal("campaign inputs do not depend on the seed")
	}
	g1, g2 := smallGrid(t, 1), smallGrid(t, 2)
	if slices.Equal(g1.in.distinctSeeds(), g2.in.distinctSeeds()) {
		t.Error("grid cells do not depend on the seed")
	}
	_, rc1, _, _ := newPaper(1, nil).prepare()
	_, rc2, _, _ := newPaper(2, nil).prepare()
	if rc1.Seed == rc2.Seed {
		t.Error("paper run config does not depend on the seed")
	}

	want := func(defs []def) []string {
		var names []string
		for _, d := range defs {
			names = append(names, d.name)
		}
		slices.Sort(names)
		return names
	}
	for _, seed := range []uint64{1, 2} {
		e := &env{dir: t.TempDir()}
		res, err := measure(context.Background(), smallServed(t, seed), e, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := names(res.Metrics); !slices.Equal(got, want(endToEndDefs)) {
			t.Errorf("seed %d untraced metrics %v, want %v", seed, got, want(endToEndDefs))
		}
		res, err = measureTraced(context.Background(), new(bytes.Buffer), gridW, smallGrid(t, seed), e, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if got := names(res.Metrics); !slices.Equal(got, want(layerDefs)) {
			t.Errorf("seed %d traced metrics %v, want %v", seed, got, want(layerDefs))
		}
		if !res.Correct {
			t.Errorf("seed %d traced run not correct", seed)
		}
	}
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json and the
// metric tables in step.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range bj.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !slices.Equal(workloads, allW) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", workloads, allW)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, defs []def) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code declares %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, code declares %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndDefs)
	check("per_layer", bj.PerLayer, layerDefs)
}

func TestLanedTraceValidates(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.add("p", "client", "outer", "", at(0), at(10))
	tr.add("p", "client", "inner", "", at(2), at(4))
	tr.add("p", "client", "overlapping", "", at(8), at(12)) // concurrent call
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, tr.spans); err != nil {
		t.Fatal(err)
	}
	if _, err := profile.ValidateChromeTrace(&buf); err == nil {
		t.Fatal("unlaned overlapping spans validated")
	}
	path := t.TempDir() + "/trace.json"
	if _, err := tr.writeChrome(path); err != nil {
		t.Fatalf("laned trace: %v", err)
	}
	var out bytes.Buffer
	tr.selfTimes(&out)
	if !bytes.Contains(out.Bytes(), []byte("outer")) {
		t.Errorf("self-time table lacks the outer span:\n%s", out.String())
	}
}

func names(m metrics) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}
