package experiment

import (
	"context"
	"testing"
	"time"

	"satin/internal/runner"
)

// registrySweep runs the named registry experiment's multi-seed form — the
// path benchtables -seeds takes.
func registrySweep(t *testing.T, name string, seeds, workers int) *runner.Sweep {
	t.Helper()
	def, ok := Lookup(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	sw, err := Sweep(context.Background(), def, 1, Options{Seeds: seeds, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Failures) != 0 {
		t.Fatalf("%s sweep failures: %+v", name, sw.Failures)
	}
	return sw
}

// TestDeterminismSweepWorkerInvariance is the determinism regression: a
// multi-seed sweep must render byte-identical aggregated output with
// workers=1 and workers=8. This is what lets EXPERIMENTS.md quote sweep
// numbers without pinning a worker count.
func TestDeterminismSweepWorkerInvariance(t *testing.T) {
	for _, name := range []string{"detection", "evasion", "race"} {
		t.Run(name, func(t *testing.T) {
			serial := registrySweep(t, name, 2, 1)
			parallel := registrySweep(t, name, 2, 8)
			if s, p := serial.Render(), parallel.Render(); s != p {
				t.Errorf("workers=1 and workers=8 disagree:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", s, p)
			}
		})
	}
}

// TestDeterminismSweepMatchesSerialDriver pins the sweep's per-seed numbers
// to the single-seed drivers: seed 1 inside a sweep must reproduce exactly
// what RunDetection/RunEvasion/RunRace report when called directly, so the
// runner cannot silently shift EXPERIMENTS.md's numbers.
func TestDeterminismSweepMatchesSerialDriver(t *testing.T) {
	direct, err := RunDetection(DefaultDetectionConfig())
	if err != nil {
		t.Fatal(err)
	}
	evDirect, err := RunEvasion(1, 10, 8*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	raceDirect, err := RunRace(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		want runner.Metrics
	}{
		{"detection", DetectionMetrics(direct)},
		{"evasion", EvasionMetrics(evDirect)},
		{"race", RaceMetrics(raceDirect)},
	} {
		t.Run(c.name, func(t *testing.T) {
			sw := registrySweep(t, c.name, 2, 2)
			for _, s := range c.want {
				if got := sw.Samples(s.Name); len(got) != 2 || got[0] != s.Value {
					t.Errorf("metric %q: sweep = %v, serial seed 1 = %v", s.Name, got, s.Value)
				}
			}
		})
	}
}

// TestDetectionSweepRates sanity-checks the aggregate the paper's claim
// rests on: across seeds, the detection rate stays 1.0 (every pass over the
// attacked area raises the alarm) with zero prober false reports.
func TestDetectionSweepRates(t *testing.T) {
	sw := registrySweep(t, "detection", 3, 0)
	if d := sw.Dist("detection rate"); d.Min != 1 || d.Max != 1 {
		t.Errorf("detection rate over seeds = %+v, want constant 1.0", d)
	}
	if d := sw.Dist("prober false negatives"); d.Max != 0 {
		t.Errorf("false negatives over seeds = %+v, want constant 0", d)
	}
	if d := sw.Dist("prober false positives"); d.Max != 0 {
		t.Errorf("false positives over seeds = %+v, want constant 0", d)
	}
}

// TestRaceSweepTracksAnalyticBound: the empirical unprotected fraction
// should straddle the analytic ≈90% bound across seeds, not just at seed 1.
func TestRaceSweepTracksAnalyticBound(t *testing.T) {
	if testing.Short() {
		t.Skip("race sweep is ~1s per seed")
	}
	sw := registrySweep(t, "race", 2, 0)
	d := sw.Dist("unprotected (empirical)")
	if d.Min < 0.75 || d.Max > 1 {
		t.Errorf("unprotected fraction over seeds = %+v, want within [0.75, 1]", d)
	}
	if a := sw.Dist("unprotected (analytic)"); a.Min != a.Max {
		t.Errorf("analytic bound varies across seeds: %+v", a)
	}
}

// TestSweepNeedsTrial: an experiment without a per-seed form has no
// multi-seed form either.
func TestSweepNeedsTrial(t *testing.T) {
	def, ok := Lookup("table1")
	if !ok {
		t.Fatal("table1 not registered")
	}
	if _, err := Sweep(context.Background(), def, 1, Options{Seeds: 2}); err == nil {
		t.Error("Sweep of an experiment without a Trial succeeded")
	}
}
