package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// measureTraced is the per-layer run. After one warm-up section it
// alternates untraced and traced sections, so that both see a warm
// process, then runs the layer probes, writes and validates the Chrome
// trace, prints the self-time table and reports every per-layer metric.
func measureTraced(ctx context.Context, stdout io.Writer, name string, w workload, e *env, outDir string) (output, error) {
	reps := 2
	var plain, traced []section
	if _, ok := w.(*paper); ok {
		reps = 1 // one pass is already as long as a run: no warm-up either
	} else {
		s, err := runSection(ctx, w, e)
		if err != nil {
			return output{}, err
		}
		plain = append(plain, s) // checked, not timed
	}
	tr := newTracer()
	for i := 0; i < reps; i++ {
		e.tr = nil
		s, err := runSection(ctx, w, e)
		if err != nil {
			return output{}, err
		}
		plain = append(plain, s)
		e.tr = tr
		if s, err = runSection(ctx, w, e); err != nil {
			return output{}, err
		}
		traced = append(traced, s)
	}

	lm := metrics{}
	if err := w.layers(ctx, e, traced, lm); err != nil {
		return output{}, err
	}
	lm.set("bench.trace_overhead_ratio", ratio(medianWall(traced), medianWall(plain[len(plain)-reps:])))
	if err := measuredAll(name, lm); err != nil {
		return output{}, err
	}
	m := zeroLayers()
	for k, v := range lm {
		m[k] = v
	}

	path := filepath.Join(outDir, "trace-"+name+".json")
	n, err := tr.writeChrome(path)
	if err != nil {
		return output{}, err
	}
	fmt.Fprintf(os.Stderr, "satbench: chrome trace %s: %d events, valid\n", path, n)
	tr.selfTimes(stdout)
	return summarize(append(plain, traced...), m), nil
}

func medianWall(secs []section) float64 {
	var xs []float64
	for _, s := range secs {
		xs = append(xs, s.wall.Seconds())
	}
	return median(xs)
}

// idleRatio is 1 − Σ cell wall time ÷ (workers × wall time) over sections.
func idleRatio(secs []section) float64 {
	var busy, wall time.Duration
	for _, s := range secs {
		busy += s.busy
		wall += s.wall
	}
	return 1 - ratio(float64(busy), float64(workers)*float64(wall))
}

// measuredAll checks that the workload measured every per-layer metric
// declared for it, rather than leaving the not-exercised 0 in place.
func measuredAll(name string, lm metrics) error {
	for _, d := range layerDefs {
		if !slices.Contains(d.on, name) {
			continue
		}
		if _, ok := lm[d.name]; !ok {
			return fmt.Errorf("%s did not measure per-layer metric %s", name, d.name)
		}
	}
	return nil
}
