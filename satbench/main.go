// Command satbench is the repository benchmark: it drives the three
// end-to-end entry points of the SATIN reproduction (the paper tables, a
// local campaign and a served campaign) through the module's public
// functions, checks their outputs, and prints one JSON result line.
//
//	satbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of untraced runs. With
// --trace 1 it alternates untraced sections with sections that record spans
// around every layer call, probes the single layers, writes the spans as a
// Chrome trace, prints a per-layer self-time table, and reports the
// per-layer metrics. Metric names, units and the layer links live in
// metrics.go; README.md explains the workloads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workers is the simulation concurrency of every workload: the reference
// box has two cores, and each workload is one closed-loop client driving at
// most this many simulation goroutines and HTTP connections.
const workers = 2

// defaultSeed is the seed whose outputs are pinned byte for byte (check.go).
const defaultSeed = 1

// workload is one benchmark input set. section runs one timed unit of work;
// layers runs the traced-only layer probes after the traced sections and
// fills the per-layer metrics of the layers the workload exercises.
type workload interface {
	section(ctx context.Context, env *env) (section, error)
	layers(ctx context.Context, env *env, traced []section, m metrics) error
}

// env is what a section needs from the run loop: a scratch directory inside
// the checkout, the tracer (nil when untraced) and a section counter for
// unique file names.
type env struct {
	dir string
	tr  *tracer
	seq int
}

func (e *env) next(prefix string) string {
	e.seq++
	return filepath.Join(e.dir, fmt.Sprintf("%s-%d", prefix, e.seq))
}

// section is one timed unit of work and what its output check found.
type section struct {
	setup  time.Duration // section start to first cell start
	wall   time.Duration // first cell start to final result in hand
	alloc  uint64        // TotalAlloc delta over the whole section, bytes
	cells  int           // cells (or experiments) attempted
	failed int           // cells that errored or failed the output check
	cellMs []float64     // per-cell host ms
	busy   time.Duration // summed cell wall time, for idle ratios
	forked int           // cells run inside a checkpoint-fork group
	peak   int           // most simulations running at once
	http   int           // most coordinator requests in flight at once
	digest string        // SHA-256 of the checked output
	notes  []string      // why cells were counted failed
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case paperW:
		return newPaper(seed, nil), nil
	case gridW:
		return newGrid(seed, gridSeeds)
	case servedW:
		return newServed(seed, sweepCells, sweepShards)
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-quick, campaign-grid or served-sweep)", name)
}

// output is the benchmark's last stdout line.
type output struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "satbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("satbench", flag.ContinueOnError)
	name := fs.String("workload", "", "paper-quick, campaign-grid or served-sweep")
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 30, "measurement length of one run")
	traced := fs.Int("trace", 0, "1 = traced per-layer run")
	out := fs.String("out", ".bench_build/satbench", "directory for scratch files and the Chrome trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{dir: dir}
	ctx := context.Background()
	budget := time.Duration(*seconds * float64(time.Second))

	var res output
	if *traced == 0 {
		res, err = measure(ctx, w, e, budget)
	} else {
		res, err = measureTraced(ctx, stdout, *name, w, e, *out)
	}
	if err != nil {
		return err
	}
	printTable(stdout, *name, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// runSection runs one section from a collected heap, so that no section
// pays for the garbage of the one before it; without it, the collector's
// carried-over work made set-up times swing by a third between runs.
func runSection(ctx context.Context, w workload, e *env) (section, error) {
	runtime.GC()
	return w.section(ctx, e)
}

// runSections repeats the workload's section while the next one is
// predicted to fit the budget; at least one always runs.
func runSections(ctx context.Context, w workload, e *env, budget time.Duration) ([]section, error) {
	var secs []section
	start := time.Now()
	for {
		t := time.Now()
		s, err := runSection(ctx, w, e)
		if err != nil {
			return nil, err
		}
		secs = append(secs, s)
		fmt.Fprintf(os.Stderr, "satbench: section %d: setup %v, wall %v, %d cells\n", len(secs), s.setup, s.wall, s.cells)
		if time.Since(start)+time.Since(t) > budget {
			return secs, nil
		}
	}
}

// measure is the untraced run: end-to-end metrics only.
func measure(ctx context.Context, w workload, e *env, budget time.Duration) (output, error) {
	secs, err := runSections(ctx, w, e, budget)
	if err != nil {
		return output{}, err
	}
	m := endToEnd(secs)
	if p, ok := w.(*paper); ok {
		// A paper run is one pass, one set-up: use the per-experiment samples.
		m.set("setup_s", median(p.setups))
	}
	return summarize(secs, m), nil
}

// endToEnd reduces a run's sections to the end-to-end metrics: medians
// across sections, percentiles across every cell of the run.
func endToEnd(secs []section) metrics {
	var setup, wall, rate, alloc, cells []float64
	for _, s := range secs {
		setup = append(setup, s.setup.Seconds())
		wall = append(wall, s.wall.Seconds())
		rate = append(rate, float64(s.cells)/s.wall.Seconds())
		alloc = append(alloc, float64(s.alloc)/(1<<20))
		cells = append(cells, s.cellMs...)
	}
	m := metrics{}
	m.set("setup_s", median(setup))
	m.set("wall_s", median(wall))
	m.set("cells_per_s", median(rate))
	m.set("cell_ms_p50", quantile(cells, 0.5))
	m.set("cell_ms_p90", quantile(cells, 0.9))
	m.set("alloc_mb", median(alloc))
	m.set("max_rss_mb", maxRSSMB())
	return m
}

func summarize(secs []section, m metrics) output {
	res := output{Metrics: m}
	digests := map[string]bool{}
	for _, s := range secs {
		res.Attempted += s.cells
		res.Failed += s.failed
		digests[s.digest] = true
		for _, n := range s.notes {
			fmt.Fprintln(os.Stderr, "satbench: check:", n)
		}
	}
	if len(digests) > 1 {
		// Every section runs the same inputs: differing outputs mean the
		// simulator is not deterministic, and no section can be trusted.
		fmt.Fprintln(os.Stderr, "satbench: check: sections disagree on the output digest")
		res.Failed = res.Attempted
	}
	for d := range digests {
		fmt.Fprintln(os.Stderr, "satbench: output sha256", d)
	}
	res.Correct = res.Failed == 0
	return res
}

func printTable(w io.Writer, name string, res output) {
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d, failed_ratio %.4g\n",
		name, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.6g %-6s %s\n", n, v.Value, v.Unit, metricByName[n].moves)
	}
}
