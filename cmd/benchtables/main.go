// Command benchtables regenerates every table and figure of the paper's
// evaluation and prints them in the paper's layout, with paper-reported
// values alongside where applicable. It is the source of EXPERIMENTS.md.
//
// Usage:
//
//	benchtables            # everything
//	benchtables -only table1,table2,fig3,fig4,switch,recover,singlecore,race,
//	            evasion,detection,fig7,ablation,flood,syncbypass,userprober,
//	            kprober1,sensitivity
//	benchtables -detection # shorthand for -only detection (any experiment name)
//	benchtables -seed 7    # different deterministic universe
//	benchtables -quick     # reduced Fig 7 window / sensitivity grid (smoke runs)
//
// Every experiment is dispatched through experiment.Registry() — the same
// name-keyed table the campaign cell executor uses — so `-only <name>`, the
// shorthand flags, and campaign cells all agree on what an experiment name
// means.
//
// The sensitivity experiment is a sweep of sweeps: each fault-injection
// magnitude reruns the detection experiment across -seeds seeds (default 8)
// on the -workers pool, charting detection probability against perturbation
// magnitude (see EXPERIMENTS.md "Sensitivity & fault injection").
//
// Multi-seed sweeps: with -seeds N (N > 1) the sweep-capable experiments
// (detection, evasion, race) rerun across seeds seed..seed+N-1 on a worker
// pool (-workers, default GOMAXPROCS) and report per-metric distributions
// instead of one universe's numbers. Aggregation is in seed order, so the
// output is byte-identical for any -workers value.
//
//	benchtables -detection -seeds 32 -workers 8
//
// Sweep observability: -progress streams per-trial completions to stderr
// (completion order, wall clock — diagnostic only), and -metrics-out FILE
// exports every selected sweep's per-seed samples as deterministic
// `experiment,metric,seed,value` CSV rows.
//
//	benchtables -detection -seeds 32 -progress -metrics-out detection.csv
//
// Spec sweeps: -spec FILE runs a scenario spec file (see EXPERIMENTS.md
// "Spec files") as its own sweep instead of the built-in experiments: the
// template is instantiated at seeds -seed..-seed+N-1 and each instantiation
// runs through the same trial the satin-sim -spec path uses.
//
//	benchtables -spec testdata/specs/clean.json -seeds 8 -metrics-out clean.csv
//
// Campaigns: -campaign FILE expands a campaign spec (see EXPERIMENTS.md
// "Campaigns") into its cell grid and executes it with checkpointed resume:
//
//	benchtables -campaign grid.json -campaign-out grid.result -progress
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"satin"
	"satin/internal/experiment"
	"satin/internal/runner"
)

func main() {
	if err := runWith(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
		os.Exit(1)
	}
}

// run keeps the historical two-argument form (used throughout the tests);
// progress output is discarded.
func run(args []string, out io.Writer) error {
	return runWith(args, out, io.Discard)
}

func runWith(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	fs.SetOutput(out)
	seed := fs.Uint64("seed", 1, "root seed for all deterministic streams")
	only := fs.String("only", "", "comma-separated experiment list (default: all)")
	quick := fs.Bool("quick", false, "shrink the Fig 7 measurement window")
	seeds := fs.Int("seeds", 1, "number of independent seeds; > 1 switches detection/evasion/race to sweep mode")
	workers := fs.Int("workers", 0, "worker goroutines for multi-seed sweeps (0 = GOMAXPROCS)")
	progress := fs.Bool("progress", false, "stream per-trial sweep progress to stderr")
	metricsOut := fs.String("metrics-out", "", "export every sweep's per-seed samples to this CSV file (needs -seeds > 1)")
	profileOut := fs.String("profile-out", "", "run the profiled detection sweep and write the merged per-core span attribution table to this file")
	specFile := fs.String("spec", "", "sweep this scenario spec file across -seeds seeds instead of a built-in experiment")
	campaignFile := fs.String("campaign", "", "execute this campaign spec file (grid × faults × seeds) with checkpointed resume")
	campaignOut := fs.String("campaign-out", "", "campaign result/checkpoint file (default: <campaign>.result)")
	campaignMaxCells := fs.Int("campaign-max-cells", 0, "stop the campaign after N newly completed cells (checkpointed; 0 = run to completion)")
	campaignServe := fs.String("campaign-serve", "", "submit -campaign to this satin-serve URL for sharded cross-process execution and render the merged result (byte-identical to a local run)")
	campaignShards := fs.Int("campaign-shards", 2, "with -campaign-serve: number of shards to partition the campaign into")
	campaignWorker := fs.String("campaign-worker", "", "run a sharded-campaign worker loop against this satin-serve URL until no work remains")

	defs := experiment.Registry()
	// Every experiment name is also a boolean shorthand flag:
	// `-detection` == `-only detection`.
	shorthand := map[string]*bool{}
	for _, def := range defs {
		shorthand[def.Name] = fs.Bool(def.Name, false, fmt.Sprintf("run the %s experiment (shorthand for -only %s)", def.Name, def.Name))
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds %d: need at least 1", *seeds)
	}
	if *metricsOut != "" && *seeds < 2 {
		return fmt.Errorf("-metrics-out exports per-seed sweep samples; it needs -seeds N > 1")
	}
	if *campaignWorker != "" {
		return runCampaignWorker(errOut, *campaignWorker, *workers)
	}
	if *campaignFile != "" {
		if *campaignServe != "" {
			if *campaignMaxCells != 0 {
				return fmt.Errorf("-campaign-max-cells is a local-run control; it does not combine with -campaign-serve")
			}
			return runCampaignServe(out, errOut, *campaignFile, *campaignOut, *campaignServe, *campaignShards, *progress)
		}
		return runCampaignFile(out, errOut, *campaignFile, *campaignOut, *workers, *campaignMaxCells, *progress)
	}
	if *campaignOut != "" || *campaignMaxCells != 0 || *campaignServe != "" {
		return fmt.Errorf("-campaign-out/-campaign-max-cells/-campaign-serve configure a campaign run; they need -campaign FILE")
	}

	want := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if _, ok := experiment.Lookup(name); !ok {
				return fmt.Errorf("unknown experiment %q (known: %s)", name, strings.Join(experiment.Names(), ", "))
			}
			want[name] = true
		}
	}
	for name, set := range shorthand {
		if *set {
			want[name] = true
		}
	}
	// With -profile-out or -spec and no experiment named, that sweep IS the
	// run: don't drag the full suite along.
	selected := func(name string) bool {
		if len(want) == 0 {
			return *profileOut == "" && *specFile == ""
		}
		return want[name]
	}

	ran := 0
	var sweeps []*runner.Sweep
	for _, def := range defs {
		if !selected(def.Name) {
			continue
		}
		if *seeds > 1 && def.Sweepable() {
			var observer runner.Progress
			if *progress {
				name, base := def.Name, *seed
				observer = func(done, total, index int, elapsed time.Duration, trialErr error) {
					status := "ok"
					if trialErr != nil {
						status = "FAILED: " + trialErr.Error()
					}
					fmt.Fprintf(errOut, "%s: %d/%d seed %d in %v %s\n",
						name, done, total, base+uint64(index), elapsed.Truncate(time.Millisecond), status)
				}
			}
			sw, title, err := def.Sweep(context.Background(), *seed, experiment.Options{
				Seeds: *seeds, Workers: *workers, Progress: observer,
			})
			if err != nil {
				return fmt.Errorf("%s: %w", def.Name, err)
			}
			section(out, title)
			fmt.Fprint(out, sw.Render())
			sweeps = append(sweeps, sw)
		} else if err := def.Run(out, experiment.RunConfig{
			Seed: *seed, Quick: *quick, Seeds: *seeds, Workers: *workers,
		}); err != nil {
			return fmt.Errorf("%s: %w", def.Name, err)
		}
		ran++
	}
	if *specFile != "" {
		sw, err := runSpecFileSweep(*specFile, *seed, *seeds, *workers, *progress, errOut)
		if err != nil {
			return err
		}
		section(out, fmt.Sprintf("Spec sweep — %s (%s, %d seed(s))", sw.Name, *specFile, *seeds))
		fmt.Fprint(out, sw.Render())
		sweeps = append(sweeps, sw)
		ran++
	}
	if *profileOut != "" {
		if err := writeProfileSweep(out, *profileOut, *seed, *seeds, *workers, *quick); err != nil {
			return err
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched %q", *only)
	}
	if *metricsOut != "" {
		if len(sweeps) == 0 {
			return fmt.Errorf("-metrics-out: no sweep-capable experiment selected")
		}
		if err := writeSweepCSV(*metricsOut, sweeps); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nmetrics: %d sweeps exported to %s\n", len(sweeps), *metricsOut)
	}
	return nil
}

// writeSweepCSV concatenates the sweeps' per-seed samples into one CSV file
// with a single header row.
func writeSweepCSV(path string, sweeps []*runner.Sweep) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating metrics file: %w", err)
	}
	defer f.Close()
	for i, sw := range sweeps {
		var buf bytes.Buffer
		if err := sw.WriteCSV(&buf); err != nil {
			return err
		}
		data := buf.Bytes()
		if i > 0 {
			// Drop the repeated header line.
			if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
				data = data[nl+1:]
			}
		}
		if _, err := f.Write(data); err != nil {
			return fmt.Errorf("writing metrics file: %w", err)
		}
	}
	return nil
}

// runSpecFileSweep sweeps the spec template in path across seeds
// seed..seed+seeds-1 with the facade's canonical trial — the same builder
// and metric reduction satin-sim -spec uses, so per-seed samples line up
// with single runs of the instantiated specs.
func runSpecFileSweep(path string, seed uint64, seeds, workers int, progress bool, errOut io.Writer) (*runner.Sweep, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading spec: %w", err)
	}
	tmpl, err := satin.ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("spec %s: %w", path, err)
	}
	var observer runner.Progress
	if progress {
		observer = func(done, total, index int, elapsed time.Duration, trialErr error) {
			status := "ok"
			if trialErr != nil {
				status = "FAILED: " + trialErr.Error()
			}
			fmt.Fprintf(errOut, "spec: %d/%d seed %d in %v %s\n",
				done, total, seed+uint64(index), elapsed.Truncate(time.Millisecond), status)
		}
	}
	sw, err := experiment.RunSpecSweep(context.Background(), tmpl, seed, seeds, workers, observer, satin.RunSpecTrial)
	if err != nil {
		return nil, fmt.Errorf("spec %s: %w", path, err)
	}
	return sw, nil
}

// writeProfileSweep runs the §VI-B1 detection experiment with the span
// profiler attached for every seed, renders the per-seed metric
// distributions, and writes the seed-merged per-core attribution table to
// path. The merge is in seed order — byte-identical for any -workers value.
func writeProfileSweep(out io.Writer, path string, seed uint64, seeds, workers int, quick bool) error {
	cfg := experiment.DefaultDetectionConfig()
	cfg.Seed = seed
	if quick {
		cfg.FullScans = 2
	}
	sw, merged, err := experiment.RunDetectionProfileSweep(context.Background(), cfg, experiment.Options{
		Seeds: seeds, Workers: workers,
	})
	if err != nil {
		return err
	}
	section(out, fmt.Sprintf("Profiled detection sweep — span attribution merged over %d seed(s)", seeds))
	fmt.Fprint(out, sw.Render())
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating profile file: %w", err)
	}
	defer f.Close()
	if _, err := io.WriteString(f, merged.Render()); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nprofile: merged attribution for %d seed(s) written to %s\n", seeds, path)
	return nil
}

func section(out io.Writer, title string) {
	fmt.Fprintf(out, "\n=== %s ===\n", title)
}
