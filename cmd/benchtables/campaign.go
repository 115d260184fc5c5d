package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"sync"

	"satin"
	"satin/internal/campaign"
	"satin/internal/obs"
	"satin/internal/serve"
	"satin/internal/telemetry"
	"satin/internal/trace"
)

// runCampaignFile executes (or resumes) the campaign spec at path against
// its result file: expand the cell grid, run the not-yet-checkpointed cells
// on the worker pool, and render the merged per-combination sweeps. With
// maxCells > 0 the run stops early after that many new cells — the
// deterministic stand-in for a kill, used by `make campaign-smoke` to
// exercise resume.
func runCampaignFile(out, errOut io.Writer, path, outPath string, workers, maxCells int, progress bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading campaign: %w", err)
	}
	c, err := campaign.Parse(data)
	if err != nil {
		return fmt.Errorf("campaign %s: %w", path, err)
	}
	if outPath == "" {
		outPath = campaign.DefaultResultPath(path)
	}

	opt := campaign.RunOptions{
		Workers:   workers,
		MaxCells:  maxCells,
		SpecTrial: satin.RunSpecTrial,
	}
	var timingMu sync.Mutex
	var cellTimes []telemetry.CellTiming
	if progress {
		// Progress rides the same obs bus the simulators publish on: the
		// executor emits one KindCell event per completion and this sink
		// renders it — so any other subscriber (a TUI, a log shipper) sees
		// the identical stream.
		bus := obs.NewBus()
		bus.Subscribe(func(e trace.Event) {
			if e.Kind == trace.KindCell {
				fmt.Fprintf(errOut, "campaign: cell %d %s\n", e.Area, e.Detail)
			}
		})
		opt.Bus = bus
		opt.Progress = func(done, total, index int, elapsed time.Duration, trialErr error) {
			fmt.Fprintf(errOut, "campaign: %d/%d in %v%s\n",
				done, total, elapsed.Truncate(time.Millisecond), rateETA(done, total, elapsed))
		}
		// Wall-clock per-cell timings feed the post-run straggler report
		// (Shard -1: a local run has no shards).
		opt.CellDone = func(index int, wall time.Duration, _ bool) {
			timingMu.Lock()
			cellTimes = append(cellTimes, telemetry.CellTiming{
				Index: index, Shard: -1,
				Ms: float64(wall) / float64(time.Millisecond),
			})
			timingMu.Unlock()
		}
	}

	res, err := campaign.Run(context.Background(), c, outPath, opt)
	if err != nil {
		return err
	}
	if progress {
		telemetry.BuildStragglerReport(cellTimes, nil, 5).Render(errOut, "campaign: ")
	}
	renderCampaign(out, c, res, outPath)
	return nil
}

// rateETA renders the throughput suffix for a progress line: completed
// cells per second and the ETA it implies for the remainder. Early samples
// (zero elapsed, zero done) render nothing rather than dividing by zero —
// wall-clock diagnostics, like the rest of progress.
func rateETA(done, total int, elapsed time.Duration) string {
	if done <= 0 || elapsed <= 0 {
		return ""
	}
	rate := float64(done) / elapsed.Seconds()
	if done >= total {
		return fmt.Sprintf(" (%.1f cells/s)", rate)
	}
	eta := time.Duration(float64(total-done) / rate * float64(time.Second))
	return fmt.Sprintf(" (%.1f cells/s, ETA %v)", rate, eta.Truncate(time.Millisecond))
}

// runCampaignServe is the sharded-execution client path: submit the
// campaign spec to a satin-serve coordinator, stream per-cell progress
// while external workers drain the shards, download the merged result —
// byte-identical to what runCampaignFile would have produced locally — and
// render the same tables from it.
func runCampaignServe(out, errOut io.Writer, path, outPath, serverURL string, shards int, progress bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading campaign: %w", err)
	}
	c, err := campaign.Parse(data)
	if err != nil {
		return fmt.Errorf("campaign %s: %w", path, err)
	}
	if outPath == "" {
		outPath = campaign.DefaultResultPath(path)
	}
	client := &serve.Client{BaseURL: serverURL}
	ctx := context.Background()
	st, err := client.Submit(ctx, data, shards)
	if err != nil {
		return err
	}
	fmt.Fprintf(errOut, "campaign: job %s (%d cells over %d shards) at %s\n",
		st.ID, st.Cells, len(st.Shards), serverURL)

	// The event stream doubles as the wait: it ends when the job finishes.
	start := time.Now()
	done := 0
	err = client.StreamEvents(ctx, st.ID, 0, func(e trace.Event) error {
		if e.Kind != trace.KindCell {
			return nil
		}
		done++
		if progress {
			elapsed := time.Since(start)
			fmt.Fprintf(errOut, "campaign: cell %d %s\n", e.Area, e.Detail)
			fmt.Fprintf(errOut, "campaign: %d/%d in %v%s\n",
				done, st.Cells, elapsed.Truncate(time.Millisecond), rateETA(done, st.Cells, elapsed))
		}
		return nil
	})
	if err != nil {
		return err
	}
	final, err := client.Status(ctx, st.ID)
	if err != nil {
		return err
	}
	if final.MergeError != "" {
		return fmt.Errorf("job %s merge failed: %s", final.ID, final.MergeError)
	}
	if progress {
		// The coordinator's wall-clock record: re-leases, idle time, and the
		// slowest cells/shard of the finished job.
		final.Stragglers.Render(errOut, "campaign: ")
	}
	merged, err := client.Result(ctx, final.ID)
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, merged, 0o644); err != nil {
		return fmt.Errorf("writing merged result: %w", err)
	}

	specBytes, results, finalized, err := campaign.ReadResults(outPath)
	if err != nil {
		return fmt.Errorf("merged result: %w", err)
	}
	canon, err := campaign.Parse(specBytes)
	if err != nil {
		return fmt.Errorf("merged result campaign: %w", err)
	}
	cells, err := campaign.Cells(canon)
	if err != nil {
		return err
	}
	renderCampaign(out, c, campaign.RunResult{
		Cells: cells, Results: results, Finalized: finalized,
	}, outPath)
	return nil
}

// runCampaignWorker runs the sharded-execution worker loop against a
// satin-serve coordinator, with the exact trial wiring the local -campaign
// path uses, until the server reports no open work.
func runCampaignWorker(errOut io.Writer, serverURL string, workers int) error {
	dir, err := os.MkdirTemp("", "benchtables-worker-*")
	if err != nil {
		return fmt.Errorf("worker scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)
	logger, err := telemetry.NewLogger(errOut, telemetry.LogText)
	if err != nil {
		return err
	}
	opt := serve.WorkerOptions{
		Name:    fmt.Sprintf("benchtables-%d", os.Getpid()),
		Dir:     dir,
		Trial:   satin.RunSpecTrial,
		Workers: workers,
		Logger:  logger,
	}
	return serve.RunWorker(context.Background(), &serve.Client{BaseURL: serverURL}, opt)
}

// renderCampaign prints the campaign summary and the per-combination sweep
// tables for every checkpointed cell.
func renderCampaign(out io.Writer, c campaign.Spec, res campaign.RunResult, outPath string) {
	name := c.Name
	if name == "" {
		name = "campaign"
	}
	section(out, fmt.Sprintf("Campaign %s — %d/%d cells (%s)", name, len(res.Results), len(res.Cells), outPath))
	for _, sw := range campaign.MergeSweeps(res.Cells, res.Results) {
		fmt.Fprintf(out, "\n-- %s --\n", sw.Name)
		fmt.Fprint(out, sw.Render())
	}
	if res.Finalized {
		fmt.Fprintf(out, "\ncampaign complete: %d cells finalized in %s\n", len(res.Cells), outPath)
	} else {
		fmt.Fprintf(out, "\ncampaign checkpointed: %d/%d cells complete; rerun the same command to resume\n",
			len(res.Results), len(res.Cells))
	}
}
