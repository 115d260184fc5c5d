package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"satin/internal/campaign"
	"satin/internal/obs"
	"satin/internal/telemetry"
	"satin/internal/trace"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Name identifies the worker in leases and status output.
	Name string
	// Dir holds the per-shard result files. Keyed by job and shard, so a
	// worker that re-leases a shard it half-finished resumes its own
	// checkpoint instead of starting over.
	Dir string
	// Trial executes scenario cells (satin.RunSpecTrial in the binaries).
	Trial campaign.SpecTrialFunc
	// GroupKey and GroupTrial, when both non-nil, run matching cells within
	// the shard as one unit (campaign.RunOptions' generic group hook; no
	// binary sets them, and they stay because the satbench harness does).
	GroupKey   campaign.GroupKeyFunc
	GroupTrial campaign.GroupTrialFunc
	// Workers bounds the in-process pool per shard (0 = GOMAXPROCS).
	Workers int
	// Poll is the idle wait between lease attempts while jobs are still in
	// flight elsewhere (default 150ms).
	Poll time.Duration
	// Logger, when non-nil, receives structured lease/upload transitions
	// with worker/job/shard/token fields. Nil means silent.
	Logger *slog.Logger
}

// RunWorker is the pull loop both `satin-serve -worker` and `benchtables
// -campaign-worker` run: lease a shard, execute it with campaign.Run
// restricted to the shard's cells (posting one progress report per
// completed cell — which is also the lease renewal), upload the shard's
// result file, repeat. It returns nil when the server reports no open work
// left, and keeps going across lost leases (another worker inherited the
// shard — the deterministic cells make any overlap merge-compatible).
func RunWorker(ctx context.Context, client *Client, opt WorkerOptions) error {
	if opt.Poll <= 0 {
		opt.Poll = 150 * time.Millisecond
	}
	if opt.Dir == "" {
		return fmt.Errorf("serve: worker needs a scratch dir")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return fmt.Errorf("serve: worker dir: %w", err)
	}
	if opt.Logger == nil {
		opt.Logger = telemetry.NopLogger()
	}
	log := opt.Logger.With("worker", opt.Name)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, open, err := client.Lease(ctx, opt.Name)
		if err != nil {
			return fmt.Errorf("serve: leasing: %w", err)
		}
		if lease == nil {
			if !open {
				log.Info("no work left, exiting")
				return nil
			}
			select {
			case <-time.After(opt.Poll):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		log.Info("leased shard", "job", lease.Job, "shard", lease.Shard,
			"token", lease.Token, "cells", len(lease.Cells))
		if err := runLease(ctx, client, opt, lease); err != nil {
			if errors.Is(err, ErrLeaseLost) {
				// The server reassigned the shard (our lease expired, or a
				// peer finished it). Drop it and pull the next one.
				log.Warn("lost lease", "job", lease.Job, "shard", lease.Shard,
					"token", lease.Token)
				continue
			}
			return err
		}
		log.Info("uploaded shard", "job", lease.Job, "shard", lease.Shard,
			"token", lease.Token)
	}
}

// runLease executes one leased shard end to end.
func runLease(ctx context.Context, client *Client, opt WorkerOptions, lease *Lease) error {
	c, err := campaign.Parse(lease.Campaign)
	if err != nil {
		return fmt.Errorf("serve: leased campaign: %w", err)
	}

	// A lost lease cancels the shard run: there is no point finishing cells
	// the server will take from someone else, and the checkpoint keeps what
	// was done in case the shard comes back to us.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var lost bool
	// Wall-clock cell stats, stashed by the CellDone hook and attached to
	// the progress report the bus subscriber sends anyway. CellDone for a
	// cell runs before its bus publish (same goroutine), so the lookup
	// always hits.
	type cellStat struct {
		wall   time.Duration
		forked bool
	}
	var statMu sync.Mutex
	stats := map[int]cellStat{}
	bus := obs.NewBus()
	bus.Subscribe(func(e trace.Event) {
		if e.Kind != trace.KindCell || lost {
			return
		}
		statMu.Lock()
		stat := stats[e.Area]
		statMu.Unlock()
		rep := ProgressReport{
			Token:  lease.Token,
			Index:  e.Area,
			Detail: e.Detail,
			CellNs: stat.wall.Nanoseconds(),
			Forked: stat.forked,
		}
		if err := client.Progress(ctx, lease.Job, lease.Shard, rep); err != nil {
			if errors.Is(err, ErrLeaseLost) {
				lost = true
				cancel()
			}
			// Other report failures are tolerable: progress is advisory and
			// the lease has TTLs worth of slack; the upload is the real
			// commit point.
		}
	})

	path := filepath.Join(opt.Dir, fmt.Sprintf("%s-shard-%d.result", lease.Job, lease.Shard))
	_, err = campaign.Run(runCtx, c, path, campaign.RunOptions{
		Workers:    opt.Workers,
		Only:       append([]int(nil), lease.Cells...),
		Bus:        bus,
		SpecTrial:  opt.Trial,
		GroupKey:   opt.GroupKey,
		GroupTrial: opt.GroupTrial,
		CellDone: func(index int, wall time.Duration, forked bool) {
			statMu.Lock()
			stats[index] = cellStat{wall: wall, forked: forked}
			statMu.Unlock()
		},
	})
	if lost {
		return fmt.Errorf("%w: while running job %s shard %d", ErrLeaseLost, lease.Job, lease.Shard)
	}
	if err != nil {
		return fmt.Errorf("serve: running shard: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("serve: reading shard result: %w", err)
	}
	return client.Upload(ctx, lease.Job, lease.Shard, lease.Token, data)
}
