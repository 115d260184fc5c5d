package satin

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"testing"
	"time"

	"satin/internal/campaign"
	"satin/internal/serve"
)

// shardWorkerURLEnv carries the coordinator URL into re-exec'd worker
// processes; TestShardWorkerProcess is inert without it.
const shardWorkerURLEnv = "SATIN_SHARD_WORKER_URL"

// TestShardWorkerProcess is not a test of its own: it is the worker-process
// body BenchmarkShardedCampaign re-execs (the standard helper-process
// pattern — `os.Args[0] -test.run=^TestShardWorkerProcess$` with the URL
// in the environment gives each worker a real OS process without needing
// built binaries in the test environment).
func TestShardWorkerProcess(t *testing.T) {
	url := os.Getenv(shardWorkerURLEnv)
	if url == "" {
		t.Skipf("helper process body; spawned by BenchmarkShardedCampaign with %s set", shardWorkerURLEnv)
	}
	err := serve.RunWorker(context.Background(), &serve.Client{BaseURL: url}, serve.WorkerOptions{
		Name:    fmt.Sprintf("bench-%d", os.Getpid()),
		Dir:     t.TempDir(),
		Trial:   RunSpecTrial,
		Workers: 1,
		Poll:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
}

// benchShardedCampaign measures one full campaign drained by `procs` real
// worker OS processes through the satin-serve lease protocol: submit,
// spawn, wait, verify finalized. The campaign is 8 cells (4 seeds × 2
// fault plans over a 45s horizon, SATIN vs the fast evader), so a 4-shard
// plan gives each process two cells and the speedup ceiling is core-bound:
// ~procs× on a machine with that many free cores, ~1× on one core (the
// protocol adds only lease/upload overhead either way).
func benchShardedCampaign(b *testing.B, procs int) {
	tmpl := ScenarioSpec{
		Version: ScenarioSpecVersion,
		Name:    "sharded",
		Seed:    1,
		Defense: SpecDefense{Kind: "satin", SATIN: &SpecSATINConfig{Tgoal: SpecDuration(19 * time.Second)}},
		Evader:  SpecEvader{Kind: "fast"},
		Run:     SpecRun{For: SpecDuration(45 * time.Second)},
	}
	c := campaign.Spec{
		Version:  campaign.CurrentVersion,
		Name:     "sharded-bench",
		Scenario: &tmpl,
		Faults:   []string{"", "dvfs:at=35s,factor=0.8"},
		Seeds:    campaign.SeedRange{Base: 1, Count: 4},
	}
	data, err := campaign.Marshal(c)
	if err != nil {
		b.Fatal(err)
	}
	cells, err := campaign.Cells(c)
	if err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := serve.New(serve.Options{DataDir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		st, err := (&serve.Client{BaseURL: ts.URL}).Submit(context.Background(), data, procs)
		if err != nil {
			b.Fatal(err)
		}

		cmds := make([]*exec.Cmd, procs)
		for w := range cmds {
			cmd := exec.Command(os.Args[0], "-test.run=^TestShardWorkerProcess$", "-test.v")
			cmd.Env = append(os.Environ(), shardWorkerURLEnv+"="+ts.URL)
			if err := cmd.Start(); err != nil {
				b.Fatal(err)
			}
			cmds[w] = cmd
		}
		for _, cmd := range cmds {
			if err := cmd.Wait(); err != nil {
				b.Fatalf("worker process: %v", err)
			}
		}

		final, err := s.Status(st.ID)
		if err != nil {
			b.Fatal(err)
		}
		if !final.Finalized {
			b.Fatalf("job not finalized: %+v", final)
		}
		ts.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(len(cells))*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkShardedCampaignWorkers1 drains the campaign with one worker
// process — the cross-process baseline.
func BenchmarkShardedCampaignWorkers1(b *testing.B) { benchShardedCampaign(b, 1) }

// BenchmarkShardedCampaignWorkers4 drains it with four worker processes.
// The ratio to Workers1 is the machine's core headroom (≈4× with 4 free
// cores, ≈1× on 1).
func BenchmarkShardedCampaignWorkers4(b *testing.B) { benchShardedCampaign(b, 4) }
