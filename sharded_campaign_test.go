package satin

// Sharded execution against the committed corpus: planning the smoke
// campaign into shards, running each shard as its own session, and merging
// must land byte-for-byte on the same golden a single process produces.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"satin/internal/campaign"
	"satin/internal/serve"
	"satin/internal/shard"
)

// TestShardedMergeReproducesGolden: smoke campaign over 1..4 shards, each
// shard its own session, merged — always the committed golden bytes.
func TestShardedMergeReproducesGolden(t *testing.T) {
	c := smokeCampaign(t)
	canon, err := campaign.Canonicalize(c)
	if err != nil {
		t.Fatalf("Canonicalize: %v", err)
	}
	cells, err := campaign.Cells(canon)
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	golden := smokeGolden(t)
	for _, k := range []int{1, 2, 3, 4} {
		k := k
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			plan, err := shard.PlanCells(cells, k, nil)
			if err != nil {
				t.Fatalf("PlanCells: %v", err)
			}
			dir := t.TempDir()
			var paths []string
			for si, only := range plan.Shards {
				path := filepath.Join(dir, fmt.Sprintf("shard-%d.result", si))
				paths = append(paths, path)
				res, err := campaign.Run(context.Background(), c, path, campaign.RunOptions{
					Workers:   2,
					Only:      only,
					SpecTrial: RunSpecTrial,
				})
				if err != nil {
					t.Fatalf("shard %d: %v", si, err)
				}
				if res.Finalized {
					t.Fatalf("shard %d session finalized", si)
				}
			}
			merged := filepath.Join(dir, "merged.result")
			n, err := campaign.Merge(merged, paths...)
			if err != nil {
				t.Fatalf("Merge: %v", err)
			}
			if n != len(cells) {
				t.Fatalf("Merge combined %d cells, want %d", n, len(cells))
			}
			got, err := os.ReadFile(merged)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, golden) {
				t.Errorf("merged %d-shard result drifted from testdata/campaigns/smoke.result.golden", k)
			}
		})
	}
}

// TestShardedServeGoldenWhileScraped: the full coordinator/worker protocol
// drains the smoke campaign while a scraper hammers /metrics and /healthz
// the whole time — telemetry is a side channel, so the merged result must
// still be the committed golden bytes.
func TestShardedServeGoldenWhileScraped(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "campaigns", "smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &serve.Client{BaseURL: ts.URL}
	ctx := context.Background()

	st, err := client.Submit(ctx, data, 2)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				scraped <- n
				return
			default:
			}
			if err := client.Healthz(ctx); err != nil {
				t.Errorf("Healthz during run: %v", err)
			}
			if _, err := client.MetricsText(ctx); err != nil {
				t.Errorf("MetricsText during run: %v", err)
			}
			n++
		}
	}()

	err = serve.RunWorker(ctx, client, serve.WorkerOptions{
		Name:    "scraped-worker",
		Dir:     t.TempDir(),
		Trial:   RunSpecTrial,
		Workers: 2,
		Poll:    time.Millisecond,
	})
	close(stop)
	n := <-scraped
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	if n == 0 {
		t.Fatal("scraper never completed a pass; the invariance claim was not exercised")
	}

	got, err := client.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if !bytes.Equal(got, smokeGolden(t)) {
		t.Errorf("scrape-concurrent sharded result drifted from testdata/campaigns/smoke.result.golden (%d scrapes)", n)
	}
}
