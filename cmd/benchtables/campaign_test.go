package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"satin"
	"satin/internal/serve"
)

// miniCampaign is a fast real-simulation campaign: 2 evaders × 1 seed, four
// SATIN rounds each.
const miniCampaign = `{
  "version": 1,
  "name": "mini",
  "scenario": {
    "version": 1,
    "seed": 1,
    "defense": {"kind": "satin", "satin": {"tgoal": "4s", "max_rounds": 4}},
    "evader": {"kind": "fast"},
    "run": {"to_completion": true}
  },
  "grid": [{"path": "evader.kind", "values": ["fast", "none"]}],
  "seeds": {"base": 1, "count": 1}
}`

func writeMiniCampaign(t *testing.T) (campaignPath, resultPath string) {
	t.Helper()
	dir := t.TempDir()
	campaignPath = filepath.Join(dir, "mini.json")
	if err := os.WriteFile(campaignPath, []byte(miniCampaign), 0o644); err != nil {
		t.Fatal(err)
	}
	return campaignPath, filepath.Join(dir, "mini.result")
}

// TestCampaignRunsAndResumes: -campaign executes the grid, checkpoints with
// -campaign-max-cells, resumes to completion, and renders one sweep per
// combination.
func TestCampaignRunsAndResumes(t *testing.T) {
	campaignPath, resultPath := writeMiniCampaign(t)
	var out bytes.Buffer
	if err := run([]string{"-campaign", campaignPath, "-campaign-out", resultPath, "-campaign-max-cells", "1"}, &out); err != nil {
		t.Fatalf("partial run: %v", err)
	}
	if !strings.Contains(out.String(), "campaign checkpointed: 1/2 cells") {
		t.Fatalf("partial run output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-campaign", campaignPath, "-campaign-out", resultPath}, &out); err != nil {
		t.Fatalf("resume: %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"=== Campaign mini — 2/2 cells",
		"-- evader.kind=fast --",
		"-- evader.kind=none --",
		"campaign complete: 2 cells finalized",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("resume output missing %q:\n%s", want, text)
		}
	}
}

// TestCampaignFlagValidation: the campaign-shaping flags demand -campaign,
// and the cell cap cannot be negative.
func TestCampaignFlagValidation(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-campaign-out", "x.result"}, &out)
	if err == nil || !strings.Contains(err.Error(), "need -campaign") {
		t.Fatalf("error = %v, want a need-campaign rejection", err)
	}
	err = run([]string{"-campaign-max-cells", "3"}, &out)
	if err == nil || !strings.Contains(err.Error(), "need -campaign") {
		t.Fatalf("error = %v, want a need-campaign rejection", err)
	}
	// A negative cap would otherwise run the whole campaign: campaign.Run
	// only honours MaxCells > 0.
	campaignPath, resultPath := writeMiniCampaign(t)
	err = run([]string{"-campaign", campaignPath, "-campaign-out", resultPath, "-campaign-max-cells", "-1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-campaign-max-cells -1") {
		t.Fatalf("error = %v, want a negative-cap rejection", err)
	}
	if _, statErr := os.Stat(resultPath); !os.IsNotExist(statErr) {
		t.Fatalf("rejected run left a result file: %v", statErr)
	}
}

// TestCampaignDefaultResultPath: without -campaign-out the result lands
// next to the campaign file.
func TestCampaignDefaultResultPath(t *testing.T) {
	campaignPath, _ := writeMiniCampaign(t)
	var out bytes.Buffer
	if err := run([]string{"-campaign", campaignPath}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	derived := strings.TrimSuffix(campaignPath, ".json") + ".result"
	if _, err := os.Stat(derived); err != nil {
		t.Fatalf("derived result path: %v", err)
	}
}

// TestRateETA: the progress throughput suffix guards its divisions and
// drops the ETA once everything is done.
func TestRateETA(t *testing.T) {
	if got := rateETA(0, 10, time.Second); got != "" {
		t.Fatalf("rateETA(0, ...) = %q, want empty", got)
	}
	if got := rateETA(3, 10, 0); got != "" {
		t.Fatalf("rateETA(..., 0) = %q, want empty", got)
	}
	got := rateETA(5, 10, 2*time.Second)
	if !strings.Contains(got, "2.5 cells/s") || !strings.Contains(got, "ETA 2s") {
		t.Fatalf("rateETA(5, 10, 2s) = %q", got)
	}
	finished := rateETA(10, 10, 4*time.Second)
	if !strings.Contains(finished, "2.5 cells/s") || strings.Contains(finished, "ETA") {
		t.Fatalf("rateETA(10, 10, 4s) = %q", finished)
	}
	// Sub-second elapsed must extrapolate, not truncate to a zero rate.
	subSec := rateETA(1, 4, 100*time.Millisecond)
	if !strings.Contains(subSec, "10.0 cells/s") || !strings.Contains(subSec, "ETA 300ms") {
		t.Fatalf("rateETA(1, 4, 100ms) = %q", subSec)
	}
	// Overshoot (more done than planned, e.g. a resumed run re-counting)
	// still drops the ETA instead of printing a negative one.
	over := rateETA(12, 10, 4*time.Second)
	if !strings.Contains(over, "3.0 cells/s") || strings.Contains(over, "ETA") {
		t.Fatalf("rateETA(12, 10, 4s) = %q", over)
	}
	// Huge totals stay finite: a week-long ETA is rendered, not overflowed.
	huge := rateETA(1, 1_000_000, time.Second)
	if !strings.Contains(huge, "1.0 cells/s") || !strings.Contains(huge, "ETA 277h46m39s") {
		t.Fatalf("rateETA(1, 1e6, 1s) = %q", huge)
	}
}

// TestCampaignProgressShowsThroughput: -progress campaign lines carry the
// cells/sec rate.
func TestCampaignProgressShowsThroughput(t *testing.T) {
	campaignPath, resultPath := writeMiniCampaign(t)
	var out, progress bytes.Buffer
	if err := runWith([]string{"-campaign", campaignPath, "-campaign-out", resultPath, "-progress"}, &out, &progress); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := progress.String()
	if !strings.Contains(text, "campaign: 2/2 in ") || !strings.Contains(text, "cells/s") {
		t.Fatalf("progress output lacks throughput:\n%s", text)
	}
}

// TestCampaignRendersServedResult: the supported fleet flow. A coordinator
// and a serve.RunWorker loop drain the campaign; the downloaded merged
// result is handed to -campaign-out, and benchtables renders the same
// tables as a local run from it without rerunning a cell.
func TestCampaignRendersServedResult(t *testing.T) {
	s, err := serve.New(serve.Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	campaignPath, _ := writeMiniCampaign(t)
	dir := t.TempDir()
	localPath := filepath.Join(dir, "local.result")
	servePath := filepath.Join(dir, "served.result")
	var localOut bytes.Buffer
	if err := run([]string{"-campaign", campaignPath, "-campaign-out", localPath}, &localOut); err != nil {
		t.Fatalf("local run: %v", err)
	}

	data, err := os.ReadFile(campaignPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	client := &serve.Client{BaseURL: ts.URL}
	st, err := client.Submit(ctx, data, 2)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := serve.RunWorker(ctx, client, serve.WorkerOptions{
		Name: "w", Dir: t.TempDir(), Trial: satin.RunSpecTrial, Workers: 1,
	}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	merged, err := client.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if err := os.WriteFile(servePath, merged, 0o644); err != nil {
		t.Fatal(err)
	}

	var servedOut bytes.Buffer
	if err := run([]string{"-campaign", campaignPath, "-campaign-out", servePath}, &servedOut); err != nil {
		t.Fatalf("render served result: %v", err)
	}
	if want := strings.ReplaceAll(localOut.String(), localPath, servePath); servedOut.String() != want {
		t.Fatalf("served render differs from local run:\n--- served ---\n%s\n--- local ---\n%s", servedOut.String(), want)
	}
	after, err := os.ReadFile(servePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, merged) {
		t.Fatal("rendering the served result rewrote the file (a cell was rerun)")
	}
	local, err := os.ReadFile(localPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local, merged) {
		t.Fatal("served result differs from local run bytes")
	}
}
