package satin

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"satin/internal/campaign"
)

// TestCheckpointGroupRunsEachMember pins the two group-hook symbols the
// facade keeps: over every committed spec and every smoke-campaign cell,
// CheckpointGroupKey never groups, and RunCheckpointGroup is exactly
// RunSpecTrial per member, in member order, honouring cancellation.
func TestCheckpointGroupRunsEachMember(t *testing.T) {
	type row struct {
		name string
		spec ScenarioSpec
	}
	var rows []row
	files, err := filepath.Glob(filepath.Join("testdata", "specs", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed specs: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("ParseSpec(%s): %v", f, err)
		}
		rows = append(rows, row{f, s})
	}
	cells, err := campaign.Cells(smokeCampaign(t))
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	for _, c := range cells {
		rows = append(rows, row{fmt.Sprintf("smoke cell %d", c.Index), *c.Scenario})
	}

	members := make([]ScenarioSpec, len(rows))
	for i, r := range rows {
		if key, ok := CheckpointGroupKey(r.spec); ok {
			t.Errorf("%s: CheckpointGroupKey = %q, ok=true; want ok=false", r.name, key)
		}
		members[i] = r.spec
	}

	got := RunCheckpointGroup(context.Background(), members)
	if len(got) != len(rows) {
		t.Fatalf("RunCheckpointGroup returned %d results for %d members", len(got), len(rows))
	}
	for i, r := range rows {
		want, err := RunSpecTrial(r.spec)
		if err != nil {
			t.Fatalf("%s: RunSpecTrial: %v", r.name, err)
		}
		if got[i].Err != nil || !reflect.DeepEqual(got[i].Metrics, want) {
			t.Errorf("%s: group result %v (err %v), want RunSpecTrial's %v", r.name, got[i].Metrics, got[i].Err, want)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, res := range RunCheckpointGroup(ctx, members) {
		if res.Err != ctx.Err() || res.Metrics != nil {
			t.Errorf("%s: cancelled group result %v (err %v), want err %v", rows[i].name, res.Metrics, res.Err, ctx.Err())
		}
	}
}
