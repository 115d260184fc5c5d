package shard_test

import (
	"reflect"
	"testing"

	"satin/internal/campaign"
	"satin/internal/shard"
	"satin/internal/spec"
)

// gridCells expands a 3-combo × 4-seed campaign (12 cells) whose combos
// differ only in their fault plan, so seedKey groups them four ways.
func gridCells(t *testing.T) []campaign.Cell {
	t.Helper()
	c, err := campaign.Parse([]byte(`{
		"version": 1,
		"scenario": {
			"version": 1, "seed": 1,
			"defense": {"kind": "satin", "satin": {"tgoal": "19s", "max_rounds": 19}},
			"evader": {"kind": "fast"},
			"run": {"to_completion": true}
		},
		"faults": ["", "scale:1", "scale:2"],
		"seeds": {"base": 1, "count": 4}
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	cells, err := campaign.Cells(c)
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	if len(cells) != 12 {
		t.Fatalf("expansion has %d cells, want 12", len(cells))
	}
	return cells
}

// seedKey groups cells by seed, so every seed's cells form one group.
func seedKey(s spec.Spec) (string, bool) {
	return string(rune('a' + int(s.Seed))), true
}

func flatten(p shard.Plan) []int {
	var all []int
	for _, s := range p.Shards {
		all = append(all, s...)
	}
	return all
}

// TestPlanCovers: every cell lands in exactly one shard, shards are
// ascending, and counts are balanced when nothing constrains them.
func TestPlanCovers(t *testing.T) {
	cells := gridCells(t)
	for _, k := range []int{1, 2, 3, 4, 5, 12, 20} {
		p, err := shard.PlanCells(cells, k, nil)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if p.Count() != k {
			t.Fatalf("k=%d: plan has %d shards", k, p.Count())
		}
		seen := map[int]bool{}
		for si, s := range p.Shards {
			for i := 1; i < len(s); i++ {
				if s[i] <= s[i-1] {
					t.Fatalf("k=%d shard %d not ascending: %v", k, si, s)
				}
			}
			for _, idx := range s {
				if seen[idx] {
					t.Fatalf("k=%d: cell %d in two shards", k, idx)
				}
				seen[idx] = true
			}
		}
		if len(seen) != len(cells) {
			t.Fatalf("k=%d: plan covers %d of %d cells", k, len(seen), len(cells))
		}
		// Ungrouped planning must balance to within one cell.
		min, max := len(cells), 0
		for _, s := range p.Shards {
			if len(s) < min {
				min = len(s)
			}
			if len(s) > max {
				max = len(s)
			}
		}
		if k <= len(cells) && max-min > 1 {
			t.Fatalf("k=%d: unconstrained plan imbalanced: min %d, max %d", k, min, max)
		}
	}
}

// TestPlanKeepsGroupsIntact: cells sharing a group key never split across
// shards.
func TestPlanKeepsGroupsIntact(t *testing.T) {
	cells := gridCells(t)
	for _, k := range []int{2, 3, 4, 7} {
		p, err := shard.PlanCells(cells, k, seedKey)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		shardOf := map[int]int{}
		for si, s := range p.Shards {
			for _, idx := range s {
				shardOf[idx] = si
			}
		}
		bySeed := map[uint64][]int{}
		for _, c := range cells {
			bySeed[c.Seed] = append(bySeed[c.Seed], c.Index)
		}
		for seed, members := range bySeed {
			for _, idx := range members[1:] {
				if shardOf[idx] != shardOf[members[0]] {
					t.Fatalf("k=%d: seed %d group split across shards %d and %d",
						k, seed, shardOf[members[0]], shardOf[idx])
				}
			}
		}
	}
}

// TestPlanDeterministic: the same cells and K always produce the same plan.
func TestPlanDeterministic(t *testing.T) {
	cells := gridCells(t)
	a, err := shard.PlanCells(cells, 3, seedKey)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b, err := shard.PlanCells(cells, 3, seedKey)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("plan differs between calls: %v vs %v", a, b)
		}
	}
}

// TestPlanSingletonGroups: a key that marks no multi-cell groups degrades
// to per-cell planning; unsupported cells (ok=false) are singletons too.
func TestPlanSingletonGroups(t *testing.T) {
	cells := gridCells(t)
	none := func(spec.Spec) (string, bool) { return "", false }
	p, err := shard.PlanCells(cells, 4, none)
	if err != nil {
		t.Fatal(err)
	}
	for si, s := range p.Shards {
		if len(s) != 3 {
			t.Fatalf("shard %d has %d cells, want 3 (12 cells over 4 shards)", si, len(s))
		}
	}
	if got := flatten(p); len(got) != 12 {
		t.Fatalf("plan covers %d cells", len(got))
	}
}

// TestPlanRejectsBadCount: zero or negative shard counts are an error.
func TestPlanRejectsBadCount(t *testing.T) {
	cells := gridCells(t)
	for _, k := range []int{0, -1} {
		if _, err := shard.PlanCells(cells, k, nil); err == nil {
			t.Fatalf("PlanCells accepted k=%d", k)
		}
	}
}

// TestPlanCellsAccounting: Plan.Cells sums shard sizes.
func TestPlanCellsAccounting(t *testing.T) {
	cells := gridCells(t)
	p, err := shard.PlanCells(cells, 5, seedKey)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cells() != len(cells) {
		t.Fatalf("Plan.Cells() = %d, want %d", p.Cells(), len(cells))
	}
}
