package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"satin"
	"satin/internal/campaign"
)

// Workload sizes. The grid is 2 evader kinds × 2 round caps × 4 fault plans
// × gridSeeds seeds = 128 cells; the sweep is sweepCells distinct seeds.
const (
	gridSeeds   = 8
	sweepCells  = 128
	sweepShards = 8
)

// gridCampaign is campaign-grid's input. Cells of one seed share its boot.
// The two late DVFS plans and the unfaulted plan share a 29.9 s fault-free
// prefix, so each (kind, rounds, seed) triple forks three cells from one
// checkpoint, while scale:1 jitters rates from t=0 and runs from scratch.
// Fast-evader cells write the kernel the checker reads; clean cells only
// read it.
func gridCampaign(seed uint64, seeds int) []byte {
	return []byte(fmt.Sprintf(`{
  "version": 1,
  "name": "satbench-grid",
  "scenario": {
    "version": 1,
    "seed": 1,
    "defense": {"kind": "satin", "satin": {"tgoal": "19s", "max_rounds": 19}},
    "evader": {"kind": "fast"},
    "run": {"for": "40s"}
  },
  "grid": [
    {"path": "evader.kind", "values": ["fast", "none"]},
    {"path": "defense.satin.max_rounds", "values": [19, 38]}
  ],
  "faults": ["", "dvfs:at=30s,factor=0.5", "dvfs:at=36s,factor=0.8", "scale:1"],
  "seeds": {"base": %d, "count": %d}
}
`, 1+seed*uint64(seeds), seeds))
}

// sweepCampaign is served-sweep's input: one scenario, one fault plan, no
// grid, every cell its own seed — nothing to share or fork.
func sweepCampaign(seed uint64, cells int) []byte {
	return []byte(fmt.Sprintf(`{
  "version": 1,
  "name": "satbench-sweep",
  "scenario": {
    "version": 1,
    "seed": 1,
    "defense": {"kind": "satin", "satin": {"tgoal": "19s", "max_rounds": 19}},
    "evader": {"kind": "fast"},
    "run": {"for": "40s"}
  },
  "faults": ["dvfs:at=30s,factor=0.5"],
  "seeds": {"base": %d, "count": %d}
}
`, 1+seed*uint64(cells), cells))
}

// campaignInput is a campaign's JSON plus what the benchmark derives from
// it outside the timed sections: the canonical bytes and cells the output
// check compares against.
type campaignInput struct {
	json      []byte
	raw       campaign.Spec // as parsed, before canonicalization
	canon     campaign.Spec
	specBytes []byte
	cells     []campaign.Cell
	pin       string // pinned result digest, "" off the default input
}

func newCampaignInput(js []byte, pin string) (campaignInput, error) {
	raw, err := campaign.Parse(js)
	if err != nil {
		return campaignInput{}, err
	}
	canon, err := campaign.Canonicalize(raw)
	if err != nil {
		return campaignInput{}, err
	}
	specBytes, err := campaign.Marshal(canon)
	if err != nil {
		return campaignInput{}, err
	}
	cells, err := campaign.Cells(canon)
	if err != nil {
		return campaignInput{}, err
	}
	return campaignInput{json: js, raw: raw, canon: canon, specBytes: specBytes, cells: cells, pin: pin}, nil
}

// distinctSeeds lists the cells' root seeds once each, in order.
func (in campaignInput) distinctSeeds() []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, c := range in.cells {
		if !seen[c.Seed] {
			seen[c.Seed] = true
			out = append(out, c.Seed)
		}
	}
	return out
}

// grid is campaign-grid: an in-process campaign.Run with two workers, the
// facade's spec trial and checkpoint-fork grouping, as `benchtables
// -campaign` runs it.
type grid struct {
	in        campaignInput
	lastBytes []byte // last section's finalized result, for the replay probe
}

func newGrid(seed uint64, seeds int) (*grid, error) {
	pin := ""
	if seed == defaultSeed && seeds == gridSeeds {
		pin = pinnedDigest[gridW]
	}
	in, err := newCampaignInput(gridCampaign(seed, seeds), pin)
	if err != nil {
		return nil, err
	}
	return &grid{in: in}, nil
}

func (g *grid) section(ctx context.Context, e *env) (section, error) {
	process := fmt.Sprintf("%s section %d", gridW, e.seq+1)
	path := e.next("grid") + ".result"
	meter, err := newTrialMeter(e.tr, process, g.in.cells)
	if err != nil {
		return section{}, err
	}
	var ct cellTimes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	c, err := campaign.Parse(g.in.json)
	if err != nil {
		return section{}, err
	}
	opt := campaign.RunOptions{
		Workers:    workers,
		SpecTrial:  meter.spec,
		GroupKey:   satin.CheckpointGroupKey,
		GroupTrial: meter.group,
		CellDone:   ct.done,
	}
	e.tr.do(process, "run", "campaign.Run", func() {
		_, err = campaign.Run(ctx, c, path, opt)
	})
	end := time.Now()
	runtime.ReadMemStats(&after)
	if err != nil {
		return section{}, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return section{}, err
	}
	defer os.Remove(path)
	g.lastBytes = data
	s := section{
		setup:  meter.firstStart().Sub(t0),
		wall:   end.Sub(meter.firstStart()),
		alloc:  after.TotalAlloc - before.TotalAlloc,
		cells:  len(g.in.cells),
		cellMs: ct.ms,
		busy:   time.Duration(meter.busy.Load()),
		forked: ct.forked,
		peak:   int(meter.sims.peak.Load()),
	}
	s.failed, s.notes, s.digest = checkResult(data, g.in)
	return s, nil
}

func (g *grid) layers(ctx context.Context, e *env, traced []section, m metrics) error {
	process := gridW + " layers"
	var forked, cells int
	for _, s := range traced {
		forked += s.forked
		cells += s.cells
	}
	m.set("campaign.forked_ratio", ratio(float64(forked), float64(cells)))
	m.set("runner.idle_ratio", idleRatio(traced))
	if err := probePass(e.tr, process, g.in.cells, m); err != nil {
		return err
	}
	if err := bootProbe(e.tr, process, g.in.distinctSeeds(), m); err != nil {
		return err
	}
	if err := specProbe(e.tr, process, g.in, m); err != nil {
		return err
	}
	return replayProbe(e, process, g.in, g.lastBytes, m)
}
