package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"satin/internal/experiment"
	"satin/internal/obs"
	"satin/internal/runner"
	"satin/internal/spec"
	"satin/internal/trace"
)

// SpecTrialFunc runs one instantiated scenario spec and reduces it to sweep
// metrics. Injected (it is satin.RunSpecTrial in the CLIs) because this
// package must not import the facade.
type SpecTrialFunc func(spec.Spec) (runner.Metrics, error)

// GroupKeyFunc classifies one scenario spec for grouped execution: cells
// whose keys match (with ok true) run as one unit through a GroupTrialFunc;
// ok false runs the cell alone through the spec trial. It is a generic
// "run these cells as one unit" hook. Nothing in this repository produces a
// grouping key (satin.CheckpointGroupKey reports ok=false for every spec);
// the hook stays because the satbench harness passes it.
type GroupKeyFunc func(spec.Spec) (string, bool)

// GroupResult is one member's outcome from a group trial, mirroring one
// SpecTrialFunc return.
type GroupResult struct {
	Metrics runner.Metrics
	Err     error
}

// GroupTrialFunc executes the members of one group as a unit and returns one
// result per member, in order. The contract is equivalence: metrics and
// failures must be exactly what running the spec trial per member would
// produce, so the finalized result file is byte-identical either way
// (satin.RunCheckpointGroup is exactly that per-member loop).
type GroupTrialFunc func(ctx context.Context, members []spec.Spec) []GroupResult

// RunOptions configures one campaign execution.
type RunOptions struct {
	// Workers bounds the worker pool (0 or negative = GOMAXPROCS).
	Workers int
	// MaxCells, when positive, stops the run after that many newly
	// completed cells — checkpointed, not finalized — which is how the
	// smoke targets simulate a kill deterministically.
	MaxCells int
	// Only, when non-nil, restricts this session to the listed cell
	// indices — one shard of the campaign. The result file still spans the
	// whole campaign's index space (its header is the full canonical
	// campaign), but a shard session never finalizes: Merge combines the
	// per-shard files into the finalized form. An index outside the
	// expansion is an error. A nil slice means every cell; an empty
	// non-nil slice is a valid (empty) shard.
	Only []int
	// Progress, when non-nil, observes per-cell completions live (done and
	// total count cells pending in THIS session). Completion order —
	// diagnostics only.
	Progress runner.Progress
	// Bus, when non-nil, receives one trace.KindCell event per completed
	// cell (Area = cell index, At always zero: campaigns span universes,
	// so there is no shared virtual clock).
	Bus *obs.Bus
	// SpecTrial executes scenario cells; required unless the campaign
	// names a registry experiment.
	SpecTrial SpecTrialFunc
	// GroupKey and GroupTrial, when both non-nil, enable grouped
	// execution: pending scenario cells whose group keys match run as one
	// unit through GroupTrial instead of cell-by-cell through SpecTrial.
	// Grouping is disabled under MaxCells (a truncated session must complete
	// exactly the first pending cells, not a group's worth); the finalized
	// result file is byte-identical with grouping on or off.
	GroupKey   GroupKeyFunc
	GroupTrial GroupTrialFunc
	// CellDone, when non-nil, observes each newly checkpointed cell's
	// wall-clock cost: forked reports whether the cell ran inside a
	// multi-cell group (wall is then the group's trial time split evenly
	// across members). Telemetry side channel only — cancelled cells
	// are not reported and nothing here touches the result bytes. Called
	// from pool goroutines; implementations synchronize themselves.
	CellDone func(index int, wall time.Duration, forked bool)
}

// RunResult summarizes one campaign execution.
type RunResult struct {
	// Cells is the full expansion, in index order.
	Cells []Cell
	// Results holds every checkpointed cell (this session's and resumed
	// ones), in index order.
	Results []CellResult
	// NewlyDone counts cells completed by this session.
	NewlyDone int
	// Finalized reports whether every cell is done and the result file was
	// rewritten into its canonical final form.
	Finalized bool
}

// Run executes the campaign against its result file at resultPath: expand
// the cells, skip the ones already checkpointed, run the remainder on the
// worker pool (appending each completion to the checkpoint immediately),
// and — once every cell is present — finalize the file into its canonical
// byte-identical form.
func Run(ctx context.Context, c Spec, resultPath string, opt RunOptions) (RunResult, error) {
	canon, err := Canonicalize(c)
	if err != nil {
		return RunResult{}, err
	}
	specBytes, err := Marshal(canon)
	if err != nil {
		return RunResult{}, err
	}
	cells, err := Cells(canon)
	if err != nil {
		return RunResult{}, err
	}
	if canon.Experiment == "" && opt.SpecTrial == nil {
		return RunResult{}, fmt.Errorf("campaign: scenario campaigns need a spec trial function")
	}

	rf, err := CreateOrResume(resultPath, specBytes)
	if err != nil {
		return RunResult{}, err
	}
	defer rf.Close()

	var only map[int]bool
	if opt.Only != nil {
		only = make(map[int]bool, len(opt.Only))
		for _, idx := range opt.Only {
			if idx < 0 || idx >= len(cells) {
				return RunResult{}, fmt.Errorf("campaign: shard cell index %d out of range (campaign has %d cells)", idx, len(cells))
			}
			only[idx] = true
		}
	}

	var pending []Cell
	for _, cell := range cells {
		if only != nil && !only[cell.Index] {
			continue
		}
		if _, ok := rf.Done()[cell.Index]; !ok {
			pending = append(pending, cell)
		}
	}
	toRun := pending
	if opt.MaxCells > 0 && opt.MaxCells < len(toRun) {
		toRun = toRun[:opt.MaxCells]
	}

	result := RunResult{Cells: cells}
	if len(toRun) > 0 {
		units := groupUnits(toRun, opt)
		progress := cellProgress(units, len(toRun), opt.Progress)
		var mu sync.Mutex
		// busMu serializes KindCell publishes: the bus is a single-threaded
		// structure (and sinks — a progress renderer, an HTTP reporter — are
		// written as such), but completions arrive from pool goroutines.
		var busMu sync.Mutex
		var checkpointErr error
		_, runErr := runner.RunObserved(ctx, len(units), opt.Workers, progress,
			func(ctx context.Context, ui int) (struct{}, error) {
				unit := units[ui]
				unitStart := time.Now()
				var results []GroupResult
				if len(unit) == 1 {
					metrics, trialErr := runCell(ctx, unit[0], opt.SpecTrial)
					results = []GroupResult{{Metrics: metrics, Err: trialErr}}
				} else {
					members := make([]spec.Spec, len(unit))
					for i, cell := range unit {
						members[i] = *cell.Scenario
					}
					results = opt.GroupTrial(ctx, members)
					if len(results) != len(unit) {
						return struct{}{}, fmt.Errorf("campaign: group trial returned %d results for %d members", len(results), len(unit))
					}
				}
				cellWall := time.Since(unitStart) / time.Duration(len(unit))
				var firstErr error
				for i, r := range results {
					cell := unit[i]
					if r.Err != nil && isCancellation(ctx, r.Err) {
						// The trial died with the context, not on its own
						// merits: leave the cell unchecked so resume reruns
						// it.
						if firstErr == nil {
							firstErr = r.Err
						}
						continue
					}
					res := CellResult{Index: cell.Index, Seed: cell.Seed, Metrics: r.Metrics}
					if r.Err != nil {
						res.Err = r.Err.Error()
						res.Metrics = nil
						if firstErr == nil {
							firstErr = r.Err
						}
					}
					mu.Lock()
					appendErr := rf.Append(res)
					if appendErr != nil && checkpointErr == nil {
						checkpointErr = appendErr
					}
					result.NewlyDone++
					mu.Unlock()
					if appendErr != nil {
						return struct{}{}, appendErr
					}
					if opt.CellDone != nil {
						opt.CellDone(cell.Index, cellWall, len(unit) > 1)
					}
					busMu.Lock()
					publishCell(opt.Bus, cell, res)
					busMu.Unlock()
				}
				return struct{}{}, firstErr
			})
		if checkpointErr != nil {
			return RunResult{}, checkpointErr
		}
		if runErr != nil {
			return RunResult{}, fmt.Errorf("campaign: %w", runErr)
		}
	}

	// A shard session never finalizes even if its file happens to hold
	// every cell: finalization is the whole-campaign act (Merge, or a
	// full-range session).
	if opt.Only == nil && len(rf.Done()) == len(cells) {
		if err := rf.Finalize(len(cells)); err != nil {
			return RunResult{}, err
		}
		result.Finalized = true
	}
	for _, cell := range cells {
		if res, ok := rf.Done()[cell.Index]; ok {
			result.Results = append(result.Results, res)
		}
	}
	return result, nil
}

// groupUnits partitions the cells this session will run into execution
// units: with grouping enabled, cells whose group keys match form one
// multi-cell unit (in expansion order); everything else — ungrouped cells,
// experiment cells, singleton groups — runs alone. Unit boundaries only
// shape scheduling and the order of result-file appends; the finalized file
// sorts by index and is invariant to them.
func groupUnits(cells []Cell, opt RunOptions) [][]Cell {
	if opt.GroupKey == nil || opt.GroupTrial == nil || opt.MaxCells > 0 {
		units := make([][]Cell, len(cells))
		for i, c := range cells {
			units[i] = []Cell{c}
		}
		return units
	}
	grouped := map[string][]Cell{}
	keyOf := make([]string, len(cells))
	for i, c := range cells {
		if c.Scenario == nil {
			continue
		}
		if key, ok := opt.GroupKey(*c.Scenario); ok {
			keyOf[i] = key
			grouped[key] = append(grouped[key], c)
		}
	}
	var units [][]Cell
	emitted := map[string]bool{}
	for i, c := range cells {
		key := keyOf[i]
		if key == "" || len(grouped[key]) < 2 {
			units = append(units, []Cell{c})
			continue
		}
		if !emitted[key] {
			emitted[key] = true
			units = append(units, grouped[key])
		}
	}
	return units
}

// cellProgress adapts a per-cell progress observer to per-unit completions:
// a finished unit reports each of its cells, so done/total keep counting
// cells pending in this session. The reported index is the cell's campaign
// index (diagnostic, like everything else about progress).
func cellProgress(units [][]Cell, totalCells int, p runner.Progress) runner.Progress {
	if p == nil {
		return nil
	}
	done := 0
	return func(_, _, ui int, elapsed time.Duration, err error) {
		for _, cell := range units[ui] {
			done++
			p(done, totalCells, cell.Index, elapsed, err)
		}
	}
}

// runCell dispatches one cell: registry experiments through their trial
// form, scenario cells through the injected spec trial.
func runCell(ctx context.Context, cell Cell, specTrial SpecTrialFunc) (runner.Metrics, error) {
	if cell.Experiment != "" {
		def, ok := experiment.Lookup(cell.Experiment)
		if !ok || def.Trial == nil {
			return nil, fmt.Errorf("campaign: experiment %q has no trial form", cell.Experiment)
		}
		return def.Trial(ctx, cell.Seed)
	}
	return specTrial(*cell.Scenario)
}

// isCancellation reports whether the trial failed because the run was being
// torn down rather than on the cell's own merits.
func isCancellation(ctx context.Context, err error) bool {
	return ctx.Err() != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// publishCell streams one completed cell over the bus.
func publishCell(bus *obs.Bus, cell Cell, res CellResult) {
	if bus.Subscribers() == 0 {
		return
	}
	detail := cell.Label() + " ok"
	if res.Failed() {
		detail = cell.Label() + " FAILED: " + res.Err
	}
	bus.Publish(trace.Event{Kind: trace.KindCell, Core: -1, Area: cell.Index, Detail: detail})
}

// MergeSweeps folds checkpointed cell results back into per-combination
// sweeps — the same aggregate form live multi-seed sweeps produce, built in
// cell-index order so the rendering is byte-identical no matter how the
// cells were computed.
func MergeSweeps(cells []Cell, results []CellResult) []*runner.Sweep {
	byIndex := map[int]CellResult{}
	for _, r := range results {
		byIndex[r.Index] = r
	}
	var sweeps []*runner.Sweep
	var cur *runner.Sweep
	curCombo := -1
	for _, cell := range cells {
		res, ok := byIndex[cell.Index]
		if !ok {
			continue
		}
		if cell.Combo != curCombo {
			cur = runner.NewSweep(cell.ComboLabel)
			sweeps = append(sweeps, cur)
			curCombo = cell.Combo
		}
		if res.Failed() {
			cur.AddFailure(res.Seed, errors.New(res.Err))
			continue
		}
		cur.AddTrial(res.Seed, res.Metrics)
	}
	return sweeps
}
