package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"satin"
	"satin/internal/campaign"
	"satin/internal/runner"
	"satin/internal/spec"
)

// trialMeter wraps the facade's trial functions before they are injected
// into campaign.Run or serve.RunWorker. It records when the first cell
// started (the end of set-up), the summed cell time, and how many
// simulations ran at once; traced, it also records one span per trial on
// the cell's track.
type trialMeter struct {
	tr      *tracer
	process string
	index   map[string]int // canonical spec JSON -> cell index (traced only)

	first atomic.Int64 // UnixNano of the first trial start, 0 = none yet
	busy  atomic.Int64 // summed trial ns
	sims  gauge        // simulations running
}

// gauge counts work in progress and remembers its peak.
type gauge struct{ cur, peak atomic.Int32 }

func (g *gauge) inc() {
	n := g.cur.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

func (g *gauge) dec() { g.cur.Add(-1) }

func newTrialMeter(tr *tracer, process string, cells []campaign.Cell) (*trialMeter, error) {
	m := &trialMeter{tr: tr, process: process}
	if tr == nil {
		return m, nil
	}
	m.index = make(map[string]int, len(cells))
	for _, c := range cells {
		b, err := spec.Marshal(*c.Scenario)
		if err != nil {
			return nil, err
		}
		m.index[string(b)] = c.Index
	}
	return m, nil
}

func (m *trialMeter) enter() time.Time {
	t := time.Now()
	m.first.CompareAndSwap(0, t.UnixNano())
	m.sims.inc()
	return t
}

func (m *trialMeter) leave(begin time.Time) time.Time {
	end := time.Now()
	m.sims.dec()
	m.busy.Add(int64(end.Sub(begin)))
	return end
}

// cellOf names a spec's track; only called when traced.
func (m *trialMeter) cellOf(s spec.Spec) int {
	b, err := spec.Marshal(s)
	if err != nil {
		return -1
	}
	if i, ok := m.index[string(b)]; ok {
		return i
	}
	return -1
}

// spec is the campaign.SpecTrialFunc: satin.RunSpecTrial, measured.
func (m *trialMeter) spec(s spec.Spec) (runner.Metrics, error) {
	begin := m.enter()
	res, err := satin.RunSpecTrial(s)
	end := m.leave(begin)
	if m.tr != nil {
		m.tr.add(m.process, fmt.Sprintf("cell %d", m.cellOf(s)), "satin.RunSpecTrial", "", begin, end)
	}
	return res, err
}

// group is the campaign.GroupTrialFunc: satin.RunCheckpointGroup, measured.
func (m *trialMeter) group(ctx context.Context, members []spec.Spec) []campaign.GroupResult {
	begin := m.enter()
	res := satin.RunCheckpointGroup(ctx, members)
	end := m.leave(begin)
	if m.tr != nil {
		idx := make([]int, len(members))
		for i, s := range members {
			idx[i] = m.cellOf(s)
		}
		m.tr.add(m.process, fmt.Sprintf("group %d", idx[0]), "satin.RunCheckpointGroup",
			fmt.Sprintf("cells %v", idx), begin, end)
	}
	return res
}

func (m *trialMeter) firstStart() time.Time {
	return time.Unix(0, m.first.Load())
}

// cellTimes collects campaign.RunOptions.CellDone reports.
type cellTimes struct {
	mu     sync.Mutex
	ms     []float64
	forked int
}

func (c *cellTimes) done(index int, wall time.Duration, forked bool) {
	c.mu.Lock()
	c.ms = append(c.ms, ms(wall))
	if forked {
		c.forked++
	}
	c.mu.Unlock()
}
