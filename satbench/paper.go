package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"satin/internal/experiment"
)

// quickWindow is the Fig. 7 window `benchtables -quick` uses.
const quickWindow = 60 * time.Second

// paper is paper-quick: every registry experiment's Run in quick mode,
// serially in registry order, rendering the tables `benchtables -quick`
// prints. A cell is one experiment.
type paper struct {
	seed  uint64
	names []string // nil = the whole registry
	pin   string
	last  map[string]time.Duration // per-experiment time of the last section

	setups []float64 // per-call set-up seconds, one per sampleSetup
}

func newPaper(seed uint64, names []string) *paper {
	p := &paper{seed: seed, names: names}
	if seed == defaultSeed && names == nil {
		p.pin = pinnedDigest[paperW]
	}
	return p
}

// prepare is the paper path's set-up: resolving the registry entries, the
// run configuration and the output buffer.
func (p *paper) prepare() ([]experiment.Definition, experiment.RunConfig, *bytes.Buffer, error) {
	defs := experiment.Registry()
	if p.names != nil {
		defs = nil
		for _, n := range p.names {
			d, ok := experiment.Lookup(n)
			if !ok {
				return nil, experiment.RunConfig{}, nil, fmt.Errorf("unknown experiment %q", n)
			}
			defs = append(defs, d)
		}
	}
	rc := experiment.RunConfig{Seed: p.seed, Quick: true, Seeds: 1, Workers: workers}
	return defs, rc, new(bytes.Buffer), nil
}

// sampleSetup times a batch of set-ups and records the per-call time. One
// pass fills a paper run, so its single set-up would be one sample, and
// one set-up is too short for the clock to resolve; sampling before every
// experiment spreads the samples over the whole run.
func (p *paper) sampleSetup() {
	const batch = 100
	t := time.Now()
	for j := 0; j < batch; j++ {
		p.prepare()
	}
	p.setups = append(p.setups, time.Since(t).Seconds()/batch)
}

func (p *paper) section(ctx context.Context, e *env) (section, error) {
	process := fmt.Sprintf("%s section %d", paperW, e.seq+1)
	e.seq++
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	defs, rc, out, err := p.prepare()
	if err != nil {
		return section{}, err
	}
	start := time.Now()
	s := section{setup: start.Sub(t0), cells: len(defs)}
	p.last = map[string]time.Duration{}
	for _, d := range defs {
		p.sampleSetup()
		// Like sections, experiments start from a collected heap: each pays
		// for its own garbage, not for the one before it.
		runtime.GC()
		mark := out.Len()
		var err error
		dur := e.tr.do(process, "experiment "+d.Name, "experiment."+d.Name, func() { err = d.Run(out, rc) })
		p.last[d.Name] = dur
		fmt.Fprintf(os.Stderr, "satbench: %s %v\n", d.Name, dur)
		s.cellMs = append(s.cellMs, ms(dur))
		switch {
		case err != nil:
			s.failed++
			s.notes = append(s.notes, fmt.Sprintf("%s: %v", d.Name, err))
		case !bytes.HasPrefix(out.Bytes()[mark:], []byte("\n=== ")) || out.Len()-mark < 100:
			s.failed++
			s.notes = append(s.notes, fmt.Sprintf("%s rendered no table", d.Name))
		}
	}
	end := time.Now()
	runtime.ReadMemStats(&after)
	s.wall = end.Sub(start)
	s.alloc = after.TotalAlloc - before.TotalAlloc
	s.digest = digestOf(out.Bytes())
	if p.pin != "" && s.digest != p.pin {
		s.failed = s.cells
		s.notes = append(s.notes, fmt.Sprintf("tables digest %s differs from the pinned default-seed digest %s", s.digest, p.pin))
	}
	return s, nil
}

func (p *paper) layers(ctx context.Context, e *env, traced []section, m metrics) error {
	process := paperW + " layers"
	for name, d := range p.last {
		m.set("experiment."+name+"_s", d.Seconds())
	}
	var boots []time.Duration
	for i := 0; i < 5; i++ {
		var err error
		boots = append(boots, e.tr.do(process, "rig", "experiment.NewRig", func() {
			_, err = experiment.NewRig(p.seed)
		}))
		if err != nil {
			return err
		}
	}
	m.set("experiment.rig_boot_ms", ms(durMedian(boots)))
	if err := bootProbe(e.tr, process, []uint64{p.seed}, m); err != nil {
		return err
	}
	if err := richosProbe(e.tr, process, p.seed, quickWindow, m); err != nil {
		return err
	}
	return accuracyProbe(e.tr, process, p.seed, quickWindow, m)
}
