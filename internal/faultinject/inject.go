package faultinject

import (
	"fmt"
	"time"

	"satin/internal/hw"
	"satin/internal/obs"
	"satin/internal/simclock"
	"satin/internal/trace"
	"satin/internal/trustzone"
)

// hotplugRetryGap is how long a deferred offline transition waits for the
// target core to leave the secure world.
const hotplugRetryGap = 50 * time.Microsecond

// Injector is an installed fault plan. All randomness comes from named
// simclock streams seeded at Install, and every draw happens inside engine
// events, so a faulted run is exactly reproducible for a given (seed, plan)
// regardless of worker count.
type Injector struct {
	plan     Plan
	platform *hw.Platform
	monitor  *trustzone.Monitor

	rngJitter *simclock.RNG
	rngIRQ    *simclock.RNG
	rngSwitch *simclock.RNG

	// base is each core's calibrated rates at install; jitter and freq are
	// the composable rescale factors currently applied on top of them
	// (effective = base × jitter / freq).
	base   []hw.CoreRates
	jitter []float64
	freq   []float64

	injected int

	bus        *obs.Bus
	totalCtr   *obs.Counter
	dvfsCtr    *obs.Counter
	hotplugCtr *obs.Counter
	delayCtr   *obs.Counter
	dropCtr    *obs.Counter
	spikeCtr   *obs.Counter
}

// Install validates plan against the platform and wires it in: jitter is
// applied to every core immediately, DVFS and hotplug events are scheduled
// on the engine, and the IRQ/switch hooks are installed. An empty plan
// installs no hooks at all — the simulation's hot path is untouched and its
// output byte-identical to an uninstrumented run. bus and reg may be nil.
func Install(plan Plan, plat *hw.Platform, mon *trustzone.Monitor, seed uint64, bus *obs.Bus, reg *obs.Registry) (*Injector, error) {
	if plat == nil {
		return nil, fmt.Errorf("faultinject: nil platform")
	}
	if mon == nil {
		return nil, fmt.Errorf("faultinject: nil monitor")
	}
	if err := plan.Validate(plat.NumCores()); err != nil {
		return nil, err
	}
	in := &Injector{
		plan:       plan,
		platform:   plat,
		monitor:    mon,
		bus:        bus,
		totalCtr:   reg.Counter("fault.injected"),
		dvfsCtr:    reg.Counter("fault.dvfs_steps"),
		hotplugCtr: reg.Counter("fault.hotplug_transitions"),
		delayCtr:   reg.Counter("fault.irq_delays"),
		dropCtr:    reg.Counter("fault.irq_drops"),
		spikeCtr:   reg.Counter("fault.switch_spikes"),
	}
	if plan.Empty() {
		return in, nil
	}
	n := plat.NumCores()
	in.base = make([]hw.CoreRates, n)
	in.jitter = make([]float64, n)
	in.freq = make([]float64, n)
	for i := 0; i < n; i++ {
		in.base[i] = plat.Core(i).Rates()
		in.jitter[i] = 1
		in.freq[i] = 1
	}
	if plan.RateJitter > 0 {
		in.rngJitter = simclock.NewRNG(seed, "faultinject.jitter")
		for i := 0; i < n; i++ {
			j := plan.RateJitter
			in.jitter[i] = 1 - j + 2*j*in.rngJitter.Float64()
			in.applyRates(i)
			in.record(trace.Event{
				At: plat.Engine().Now().Duration(), Kind: trace.KindFault, Core: i, Area: -1,
				Detail: fmt.Sprintf("jitter factor=%.4f", in.jitter[i]),
			}, nil)
		}
	}
	for _, step := range plan.DVFS {
		step := step
		in.scheduleAt(step.At, fmt.Sprintf("fault-dvfs-core%d", step.Core), func() {
			in.applyDVFS(step)
		})
	}
	for _, ev := range plan.Hotplug {
		ev := ev
		in.scheduleAt(ev.At, fmt.Sprintf("fault-hotplug-core%d", ev.Core), func() {
			in.applyHotplug(ev)
		})
	}
	if plan.IRQ.enabled() {
		in.rngIRQ = simclock.NewRNG(seed, "faultinject.irq")
		plat.GIC().SetRaiseInterceptor(in.interceptRaise)
	}
	if plan.Switch.enabled() || plan.RateJitter > 0 {
		if plan.Switch.enabled() {
			in.rngSwitch = simclock.NewRNG(seed, "faultinject.switch")
		}
		mon.SetSwitchPerturb(in.perturbSwitch)
	}
	return in, nil
}

// Plan returns the installed plan.
func (in *Injector) Plan() Plan { return in.plan }

// Injected reports how many faults have been injected so far.
func (in *Injector) Injected() int { return in.injected }

// record counts one injected fault, publishes its trace event, and bumps
// the kind-specific counter.
func (in *Injector) record(ev trace.Event, kindCtr *obs.Counter) {
	in.injected++
	in.totalCtr.Inc()
	kindCtr.Inc()
	in.bus.Publish(ev)
}

// scheduleAt runs fn at virtual time at, or immediately when the engine is
// already past it (an injector installed mid-run).
func (in *Injector) scheduleAt(at time.Duration, name string, fn func()) {
	engine := in.platform.Engine()
	t := simclock.Time(at)
	if t.Before(engine.Now()) {
		fn()
		return
	}
	engine.At(t, name, fn)
}

// applyRates recomputes and installs core i's effective rates through the
// validated setter.
func (in *Injector) applyRates(i int) {
	scale := in.jitter[i] / in.freq[i]
	if err := in.platform.Core(i).SetRates(in.base[i].Scaled(scale)); err != nil {
		// Plan validation bounds jitter to (0, 2) and factors to > 0, so a
		// rejected rescale means the injector itself is broken.
		panic(fmt.Sprintf("faultinject: rescaling core %d by %v: %v", i, scale, err))
	}
}

// applyDVFS performs one frequency step.
func (in *Injector) applyDVFS(step DVFSStep) {
	cores := []int{step.Core}
	if step.Core == -1 {
		cores = cores[:0]
		for i := 0; i < in.platform.NumCores(); i++ {
			cores = append(cores, i)
		}
	}
	for _, c := range cores {
		in.freq[c] = step.Factor
		in.applyRates(c)
	}
	in.record(trace.Event{
		At: in.platform.Engine().Now().Duration(), Kind: trace.KindFault, Core: step.Core, Area: -1,
		Detail: fmt.Sprintf("dvfs factor=%.4f", step.Factor),
	}, in.dvfsCtr)
}

// applyHotplug performs one hotplug transition, deferring an offline while
// the core executes in the secure world (PSCI CPU_OFF runs from the rich
// OS, which is not scheduled while the core is away).
func (in *Injector) applyHotplug(ev HotplugEvent) {
	core := in.platform.Core(ev.Core)
	if !ev.Online && in.monitor.InSecure(ev.Core) {
		in.platform.Engine().After(hotplugRetryGap, fmt.Sprintf("fault-hotplug-wait-core%d", ev.Core), func() {
			in.applyHotplug(ev)
		})
		return
	}
	if core.Online() == ev.Online {
		return
	}
	core.SetOnline(ev.Online)
	detail := "hotplug offline"
	if ev.Online {
		detail = "hotplug online"
	}
	in.record(trace.Event{
		At: in.platform.Engine().Now().Duration(), Kind: trace.KindFault, Core: ev.Core, Area: -1,
		Detail: detail,
	}, in.hotplugCtr)
}

// interceptRaise implements the GIC fault hook: drop or delay an interrupt
// assertion, completing delivery later via GIC.Deliver (which bypasses this
// interceptor).
func (in *Injector) interceptRaise(id hw.IntID, coreID int) bool {
	u := in.rngIRQ.Float64()
	switch {
	case u < in.plan.IRQ.DropProb:
		in.dropRaise(id, coreID, 1)
		return true
	case u < in.plan.IRQ.DropProb+in.plan.IRQ.DelayProb:
		d := in.plan.IRQ.Delay.Draw(in.rngIRQ)
		in.record(trace.Event{
			At: in.platform.Engine().Now().Duration(), Kind: trace.KindFault, Core: coreID, Area: -1,
			Detail: fmt.Sprintf("irq-delay %v +%v", id, d),
		}, in.delayCtr)
		in.platform.Engine().After(d, fmt.Sprintf("fault-irq-delay-core%d", coreID), func() {
			in.platform.GIC().Deliver(id, coreID)
		})
		return true
	}
	return false
}

// dropRaise models one dropped edge: the source re-asserts after a backoff,
// and after MaxRetries consecutive drops the assertion is delivered
// unconditionally, so no interrupt is ever lost for good.
func (in *Injector) dropRaise(id hw.IntID, coreID, attempt int) {
	in.record(trace.Event{
		At: in.platform.Engine().Now().Duration(), Kind: trace.KindFault, Core: coreID, Area: -1,
		Detail: fmt.Sprintf("irq-drop %v attempt=%d", id, attempt),
	}, in.dropCtr)
	retryDelay := in.plan.IRQ.RetryDelay
	if retryDelay == (simclock.Dist{}) {
		retryDelay = DefaultIRQRetryDelay
	}
	maxRetries := in.plan.IRQ.MaxRetries
	if maxRetries == 0 {
		maxRetries = DefaultIRQMaxRetries
	}
	d := retryDelay.Draw(in.rngIRQ)
	in.platform.Engine().After(d, fmt.Sprintf("fault-irq-retry-core%d", coreID), func() {
		if attempt < maxRetries && in.rngIRQ.Bool(in.plan.IRQ.DropProb) {
			in.dropRaise(id, coreID, attempt+1)
			return
		}
		in.platform.GIC().Deliver(id, coreID)
	})
}

// perturbSwitch implements the monitor's dispatch-latency hook: jittered
// cores stretch (or shrink) every entry's dispatch proportionally, and spike
// faults add a random extra latency to a fraction of entries. The monitor
// charges the returned latency after the core has left the normal world but
// before the payload runs (see Monitor.SetSwitchPerturb).
func (in *Injector) perturbSwitch(coreID int, base time.Duration) time.Duration {
	var extra time.Duration
	if in.plan.RateJitter > 0 {
		extra += time.Duration(float64(base) * (in.jitter[coreID] - 1))
	}
	if in.plan.Switch.enabled() && in.rngSwitch.Bool(in.plan.Switch.SpikeProb) {
		spike := in.plan.Switch.Spike.Draw(in.rngSwitch)
		extra += spike
		in.record(trace.Event{
			At: in.platform.Engine().Now().Duration(), Kind: trace.KindFault, Core: coreID, Area: -1,
			Detail: fmt.Sprintf("switch-spike +%v", spike),
		}, in.spikeCtr)
	}
	return extra
}
