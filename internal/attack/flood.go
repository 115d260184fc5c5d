package attack

import (
	"fmt"
	"time"

	"satin/internal/hw"
	"satin/internal/simclock"
)

// InterruptFlood is the interference attack that motivates SATIN's
// SCR_EL3.IRQ=0 requirement (§V-B): a compromised rich OS raises software-
// generated interrupts at a high rate toward every core. Under the
// non-preemptive routing SATIN configures, the flood is harmless — the
// interrupts pend while a check runs. Under preemptive routing (the OP-TEE
// style), every interrupt that lands on a checking core preempts the
// payload, stretching the check until the evader's recovery beats it.
type InterruptFlood struct {
	platform *hw.Platform
	engine   *simclock.Engine
	period   time.Duration
	cores    []int
	running  bool
	raised   int
}

// NewInterruptFlood prepares a flood at the given per-core rate (interrupts
// per second) against the listed cores (nil means all).
func NewInterruptFlood(p *hw.Platform, rate float64, cores []int) (*InterruptFlood, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("attack: flood rate %v must be positive", rate)
	}
	if len(cores) == 0 {
		cores = make([]int, p.NumCores())
		for i := range cores {
			cores[i] = i
		}
	}
	for _, c := range cores {
		if c < 0 || c >= p.NumCores() {
			return nil, fmt.Errorf("attack: flood core %d out of range", c)
		}
	}
	return &InterruptFlood{
		platform: p,
		engine:   p.Engine(),
		period:   time.Duration(float64(time.Second) / rate),
		cores:    cores,
	}, nil
}

// Start configures the SGI line and begins raising interrupts. The
// attacker's own no-op handler services them in the normal world (like the
// IPI handler of a flooding kernel module).
func (f *InterruptFlood) Start() error {
	if f.running {
		return fmt.Errorf("attack: flood already running")
	}
	f.running = true
	gic := f.platform.GIC()
	gic.Configure(hw.IntSGIFlood, hw.GroupNonSecure)
	gic.Register(hw.IntSGIFlood, func(int) {})
	f.tick()
	return nil
}

// Stop halts the flood after the next pending tick.
func (f *InterruptFlood) Stop() { f.running = false }

// Raised reports how many interrupts the flood has asserted.
func (f *InterruptFlood) Raised() int { return f.raised }

func (f *InterruptFlood) tick() {
	if !f.running {
		return
	}
	for _, c := range f.cores {
		f.platform.GIC().Raise(hw.IntSGIFlood, c)
		f.raised++
	}
	f.engine.After(f.period, "sgi-flood", f.tick)
}
