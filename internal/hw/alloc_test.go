package hw

import (
	"testing"

	"satin/internal/simclock"
)

// TestGICDeliveryDoesNotAllocate locks the interrupt hot path: a raise
// delivered straight to a normal-world core, a raise that pends while the
// core is in the secure world and drains when it returns, and re-arming the
// secure timer, as every SATIN round does, allocate nothing.
func TestGICDeliveryDoesNotAllocate(t *testing.T) {
	_, p := newTestPlatform(t)
	g := p.GIC()
	delivered := 0
	g.Register(IntNSTimer, func(int) { delivered++ })
	c := p.Core(0)
	t.Run("raise", func(t *testing.T) {
		if allocs := testing.AllocsPerRun(100, func() { g.Raise(IntNSTimer, 0) }); allocs != 0 {
			t.Errorf("Raise to a normal-world core allocated %.1f times, want 0", allocs)
		}
	})
	t.Run("pend-drain", func(t *testing.T) {
		before := delivered
		allocs := testing.AllocsPerRun(100, func() {
			c.SetWorld(SecureWorld)
			g.Raise(IntNSTimer, 0)
			c.SetWorld(NormalWorld)
		})
		if allocs != 0 {
			t.Errorf("pend + drain allocated %.1f times, want 0", allocs)
		}
		if delivered-before != 101 {
			t.Errorf("delivered %d pended interrupts, want 101", delivered-before)
		}
	})
	t.Run("secure-timer-rearm", func(t *testing.T) {
		st := c.SecureTimer()
		if err := st.WriteCTL(SecureWorld, true); err != nil {
			t.Fatal(err)
		}
		rearm := func() {
			if err := st.WriteCVAL(SecureWorld, 1000); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 200; i++ {
			rearm() // grow the engine's heap and free list to steady state
		}
		if allocs := testing.AllocsPerRun(100, rearm); allocs != 0 {
			t.Errorf("WriteCVAL allocated %.1f times, want 0", allocs)
		}
	})
}

// BenchmarkGICRaise is the per-interrupt cost of a non-secure line
// delivered to a core in the normal world.
func BenchmarkGICRaise(b *testing.B) {
	p, err := NewJunoR1(simclock.NewEngine())
	if err != nil {
		b.Fatal(err)
	}
	g := p.GIC()
	g.Register(IntNSTimer, func(int) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Raise(IntNSTimer, i%p.NumCores())
	}
}
