package richos

import (
	"testing"
	"time"
)

// cycle steps through a fixed list of actions forever without allocating.
type cycle struct {
	steps []Step
	i     int
}

func (c *cycle) Next(*ThreadContext) Step {
	s := c.steps[c.i%len(c.steps)]
	c.i++
	return s
}

// TestSteadyStateSchedulingAllocationBudget locks the rich OS hot path: once
// warm, a mixed CFS + FIFO workload of compute, sleep and yield steps with
// every core's tick armed allocates at most one object per 1000 dispatched
// events.
func TestSteadyStateSchedulingAllocationBudget(t *testing.T) {
	e, _, _, os := newRig(t)
	spawn := func(name string, policy Policy, prio int, affinity []int, steps ...Step) {
		t.Helper()
		if _, err := os.Spawn(name, policy, prio, affinity, &cycle{steps: steps}); err != nil {
			t.Fatal(err)
		}
	}
	// Two CFS hogs round-robin core 0 on tick slices; a FIFO thread
	// preempts them periodically.
	spawn("hog-a", PolicyCFS, 0, []int{0}, Compute(2*time.Millisecond))
	spawn("hog-b", PolicyCFS, 0, []int{0}, Compute(3*time.Millisecond))
	spawn("rt", PolicyFIFO, 50, []int{0}, Compute(100*time.Microsecond), Sleep(time.Millisecond))
	// Migratable sleepers and a yielder share cores 1 and 2.
	spawn("sleeper", PolicyCFS, 0, []int{1, 2}, Compute(500*time.Microsecond), Sleep(200*time.Microsecond), Yield())
	spawn("yielder", PolicyCFS, 0, []int{1}, Compute(300*time.Microsecond), Yield())
	spawn("napper", PolicyCFS, 0, []int{2}, Compute(50*time.Microsecond), Sleep(50*time.Microsecond))

	e.RunFor(200 * time.Millisecond) // warm up: labels, free list, run queues
	var events uint64
	allocs := testing.AllocsPerRun(5, func() {
		d0 := e.Dispatched()
		e.RunFor(100 * time.Millisecond)
		events = e.Dispatched() - d0
	})
	if events < 1000 {
		t.Fatalf("only %d events per run; the workload is too light to measure", events)
	}
	if allocs*1000 > float64(events) {
		t.Errorf("%.0f allocations per %d dispatched events, budget is 1 per 1000", allocs, events)
	}
}

// BenchmarkDispatchComputeChunk is the rich OS's cost per compute chunk: one
// Program.Next, one compute event, and the share of scheduling ticks that
// lands in the chunk.
func BenchmarkDispatchComputeChunk(b *testing.B) {
	e, _, _, os := newRig(b)
	n := 0
	prog := ProgramFunc(func(*ThreadContext) Step {
		if n++; n > b.N {
			return Exit()
		}
		return Compute(100 * time.Microsecond)
	})
	if _, err := os.Spawn("chunks", PolicyCFS, 0, []int{0}, prog); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
