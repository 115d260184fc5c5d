package richos

import (
	"testing"
	"time"

	"satin/internal/hw"
	"satin/internal/mem"
	"satin/internal/simclock"
)

func newRig(t testing.TB) (*simclock.Engine, *hw.Platform, *mem.Image, *OS) {
	t.Helper()
	e := simclock.NewEngine()
	p, err := hw.NewJunoR1(e)
	if err != nil {
		t.Fatal(err)
	}
	im, err := mem.NewJunoImage(42)
	if err != nil {
		t.Fatal(err)
	}
	os, err := NewOS(p, im, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return e, p, im, os
}

// busyLoop computes in fixed quanta forever.
type busyLoop struct {
	quantum time.Duration
}

func (b *busyLoop) Next(*ThreadContext) Step { return Compute(b.quantum) }

// periodic computes then sleeps, recording when each period's work ran.
type periodic struct {
	work, sleep time.Duration
	ranAt       []simclock.Time
	computing   bool
}

func (p *periodic) Next(tc *ThreadContext) Step {
	if !p.computing {
		p.ranAt = append(p.ranAt, tc.Now())
		p.computing = true
		return Compute(p.work)
	}
	p.computing = false
	return Sleep(p.sleep)
}

func TestSpawnValidation(t *testing.T) {
	_, _, _, os := newRig(t)
	prog := &busyLoop{quantum: time.Millisecond}
	cases := []struct {
		name     string
		policy   Policy
		prio     int
		affinity []int
		program  Program
	}{
		{"nil program", PolicyCFS, 0, []int{0}, nil},
		{"bad policy", Policy(9), 0, []int{0}, prog},
		{"fifo prio too low", PolicyFIFO, 0, []int{0}, prog},
		{"fifo prio too high", PolicyFIFO, 100, []int{0}, prog},
		{"cfs with prio", PolicyCFS, 10, []int{0}, prog},
		{"empty affinity", PolicyCFS, 0, nil, prog},
		{"bad core", PolicyCFS, 0, []int{99}, prog},
		{"negative core", PolicyCFS, 0, []int{-1}, prog},
		{"repeated core", PolicyCFS, 0, []int{1, 1}, prog},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := os.Spawn("x", tc.policy, tc.prio, tc.affinity, tc.program); err == nil {
				t.Error("Spawn accepted invalid arguments")
			}
		})
	}
}

func TestNewOSValidatesConfig(t *testing.T) {
	e := simclock.NewEngine()
	p, err := hw.NewJunoR1(e)
	if err != nil {
		t.Fatal(err)
	}
	im, err := mem.NewJunoImage(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOS(p, im, Config{HZ: 50}); err == nil {
		t.Error("HZ below 100 accepted")
	}
	if _, err := NewOS(p, im, Config{HZ: 2000}); err == nil {
		t.Error("HZ above 1000 accepted")
	}
	if _, err := NewOS(p, im, Config{HZ: 250, CFSSlice: -time.Millisecond}); err == nil {
		t.Error("negative CFSSlice accepted")
	}
}

func TestIdlePlatformHasNoEvents(t *testing.T) {
	// CONFIG_NO_HZ_IDLE: with no threads, no ticks ever fire and the
	// engine drains immediately.
	e, _, _, _ := newRig(t)
	e.Run()
	if e.Now() != 0 {
		t.Errorf("idle platform advanced to %v; NO_HZ_IDLE should keep it silent", e.Now())
	}
}

func TestSingleThreadConsumesCPU(t *testing.T) {
	e, _, _, os := newRig(t)
	th, err := os.Spawn("busy", PolicyCFS, 0, []int{0}, &busyLoop{quantum: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(100 * time.Millisecond)
	// The thread should have nearly all the CPU (minus switch costs).
	if th.CPUTime() < 95*time.Millisecond || th.CPUTime() > 100*time.Millisecond {
		t.Errorf("CPUTime = %v, want ≈100ms", th.CPUTime())
	}
	if th.State() != StateRunning {
		t.Errorf("state = %v, want running", th.State())
	}
	if th.LastCore() != 0 || !th.Pinned() {
		t.Errorf("core = %d, pinned = %v", th.LastCore(), th.Pinned())
	}
}

func TestPeriodicSleepWake(t *testing.T) {
	e, _, _, os := newRig(t)
	prog := &periodic{work: time.Millisecond, sleep: 10 * time.Millisecond}
	if _, err := os.Spawn("periodic", PolicyCFS, 0, []int{1}, prog); err != nil {
		t.Fatal(err)
	}
	e.RunFor(100 * time.Millisecond)
	// Period is ~11ms plus small latencies: expect ~9 runs.
	if len(prog.ranAt) < 7 || len(prog.ranAt) > 10 {
		t.Fatalf("ran %d times, want ≈9", len(prog.ranAt))
	}
	for i := 1; i < len(prog.ranAt); i++ {
		gap := prog.ranAt[i].Sub(prog.ranAt[i-1])
		if gap < 11*time.Millisecond || gap > 13*time.Millisecond {
			t.Errorf("gap %d = %v, want ≈11ms", i, gap)
		}
	}
}

func TestCFSSharesCoreFairly(t *testing.T) {
	e, _, _, os := newRig(t)
	a, err := os.Spawn("a", PolicyCFS, 0, []int{0}, &busyLoop{quantum: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.Spawn("b", PolicyCFS, 0, []int{0}, &busyLoop{quantum: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(2 * time.Second)
	total := a.CPUTime() + b.CPUTime()
	if total < 1900*time.Millisecond {
		t.Errorf("combined CPU = %v, want ≈2s", total)
	}
	ratio := float64(a.CPUTime()) / float64(b.CPUTime())
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("CFS fairness ratio = %v (a=%v b=%v)", ratio, a.CPUTime(), b.CPUTime())
	}
	if a.Schedules() < 100 {
		t.Errorf("a scheduled %d times; tick-driven round-robin expected many slices", a.Schedules())
	}
}

func TestFIFOPreemptsCFSImmediately(t *testing.T) {
	e, _, _, os := newRig(t)
	if _, err := os.Spawn("cfs", PolicyCFS, 0, []int{0}, &busyLoop{quantum: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	prog := &periodic{work: 100 * time.Microsecond, sleep: 5 * time.Millisecond}
	if _, err := os.Spawn("rt", PolicyFIFO, MaxRTPriority, []int{0}, prog); err != nil {
		t.Fatal(err)
	}
	e.RunFor(50 * time.Millisecond)
	if len(prog.ranAt) < 8 {
		t.Fatalf("RT thread ran %d times in 50ms, want ≈9 (no preemption?)", len(prog.ranAt))
	}
	// Each wake-to-run latency must be tiny (wake latency, not CFS slice).
	for i := 1; i < len(prog.ranAt); i++ {
		gap := prog.ranAt[i].Sub(prog.ranAt[i-1])
		if gap > 6*time.Millisecond {
			t.Errorf("RT period %d = %v; RT wake should preempt CFS immediately", i, gap)
		}
	}
}

func TestFIFOPriorityOrdering(t *testing.T) {
	e, _, _, os := newRig(t)
	lo, err := os.Spawn("lo", PolicyFIFO, 10, []int{0}, &busyLoop{quantum: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := os.Spawn("hi", PolicyFIFO, 90, []int{0}, &busyLoop{quantum: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(100 * time.Millisecond)
	// The high-priority busy loop never sleeps, so the low one starves.
	if hi.CPUTime() < 95*time.Millisecond {
		t.Errorf("hi CPU = %v, want ≈100ms", hi.CPUTime())
	}
	if lo.CPUTime() > 5*time.Millisecond {
		t.Errorf("lo CPU = %v, want ≈0 (starved by higher FIFO prio)", lo.CPUTime())
	}
}

func TestEqualFIFONoPreemption(t *testing.T) {
	e, _, _, os := newRig(t)
	first, err := os.Spawn("first", PolicyFIFO, 50, []int{0}, &busyLoop{quantum: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	prog := &periodic{work: time.Millisecond, sleep: 3 * time.Millisecond}
	second, err := os.Spawn("second", PolicyFIFO, 50, []int{0}, prog)
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(100 * time.Millisecond)
	// SCHED_FIFO: equal priority never preempts a running thread, and the
	// first never blocks, so the second must starve after its initial queue.
	if second.CPUTime() > time.Millisecond {
		t.Errorf("equal-priority FIFO thread got %v CPU; must not preempt", second.CPUTime())
	}
	if first.CPUTime() < 95*time.Millisecond {
		t.Errorf("first CPU = %v", first.CPUTime())
	}
}

func TestThreadsSpreadAcrossCores(t *testing.T) {
	e, _, _, os := newRig(t)
	var threads []*Thread
	for i := 0; i < 6; i++ {
		th, err := os.Spawn("w", PolicyCFS, 0, os.AllCores(), &busyLoop{quantum: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		threads = append(threads, th)
	}
	e.RunFor(200 * time.Millisecond)
	used := make(map[int]bool)
	for _, th := range threads {
		used[th.LastCore()] = true
		if th.CPUTime() < 190*time.Millisecond {
			t.Errorf("%v got %v CPU; with 6 threads on 6 cores each should own one", th, th.CPUTime())
		}
	}
	if len(used) != 6 {
		t.Errorf("threads used %d cores, want 6", len(used))
	}
}

func TestExitAction(t *testing.T) {
	e, _, _, os := newRig(t)
	step := 0
	th, err := os.Spawn("oneshot", PolicyCFS, 0, []int{0}, ProgramFunc(func(tc *ThreadContext) Step {
		step++
		if step == 1 {
			return Compute(time.Millisecond)
		}
		return Exit()
	}))
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(50 * time.Millisecond)
	if th.State() != StateExited {
		t.Errorf("state = %v, want exited", th.State())
	}
	if step != 2 {
		t.Errorf("program stepped %d times, want 2", step)
	}
	if !os.IdleCore(0) {
		t.Error("core 0 not idle after thread exit")
	}
}

func TestYieldAlternates(t *testing.T) {
	e, _, _, os := newRig(t)
	var order []string
	mk := func(name string) Program {
		return ProgramFunc(func(tc *ThreadContext) Step {
			order = append(order, name)
			if len(order) > 40 {
				return Exit()
			}
			return Yield()
		})
	}
	if _, err := os.Spawn("a", PolicyCFS, 0, []int{0}, mk("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Spawn("b", PolicyCFS, 0, []int{0}, mk("b")); err != nil {
		t.Fatal(err)
	}
	e.RunFor(time.Second)
	if len(order) < 20 {
		t.Fatalf("only %d yield rounds ran", len(order))
	}
	// Yielding CFS threads must interleave, not monopolize.
	switches := 0
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1] {
			switches++
		}
	}
	if switches < len(order)/3 {
		t.Errorf("only %d alternations in %d yields", switches, len(order))
	}
}

func TestInvalidStepsPanic(t *testing.T) {
	cases := []struct {
		name string
		step Step
	}{
		{"zero compute", Compute(0)},
		{"negative sleep", Sleep(-time.Second)},
		{"bad kind", Step{Kind: ActionKind(77)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, _, _, os := newRig(t)
			if _, err := os.Spawn("bad", PolicyCFS, 0, []int{0}, ProgramFunc(func(*ThreadContext) Step {
				return tc.step
			})); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if recover() == nil {
					t.Error("invalid step did not panic")
				}
			}()
			e.RunFor(time.Second)
		})
	}
}

func TestPolicyAndStateStrings(t *testing.T) {
	if PolicyCFS.String() != "SCHED_OTHER" || PolicyFIFO.String() != "SCHED_FIFO" {
		t.Error("policy names wrong")
	}
	for _, s := range []ThreadState{StateReady, StateRunning, StateSleeping, StateExited, ThreadState(9)} {
		if s.String() == "" {
			t.Error("state must render")
		}
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy must render")
	}
}

// TestThreadContextPerThreadAcrossMigration: two threads time-sharing a core
// each see themselves through tc.Thread() and the core they actually run on
// through tc.CoreID(), before and after the secure world migrates them.
func TestThreadContextPerThreadAcrossMigration(t *testing.T) {
	e, p, _, os := newRig(t)
	// A pinned hog on core 1 makes core 0 the cheaper start for both.
	if _, err := os.Spawn("hog", PolicyCFS, 0, []int{1}, &busyLoop{quantum: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]map[int]int{}
	prog := func(name string) Program {
		seen[name] = map[int]int{}
		return ProgramFunc(func(tc *ThreadContext) Step {
			if got := tc.Thread().Name(); got != name {
				t.Fatalf("%s's program sees thread %q", name, got)
			}
			if cur := tc.OS().CurrentThread(tc.CoreID()); cur != tc.Thread() {
				t.Fatalf("%s sees core %d, which is running %v", name, tc.CoreID(), cur)
			}
			seen[name][tc.CoreID()]++
			return Compute(time.Millisecond)
		})
	}
	a, err := os.Spawn("a", PolicyCFS, 0, []int{0, 1}, prog("a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.Spawn("b", PolicyCFS, 0, []int{0, 1}, prog("b"))
	if err != nil {
		t.Fatal(err)
	}
	if a.LastCore() != 0 || b.LastCore() != 0 {
		t.Fatalf("threads placed on cores %d and %d, want both on 0", a.LastCore(), b.LastCore())
	}
	e.RunFor(50 * time.Millisecond)
	p.Core(0).SetWorld(hw.SecureWorld)
	if a.LastCore() != 1 || b.LastCore() != 1 {
		t.Fatalf("threads on cores %d and %d after core 0 went secure, want both on 1", a.LastCore(), b.LastCore())
	}
	e.RunFor(50 * time.Millisecond)
	for _, name := range []string{"a", "b"} {
		if seen[name][0] == 0 || seen[name][1] == 0 {
			t.Errorf("%s ran on cores %v, want both 0 and 1", name, seen[name])
		}
	}
}
