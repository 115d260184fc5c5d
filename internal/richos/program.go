package richos

import (
	"time"

	"satin/internal/simclock"
)

// ActionKind says what a thread wants to do next.
type ActionKind int

// Thread actions.
const (
	// ActionCompute occupies the CPU for Dur of CPU time (wall time may be
	// longer under preemption or secure-world pauses).
	ActionCompute ActionKind = iota + 1
	// ActionSleep blocks the thread for Dur, then it becomes ready.
	ActionSleep
	// ActionYield returns the CPU and requeues the thread.
	ActionYield
	// ActionExit terminates the thread.
	ActionExit
	// ActionBlock parks the thread with no timer: it runs again only when
	// another thread (or kernel code) calls OS.Wake on it. The primitive
	// beneath blocking I/O such as pipe reads.
	ActionBlock
)

// Step is one scheduling decision returned by a Program.
type Step struct {
	Kind ActionKind
	Dur  time.Duration
}

// Convenience constructors for Steps.
func Compute(d time.Duration) Step { return Step{Kind: ActionCompute, Dur: d} }
func Sleep(d time.Duration) Step   { return Step{Kind: ActionSleep, Dur: d} }
func Yield() Step                  { return Step{Kind: ActionYield} }
func Exit() Step                   { return Step{Kind: ActionExit} }
func Block() Step                  { return Step{Kind: ActionBlock} }

// Program is the behavior of a thread: a state machine stepped each time
// the thread has the CPU and owes no pending compute. All side effects
// (reading the shared counter, writing report buffers, invoking syscalls)
// happen inside Next, at the virtual instant it is called. The tc passed
// to Next is valid only for the duration of that call: the OS reuses it
// for the thread's later steps, so a program must not keep it.
type Program interface {
	Next(tc *ThreadContext) Step
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(tc *ThreadContext) Step

// Next implements Program.
func (f ProgramFunc) Next(tc *ThreadContext) Step { return f(tc) }

// ThreadContext is what a Program sees while it runs. Each thread owns one,
// updated before every step; it is valid only inside Program.Next.
type ThreadContext struct {
	os     *OS
	thread *Thread
	coreID int
}

// Now reports the current virtual time. Modeled software may use it freely:
// it is the shared counter CNTPCT_EL0, readable from EL0.
func (tc *ThreadContext) Now() simclock.Time { return tc.os.platform.ReadCounter() }

// OS returns the rich OS the thread runs under.
func (tc *ThreadContext) OS() *OS { return tc.os }

// Thread returns the running thread.
func (tc *ThreadContext) Thread() *Thread { return tc.thread }

// CoreID reports which core the thread is executing on.
func (tc *ThreadContext) CoreID() int { return tc.coreID }

// Syscall performs a system call through the live syscall table in kernel
// memory — the dispatch path the sample rootkit hijacks.
func (tc *ThreadContext) Syscall(nr int) (uint64, error) {
	return tc.os.dispatchSyscall(tc, nr)
}
