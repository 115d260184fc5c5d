// Package satin is a simulation-based reproduction of "SATIN: A Secure and
// Trustworthy Asynchronous Introspection on Multi-Core ARM Processors"
// (DSN 2019).
//
// It provides a deterministic discrete-event model of the paper's testbed —
// an ARM Juno r1 board with TrustZone, a Linux-like rich OS, and the timing
// behavior the paper measured — plus full implementations of both sides of
// the paper's arms race:
//
//   - the TZ-Evader evasion attack (user-level prober, KProber-I/II, the
//     GETTID rootkit, and hide/reinstall logic racing the introspection);
//   - the baseline asynchronous introspection TZ-Evader defeats;
//   - SATIN itself (divide-and-conquer integrity checking, secure-timer
//     self-activation, wake-up time queue, multi-core collaboration).
//
// The Scenario type assembles a complete testbed; everything it returns is
// driven by a virtual clock, so simulated hours run in real-time seconds
// and every run is reproducible from its seed.
//
//	sc, err := satin.NewScenario(satin.WithSeed(42), satin.WithSATIN(satin.DefaultConfig()))
//	...
//	sc.Run(10 * time.Minute) // virtual minutes
//	fmt.Println(sc.SATIN().Alarms())
package satin

import (
	"context"
	"fmt"
	"io"
	"time"

	"satin/internal/attack"
	"satin/internal/core"
	"satin/internal/faultinject"
	"satin/internal/hw"
	"satin/internal/introspect"
	"satin/internal/mem"
	"satin/internal/obs"
	"satin/internal/profile"
	"satin/internal/richos"
	"satin/internal/runner"
	"satin/internal/simclock"
	"satin/internal/syncguard"
	"satin/internal/trace"
	"satin/internal/trustzone"
)

// Re-exported defense types (the paper's contribution).
type (
	// Config tunes SATIN; see DefaultConfig.
	Config = core.Config
	// Round is one completed SATIN introspection round.
	Round = core.Round
	// Alarm is a detected integrity violation.
	Alarm = core.Alarm
	// SATIN is the secure-world introspection service.
	SATIN = core.SATIN
	// Reporter signs alarms with the secure-world key (§V-B's "raise an
	// alarm to the server side").
	Reporter = core.Reporter
	// SignedAlarm is one authenticated alarm record.
	SignedAlarm = core.SignedAlarm
)

// NewReporter creates an alarm reporter with the given device key.
func NewReporter(key []byte) (*Reporter, error) { return core.NewReporter(key) }

// VerifyAlarm checks a signed alarm record against the device key.
func VerifyAlarm(key []byte, rec SignedAlarm) bool { return core.VerifyAlarm(key, rec) }

// VerifySequence checks a batch of reports for gaps (suppressed alarms).
func VerifySequence(from uint64, recs []SignedAlarm) error { return core.VerifySequence(from, recs) }

// Re-exported attack types.
type (
	// Rootkit is the paper's sample GETTID syscall-table hijack.
	Rootkit = attack.Rootkit
	// Evader is the full-fidelity (thread-level) TZ-Evader.
	Evader = attack.Evader
	// FastEvader is the calibrated O(1)-per-event TZ-Evader for long runs.
	FastEvader = attack.FastEvader
	// ProberConfig tunes the evader's probing threads.
	ProberConfig = attack.ProberConfig
)

// Re-exported substrate types.
type (
	// Platform is the simulated Juno r1 board.
	Platform = hw.Platform
	// Image is the booted kernel image.
	Image = mem.Image
	// OS is the simulated rich OS.
	OS = richos.OS
	// Monitor is the EL3 secure monitor.
	Monitor = trustzone.Monitor
	// Checker is the secure-world memory checker both SATIN and the
	// baseline hash through.
	Checker = introspect.Checker
	// Baseline is the pre-SATIN periodic full-kernel checker.
	Baseline = introspect.Baseline
	// BaselineConfig tunes it.
	BaselineConfig = introspect.BaselineConfig
	// Technique is the memory-acquisition technique (DirectHash or
	// SnapshotHash).
	Technique = introspect.Technique
	// BaselineOutcome is one completed baseline round.
	BaselineOutcome = introspect.Outcome
	// Engine is the discrete-event engine driving everything.
	Engine = simclock.Engine
	// Timeline is a merged, time-ordered event stream of a run.
	Timeline = trace.Timeline
	// TimelineEvent is one Timeline entry.
	TimelineEvent = trace.Event
	// SyncGuard is the synchronous introspection of §VII-A.
	SyncGuard = syncguard.Guard
	// InterruptFlood is the §V-B interference attack.
	InterruptFlood = attack.InterruptFlood
	// RoutingMode is the §II-B NS-interrupt routing configuration.
	RoutingMode = trustzone.RoutingMode
)

// Re-exported enums for baseline configuration.
const (
	// FixedCore always checks on one core.
	FixedCore = introspect.FixedCore
	// RandomCore checks on a random core each round.
	RandomCore = introspect.RandomCore
	// DirectHash reads and hashes live kernel memory.
	DirectHash = introspect.DirectHash
	// SnapshotHash copies first, then hashes the frozen copy.
	SnapshotHash = introspect.SnapshotHash
	// NonPreemptive is SATIN's SCR_EL3.IRQ=0 interrupt routing.
	NonPreemptive = trustzone.NonPreemptive
	// Preemptive is the OP-TEE-style routing an interrupt flood exploits.
	Preemptive = trustzone.Preemptive
)

// DefaultConfig returns the paper's experimental SATIN configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// Re-exported fault-injection types. A FaultPlan describes deterministic
// hardware-timing perturbations — rate jitter, DVFS steps, core hotplug,
// interrupt delay/drop, world-switch spikes — that compose over a scenario
// via WithFaultPlan. The empty plan installs nothing and a run stays
// byte-identical to an unperturbed one.
type (
	// FaultPlan describes what to inject; see faultinject.Plan.
	FaultPlan = faultinject.Plan
	// FaultDVFSStep is one scheduled frequency change.
	FaultDVFSStep = faultinject.DVFSStep
	// FaultHotplugEvent is one scheduled core offline/online transition.
	FaultHotplugEvent = faultinject.HotplugEvent
	// FaultIRQ perturbs interrupt delivery at the GIC.
	FaultIRQ = faultinject.IRQFaults
	// FaultSwitch adds world-switch entry-latency spikes.
	FaultSwitch = faultinject.SwitchFaults
	// FaultInjector is an installed plan; Scenario.Faults returns it.
	FaultInjector = faultinject.Injector
)

// ParseFaultPlan builds a FaultPlan from the `-faults` spec grammar
// (e.g. "scale:1.5" or "jitter:0.2;dvfs:at=30s,factor=0.5;hotplug:core=5,off=1m,on=2m").
func ParseFaultPlan(spec string) (FaultPlan, error) { return faultinject.ParsePlan(spec) }

// ScaledFaultPlan maps one perturbation magnitude to a plan, the knob the
// sensitivity sweeps turn; magnitude 0 is the empty plan.
func ScaledFaultPlan(mag float64) FaultPlan { return faultinject.ScaledPlan(mag) }

// Re-exported observability types. Every Scenario carries a live event bus
// and a metrics registry (disable with WithObservability(false)): components
// publish trace events as they happen and keep named counters, gauges, and
// fixed-bucket histograms. Everything is driven by virtual time, so a
// fixed-seed run's bus stream and metrics snapshot are byte-identical across
// runs and worker counts.
type (
	// Bus is the live event bus; Subscribe receives every trace event as
	// it is published.
	Bus = obs.Bus
	// MetricsSnapshot is a point-in-time copy of every metric, sorted by
	// name.
	MetricsSnapshot = obs.Snapshot
	// MetricRow is one metric in a snapshot.
	MetricRow = obs.Row
	// MetricBucket is one histogram bucket in a snapshot row.
	MetricBucket = obs.Bucket
	// StreamSink writes each published event to a writer as it happens
	// (the engine behind `satin-sim -trace-out`).
	StreamSink = obs.StreamSink
	// ExportFormat selects a streaming export encoding.
	ExportFormat = obs.Format
)

// Streaming export formats.
const (
	// ExportJSONL writes one JSON object per event per line.
	ExportJSONL = obs.JSONL
	// ExportCSV writes a header then one row per event.
	ExportCSV = obs.CSV
)

// NewStreamSink builds a streaming event sink over w; subscribe its OnEvent
// to a scenario's Bus, then Flush when the run ends.
func NewStreamSink(w io.Writer, format ExportFormat) (*StreamSink, error) {
	return obs.NewStreamSink(w, format)
}

// Re-exported profiling types. WithProfiling(true) attaches a causal span
// profiler: world switches, secure dispatches, introspection rounds,
// per-chunk hash walks, and evader evasion windows become typed intervals
// of virtual time with parent/child causality links, assembled
// deterministically as the run executes. The profiler never publishes to
// the bus, so attaching it cannot change a run's event stream; detached
// (the default), the emit points cost one nil check each.
type (
	// Profiler is the span collector; Scenario.Profiler returns it.
	Profiler = profile.Profiler
	// ProfileSpan is one typed interval of virtual time.
	ProfileSpan = profile.Span
	// ProfileSpanKind classifies a span.
	ProfileSpanKind = profile.SpanKind
	// ProfileSummary is the derived per-core attribution view; summaries
	// from sweep seeds merge deterministically via MergeProfiles.
	ProfileSummary = profile.Summary
	// TraceDiffReport is the outcome of aligning two trace exports.
	TraceDiffReport = trace.DiffReport
)

// MergeProfiles folds per-seed profile summaries into one, in the order
// given (pass them seed-ordered for deterministic output).
func MergeProfiles(sums []ProfileSummary) ProfileSummary { return profile.Merge(sums) }

// DiffTraces aligns two exported event streams by (kind, core, area) and
// reports first divergence plus per-group latency deltas — the regression
// gate behind `satin-sim -diff` and tools/tracediff.
func DiffTraces(a, b []TimelineEvent) TraceDiffReport { return trace.Diff(a, b) }

// CheckTraceOrdered verifies a stream's timestamps are non-decreasing, as
// any live export must be; `satin-sim -lint-trace` applies it after parsing.
func CheckTraceOrdered(events []TimelineEvent) error { return trace.CheckOrdered(events) }

// ValidateChromeTrace parses r as Chrome trace_event JSON and checks the
// invariants Perfetto's importer relies on (structure, required fields,
// per-track span nesting). It returns the number of events checked.
func ValidateChromeTrace(r io.Reader) (int, error) { return profile.ValidateChromeTrace(r) }

// ReadTraceJSONL parses a JSONL event stream written by a StreamSink —
// the validation half of the export, used by `satin-sim -lint-trace` and
// the CI smoke check.
func ReadTraceJSONL(r io.Reader) ([]TimelineEvent, error) { return obs.ReadJSONL(r) }

// Multi-seed sweep types. A single Scenario run is one Monte Carlo sample
// of a timing race; a Sweep reruns the same scenario across independent
// seeds on a worker pool and aggregates per-seed metrics into
// distributions, merged in seed order so output is byte-identical for any
// worker count.
type (
	// Sweep is the deterministic aggregate of a multi-seed run.
	Sweep = runner.Sweep
	// SweepMetrics is one seed's named measurements, in report order.
	SweepMetrics = runner.Metrics
	// SweepSample is one named measurement.
	SweepSample = runner.Sample
	// SweepFailure records a seed whose trial errored or panicked.
	SweepFailure = runner.Failure
)

// RunSeeds runs trial for seeds baseSeed..baseSeed+seeds-1 across up to
// `workers` goroutines (0 means GOMAXPROCS) and aggregates the per-seed
// metrics. Each trial typically builds its own Scenario from its seed —
// scenarios are single-threaded internally, so trials are embarrassingly
// parallel. A trial that errors or panics becomes a Failure in the sweep
// rather than aborting it.
//
//	sw, err := satin.RunSeeds("detection", 1, 32, 0, func(seed uint64) (satin.SweepMetrics, error) {
//	    sc, err := satin.NewScenario(satin.WithSeed(seed), ...)
//	    if err != nil { return nil, err }
//	    sc.RunToCompletion()
//	    return satin.SweepMetrics{}.Add("alarms", float64(len(sc.SATIN().Alarms()))), nil
//	})
func RunSeeds(name string, baseSeed uint64, seeds, workers int, trial func(seed uint64) (SweepMetrics, error)) (*Sweep, error) {
	return RunSeedsObserved(context.Background(), name, baseSeed, seeds, workers, nil, trial)
}

// SweepProgress observes trial completions live: done/total counts, the
// finished trial's index (its seed is baseSeed+index), wall-clock duration,
// and error. Notices arrive in completion order, which depends on
// scheduling — route them to stderr or a TUI, never into results.
type SweepProgress = runner.Progress

// RunSeedsObserved is RunSeeds with a context and a live progress observer
// (either may be nil/background).
func RunSeedsObserved(ctx context.Context, name string, baseSeed uint64, seeds, workers int, progress SweepProgress, trial func(seed uint64) (SweepMetrics, error)) (*Sweep, error) {
	return runner.RunSweepObserved(ctx, name, baseSeed, seeds, workers, progress,
		func(_ context.Context, seed uint64) (runner.Metrics, error) {
			return trial(seed)
		})
}

// DefaultProberSleep is the paper's Tsleep (2e-4 s).
const DefaultProberSleep = attack.DefaultProberSleep

// DefaultThreshold is the paper's operational probing threshold (1.8e-3 s).
const DefaultThreshold = 1800 * time.Microsecond

// Scenario is a fully assembled testbed: platform, monitor, kernel image,
// rich OS, and optionally SATIN, a baseline checker, and an evader.
type Scenario struct {
	seed    uint64
	engine  *simclock.Engine
	plat    *hw.Platform
	image   *mem.Image
	monitor *trustzone.Monitor
	os      *richos.OS
	checker *introspect.Checker

	satin      *core.SATIN
	baseline   *introspect.Baseline
	rootkit    *attack.Rootkit
	fastEvader *attack.FastEvader
	evader     *attack.Evader
	guard      *syncguard.Guard
	flood      *attack.InterruptFlood
	injector   *faultinject.Injector

	bus      *obs.Bus
	reg      *obs.Registry
	timeline *trace.Timeline
	prof     *profile.Profiler
}

// Option configures a Scenario.
type Option func(*options)

// evaderKind selects which evader (if any) a scenario installs.
type evaderKind int

const (
	evaderNone evaderKind = iota
	evaderFast
	evaderThread
)

type options struct {
	seed          uint64
	satinCfg      *core.Config
	baselineCfg   *introspect.BaselineConfig
	evader        evaderKind
	evaderSleep   time.Duration
	evaderThresh  time.Duration
	rootkitTarget *uint64
	guard         bool
	guardBypass   bool
	routing       trustzone.RoutingMode
	floodRate     float64
	noObs         bool
	noHashCache   bool
	profiling     bool
	faults        faultinject.Plan
}

// WithSeed sets the root seed for every deterministic stream.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithSATIN installs SATIN with the given configuration and starts it at
// boot.
func WithSATIN(cfg Config) Option { return func(o *options) { o.satinCfg = &cfg } }

// WithBaseline installs the pre-SATIN periodic checker instead of SATIN.
func WithBaseline(cfg BaselineConfig) Option { return func(o *options) { o.baselineCfg = &cfg } }

// WithFastEvader installs the GETTID rootkit driven by the calibrated
// fast evader. Zero durations select the paper's defaults.
func WithFastEvader(sleep, threshold time.Duration) Option {
	return func(o *options) {
		o.evader = evaderFast
		o.evaderSleep = sleep
		o.evaderThresh = threshold
	}
}

// WithThreadEvader installs the GETTID rootkit driven by the full
// thread-level evader (KProber-II probing threads on every core).
func WithThreadEvader(threshold time.Duration) Option {
	return func(o *options) {
		o.evader = evaderThread
		o.evaderThresh = threshold
	}
}

// WithProberSleep overrides the evader's probing interval Tsleep (zero keeps
// DefaultProberSleep). WithFastEvader takes the sleep directly; this option
// exists so the thread-level evader's sleep is reachable too — scenario
// specs set it for either kind.
func WithProberSleep(sleep time.Duration) Option {
	return func(o *options) { o.evaderSleep = sleep }
}

// WithRootkitAt plants the evader's 8-byte trace at an arbitrary
// static-kernel address instead of the GETTID table entry.
func WithRootkitAt(addr uint64) Option {
	return func(o *options) { o.rootkitTarget = &addr }
}

// WithSyncGuard installs the §VII-A synchronous guard at boot. With bypass
// false, any evader in the scenario fails to install its rootkit and
// NewScenario returns that error — the guard working as intended. With
// bypass true, the attacker first runs the write-what-where AP-flip exploit
// against its target pages, so the hijack lands silently (§VII-A's story).
func WithSyncGuard(bypass bool) Option {
	return func(o *options) {
		o.guard = true
		o.guardBypass = bypass
	}
}

// WithRouting selects the §II-B NS-interrupt routing mode. SATIN's design
// requires NonPreemptive (the default); passing WithRouting(NonPreemptive)
// explicitly is identical to omitting the option. An unknown mode —
// including the zero RoutingMode — fails NewScenario rather than being
// silently ignored.
func WithRouting(mode RoutingMode) Option {
	return func(o *options) { o.routing = mode }
}

// WithObservability enables or disables the scenario's event bus, timeline,
// and metrics registry. It is enabled by default; disable it to measure the
// zero-overhead path (publishes early-return, metric handles are nil
// no-ops), in which case Bus returns nil, Timeline stays empty, and Metrics
// returns an empty snapshot.
func WithObservability(enabled bool) Option {
	return func(o *options) { o.noObs = !enabled }
}

// WithProfiling attaches the causal span profiler to every component in
// the scenario (monitor, checker, SATIN, evader). It is off by default —
// the detached emit points cost one nil check each, so profiling is purely
// opt-in. Attaching it never changes the run: spans are assembled on the
// side and the profiler only *subscribes* to the bus (for instants and
// detection latency), never publishes. Retrieve results via
// Scenario.Profiler().
func WithProfiling(enabled bool) Option {
	return func(o *options) { o.profiling = enabled }
}

// WithHashCache enables or disables the checker's incremental hash cache.
// It is enabled by default and never changes results — cached and uncached
// checks return bit-identical sums at identical virtual instants (the cache
// is validated by per-page write generations at the moment each chunk would
// have been read). Disabling it forces every chunk to be re-hashed, which is
// only useful for measuring the cache's speedup or cross-checking its
// transparency, as the golden regression tests do.
func WithHashCache(enabled bool) Option {
	return func(o *options) { o.noHashCache = !enabled }
}

// WithFlood starts the §V-B SGI interrupt flood at boot, at the given
// per-core rate (interrupts/second).
func WithFlood(rate float64) Option {
	return func(o *options) { o.floodRate = rate }
}

// WithFaultPlan installs the deterministic fault-injection plan at boot:
// per-core rate jitter is applied immediately, DVFS and hotplug events are
// scheduled at their virtual times, and interrupt/world-switch perturbation
// hooks are wired in. Every injected fault appears as a "fault" trace event
// and in the fault.* metrics. The empty plan installs nothing — the run is
// byte-identical to one built without this option.
func WithFaultPlan(plan FaultPlan) Option {
	return func(o *options) { o.faults = plan }
}

// NewScenario assembles and boots a testbed.
func NewScenario(opts ...Option) (*Scenario, error) {
	o := options{
		seed:         1,
		evaderSleep:  DefaultProberSleep,
		evaderThresh: DefaultThreshold,
		routing:      trustzone.NonPreemptive,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.evaderSleep == 0 {
		o.evaderSleep = DefaultProberSleep
	}
	if o.evaderThresh == 0 {
		o.evaderThresh = DefaultThreshold
	}
	if o.satinCfg != nil && o.baselineCfg != nil {
		return nil, fmt.Errorf("satin: a scenario runs either SATIN or the baseline, not both")
	}
	switch o.routing {
	case trustzone.NonPreemptive, trustzone.Preemptive:
	default:
		return nil, fmt.Errorf("satin: unknown routing mode %v", o.routing)
	}

	engine := simclock.NewEngine()
	plat, err := hw.NewJunoR1(engine)
	if err != nil {
		return nil, err
	}
	image, err := mem.NewJunoImage(o.seed)
	if err != nil {
		return nil, err
	}
	osim, err := richos.NewOS(plat, image, richos.Config{Seed: o.seed + 1})
	if err != nil {
		return nil, err
	}
	checker, err := introspect.NewChecker(image, plat.Perf(), o.seed+2, introspect.HashDjb2, 0)
	if err != nil {
		return nil, err
	}
	checker.SetHashCache(!o.noHashCache)
	sc := &Scenario{
		seed:     o.seed,
		engine:   engine,
		plat:     plat,
		image:    image,
		monitor:  trustzone.NewMonitor(plat, o.seed+3),
		os:       osim,
		checker:  checker,
		timeline: &trace.Timeline{},
	}
	sc.monitor.SetRouting(o.routing)
	if !o.noObs {
		sc.bus = obs.NewBus()
		sc.reg = obs.NewRegistry()
		sc.bus.Subscribe(sc.timeline.Observe)
		sc.monitor.Observe(sc.bus, sc.reg)
		sc.checker.Observe(sc.reg)
	}
	if o.guard {
		sc.guard = syncguard.New(osim)
		if err := sc.guard.Install(); err != nil {
			return nil, err
		}
	}

	// Attack side first (the persistent threat predates the defense).
	if o.evader != evaderNone {
		if o.rootkitTarget != nil {
			sc.rootkit = attack.NewRootkitAt(osim, image, *o.rootkitTarget)
		} else {
			sc.rootkit = attack.NewRootkit(osim, image)
		}
		if o.guard && o.guardBypass {
			if _, err := syncguard.APFlipExploit(image, sc.rootkit.TargetAddr(), attack.TraceBytes); err != nil {
				return nil, err
			}
			// The flipped PTE is now part of the attack surface; golden
			// hashes were captured before, so area 17 will flag it.
		}
		switch o.evader {
		case evaderFast:
			fe, err := attack.NewFastEvader(plat, image, sc.rootkit, o.evaderSleep, o.evaderThresh, o.seed+4)
			if err != nil {
				return nil, err
			}
			fe.Observe(sc.bus, sc.reg)
			if err := fe.Start(); err != nil {
				return nil, err
			}
			sc.fastEvader = fe
		case evaderThread:
			buf, err := attack.NewReportBuffer(plat.NumCores(), attack.JunoCrossCoreNoise(), o.seed+5)
			if err != nil {
				return nil, err
			}
			ev, err := attack.NewEvader(osim, sc.rootkit, buf, attack.EvaderConfig{
				Prober: attack.ProberConfig{Kind: attack.KProberII, Sleep: o.evaderSleep, Threshold: o.evaderThresh},
				Seed:   o.seed + 6,
			})
			if err != nil {
				return nil, err
			}
			ev.Observe(sc.bus, sc.reg)
			if err := ev.Start(); err != nil {
				return nil, err
			}
			sc.evader = ev
		}
	}

	// Defense side.
	if o.satinCfg != nil {
		s, err := core.NewJuno(plat, sc.monitor, image, checker, *o.satinCfg)
		if err != nil {
			return nil, err
		}
		s.Observe(sc.bus, sc.reg)
		if err := s.Start(); err != nil {
			return nil, err
		}
		sc.satin = s
	}
	if o.baselineCfg != nil {
		b, err := introspect.NewBaseline(plat, sc.monitor, checker, image, o.seed+7, *o.baselineCfg)
		if err != nil {
			return nil, err
		}
		b.Observe(sc.bus, sc.reg)
		if err := b.Start(); err != nil {
			return nil, err
		}
		sc.baseline = b
	}
	if o.floodRate > 0 {
		fl, err := attack.NewInterruptFlood(plat, o.floodRate, nil)
		if err != nil {
			return nil, err
		}
		if err := fl.Start(); err != nil {
			return nil, err
		}
		sc.flood = fl
	}
	// Fault injection composes last, over the fully assembled testbed, so
	// hotplug re-routing finds SATIN already subscribed and jitter rescales
	// the final calibrated rates. Skipped entirely for the empty plan.
	if !o.faults.Empty() {
		inj, err := faultinject.Install(o.faults, plat, sc.monitor, o.seed+8, sc.bus, sc.reg)
		if err != nil {
			return nil, err
		}
		sc.injector = inj
	}
	// Profiling attaches last, over the fully assembled testbed: every
	// component gets the same handle, and the profiler subscribes to the bus
	// (never publishes), so the event stream and goldens are untouched.
	if o.profiling {
		p := profile.NewProfiler(plat.NumCores())
		p.Observe(sc.reg)
		if sc.bus != nil {
			sc.bus.Subscribe(p.OnEvent)
		}
		sc.monitor.SetProfiler(p)
		sc.checker.SetProfiler(p)
		if sc.satin != nil {
			sc.satin.SetProfiler(p)
		}
		if sc.fastEvader != nil {
			sc.fastEvader.SetProfiler(p)
		}
		if sc.evader != nil {
			sc.evader.SetProfiler(p)
		}
		sc.prof = p
	}
	return sc, nil
}

// Run advances virtual time by d.
func (s *Scenario) Run(d time.Duration) { s.engine.RunFor(d) }

// RunToCompletion drains every pending event. Use it only with bounded
// configurations (MaxRounds on SATIN/baseline) and WITHOUT the thread-level
// evader or workloads: perpetual threads schedule events forever, so a
// scenario containing them never drains — drive those with Run instead.
func (s *Scenario) RunToCompletion() { s.engine.Run() }

// Now reports the current virtual time since boot.
func (s *Scenario) Now() time.Duration { return s.engine.Now().Duration() }

// Engine returns the discrete-event engine.
func (s *Scenario) Engine() *Engine { return s.engine }

// Platform returns the simulated board.
func (s *Scenario) Platform() *Platform { return s.plat }

// Image returns the kernel image.
func (s *Scenario) Image() *Image { return s.image }

// OS returns the rich OS.
func (s *Scenario) OS() *OS { return s.os }

// Monitor returns the secure monitor.
func (s *Scenario) Monitor() *Monitor { return s.monitor }

// Checker returns the secure-world memory checker, for inspecting the
// incremental hash cache (CacheStats, HashCacheEnabled) and the hash kind.
func (s *Scenario) Checker() *Checker { return s.checker }

// SATIN returns the SATIN service, or nil if not installed.
func (s *Scenario) SATIN() *SATIN { return s.satin }

// Baseline returns the baseline checker, or nil if not installed.
func (s *Scenario) Baseline() *Baseline { return s.baseline }

// Rootkit returns the rootkit, or nil if no evader was installed.
func (s *Scenario) Rootkit() *Rootkit { return s.rootkit }

// FastEvader returns the fast evader, or nil.
func (s *Scenario) FastEvader() *FastEvader { return s.fastEvader }

// ThreadEvader returns the thread-level evader, or nil.
func (s *Scenario) ThreadEvader() *Evader { return s.evader }

// Guard returns the synchronous guard, or nil.
func (s *Scenario) Guard() *SyncGuard { return s.guard }

// Flood returns the interrupt flood, or nil.
func (s *Scenario) Flood() *InterruptFlood { return s.flood }

// Faults returns the installed fault injector, or nil when the scenario was
// built without a fault plan (or with an empty one).
func (s *Scenario) Faults() *FaultInjector { return s.injector }

// Profiler returns the causal span profiler, or nil when the scenario was
// built without WithProfiling(true). A nil Profiler is still a valid
// zero-cost handle: every method on it is a no-op.
func (s *Scenario) Profiler() *Profiler { return s.prof }

// Bus returns the live event bus, or nil when the scenario was built with
// WithObservability(false). Subscribe before driving the scenario to stream
// every trace event as it happens:
//
//	sink, _ := satin.NewStreamSink(f, satin.ExportJSONL)
//	sc.Bus().Subscribe(sink.OnEvent)
func (s *Scenario) Bus() *Bus { return s.bus }

// Timeline returns the run's time-ordered event stream — world entries,
// SATIN rounds and alarms, baseline outcomes, and evader reactions. The
// timeline is filled live by a bus subscription installed at construction,
// so it can be inspected mid-run; it is empty when the scenario was built
// with WithObservability(false).
func (s *Scenario) Timeline() *trace.Timeline { return s.timeline }

// Metrics snapshots every metric the run has accumulated: counters, gauges,
// and histograms from the monitor (world-switch latency), SATIN (round
// durations per area, alarms, queue depth), the checker (bytes hashed and
// copied), the baseline, any evader, plus the engine's own gauges
// (virtual time, events dispatched, pending events), refreshed at snapshot
// time. Returns an empty snapshot under WithObservability(false).
func (s *Scenario) Metrics() MetricsSnapshot {
	if s.reg == nil {
		return MetricsSnapshot{}
	}
	s.reg.Gauge("engine.virtual_time_ns").Set(int64(s.engine.Now()))
	s.reg.Gauge("engine.events_dispatched").Set(int64(s.engine.Dispatched()))
	s.reg.Gauge("engine.pending_events").Set(int64(s.engine.Pending()))
	return s.reg.Snapshot()
}

// Report is a Scenario's end-of-run summary: what the defense and the
// attacker each did, the detection verdict, and the final metrics snapshot.
// The cmds and examples render their output from it.
type Report struct {
	// Seed is the scenario's root seed.
	Seed uint64
	// Elapsed is the virtual time since boot.
	Elapsed time.Duration

	// SATINRounds, FullScans, and Alarms summarize SATIN (zero when the
	// scenario runs the baseline or no defense).
	SATINRounds int
	FullScans   int
	Alarms      int

	// BaselineRounds and BaselineClean summarize the baseline checker.
	BaselineRounds int
	BaselineClean  int

	// Evader reaction counts, from whichever evader is installed.
	Suspects   int
	Hides      int
	CoreBacks  int
	Reinstalls int

	// RootkitState names the rootkit's final state ("" without an evader).
	RootkitState string

	// Detected reports the defense's verdict: SATIN raised at least one
	// alarm, or the baseline saw at least one dirty round.
	Detected bool

	// Metrics is the end-of-run snapshot (empty when observability is off).
	Metrics MetricsSnapshot
}

// Report summarizes the run so far.
func (s *Scenario) Report() Report {
	r := Report{Seed: s.seed, Elapsed: s.Now(), Metrics: s.Metrics()}
	if s.satin != nil {
		r.SATINRounds = len(s.satin.Rounds())
		r.FullScans = s.satin.FullScans()
		r.Alarms = len(s.satin.Alarms())
	}
	if s.baseline != nil {
		for _, out := range s.baseline.Outcomes() {
			r.BaselineRounds++
			if out.Clean {
				r.BaselineClean++
			}
		}
	}
	r.Detected = r.Alarms > 0 || r.BaselineRounds > r.BaselineClean
	var evaderEvents []attack.Event
	if s.fastEvader != nil {
		evaderEvents = s.fastEvader.Events()
	} else if s.evader != nil {
		evaderEvents = s.evader.Events()
	}
	for _, e := range evaderEvents {
		switch e.Kind {
		case attack.EventSuspect:
			r.Suspects++
		case attack.EventHidden:
			r.Hides++
		case attack.EventCoreBack:
			r.CoreBacks++
		case attack.EventReinstalled:
			r.Reinstalls++
		}
	}
	if s.rootkit != nil {
		r.RootkitState = s.rootkit.State().String()
	}
	return r
}
