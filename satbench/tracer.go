package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"satin/internal/profile"
	"satin/internal/telemetry"
)

// tracer records wall-clock spans around the benchmark's calls into each
// layer. Spans are kept in memory and written once, through the module's
// own Chrome trace encoder. A nil *tracer records nothing, so untraced runs
// pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []telemetry.Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span on the (process, track) track.
func (t *tracer) add(process, track, name, detail string, begin, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, telemetry.Span{
		Process: process, Thread: track, Name: name, Detail: detail,
		Begin: begin.Sub(t.t0), End: end.Sub(t.t0),
	})
	t.mu.Unlock()
}

// do runs fn inside a span and returns its wall time.
func (t *tracer) do(process, track, name string, fn func()) time.Duration {
	begin := time.Now()
	fn()
	end := time.Now()
	t.add(process, track, name, "", begin, end)
	return end.Sub(begin)
}

// laned returns the spans with every track split into lanes whose spans
// nest by containment, the invariant Chrome trace viewers need. Spans of
// one track overlap only when calls on it ran concurrently (two HTTP
// requests of one client); those move to "track #2" and so on.
func laned(spans []telemetry.Span) []telemetry.Span {
	out := append([]telemetry.Span(nil), spans...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Begin != out[j].Begin {
			return out[i].Begin < out[j].Begin
		}
		return out[i].End > out[j].End
	})
	type key struct{ p, t string }
	lanes := map[key][][]telemetry.Span{} // per track: lane stacks
	for i := range out {
		k := key{out[i].Process, out[i].Thread}
		stacks := lanes[k]
		placed := false
		for l := range stacks {
			st := stacks[l]
			for len(st) > 0 && st[len(st)-1].End <= out[i].Begin {
				st = st[:len(st)-1]
			}
			if len(st) == 0 || out[i].End <= st[len(st)-1].End {
				stacks[l] = append(st, out[i])
				if l > 0 {
					out[i].Thread = fmt.Sprintf("%s #%d", k.t, l+1)
				}
				placed = true
				break
			}
			stacks[l] = st
		}
		if !placed {
			stacks = append(stacks, []telemetry.Span{out[i]})
			out[i].Thread = fmt.Sprintf("%s #%d", k.t, len(stacks))
		}
		lanes[k] = stacks
	}
	return out
}

// writeChrome writes the trace to path and validates it with the
// profile package's structural checker.
func (t *tracer) writeChrome(path string) (int, error) {
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, laned(t.spans)); err != nil {
		return 0, err
	}
	n, err := profile.ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return 0, fmt.Errorf("chrome trace: %w", err)
	}
	return n, os.WriteFile(path, buf.Bytes(), 0o644)
}

// selfTimes prints, per span name, the call count, total time and self
// time: a span's duration minus the part its child spans on the same lane
// cover.
func (t *tracer) selfTimes(w io.Writer) {
	spans := laned(t.spans)
	type agg struct {
		calls       int
		total, self time.Duration
	}
	byName := map[string]*agg{}
	type key struct{ p, t string }
	tracks := map[key][]telemetry.Span{}
	for _, s := range spans {
		k := key{s.Process, s.Thread}
		tracks[k] = append(tracks[k], s)
	}
	var grand time.Duration
	for _, ss := range tracks {
		// ss is sorted by (begin asc, end desc), so each span's direct
		// children follow it before any span that starts after its end.
		var stack []int
		self := make([]time.Duration, len(ss))
		for i, s := range ss {
			for len(stack) > 0 && ss[stack[len(stack)-1]].End <= s.Begin {
				stack = stack[:len(stack)-1]
			}
			self[i] = s.End - s.Begin
			if len(stack) > 0 {
				self[stack[len(stack)-1]] -= s.End - s.Begin
			} else {
				grand += s.End - s.Begin
			}
			stack = append(stack, i)
		}
		for i, s := range ss {
			a := byName[s.Name]
			if a == nil {
				a = &agg{}
				byName[s.Name] = a
			}
			a.calls++
			a.total += s.End - s.Begin
			a.self += self[i]
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].self > byName[names[j]].self })
	fmt.Fprintf(w, "per-layer self time (%d spans; self %% of all top-level span time)\n", len(spans))
	fmt.Fprintf(w, "  %-34s %7s %12s %12s %7s\n", "span", "calls", "total ms", "self ms", "self %")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "  %-34s %7d %12.1f %12.1f %6.1f%%\n", n, a.calls, ms(a.total), ms(a.self),
			100*ratio(float64(a.self), float64(grand)))
	}
}
