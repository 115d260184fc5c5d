package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunChromeTraceAndProfileOut: the profiling flags attach the profiler,
// write both artifacts, and the chrome trace passes the CLI's own linter.
func TestRunChromeTraceAndProfileOut(t *testing.T) {
	dir := t.TempDir()
	chrome := filepath.Join(dir, "spans.json")
	profile := filepath.Join(dir, "profile.txt")
	var out strings.Builder
	if err := run([]string{"-scans", "1", "-tp", "1s", "-chrome-trace", chrome, "-profile-out", profile}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "chrome trace:") || !strings.Contains(got, "spans written to") {
		t.Errorf("missing chrome trace confirmation:\n%s", got)
	}
	data, err := os.ReadFile(profile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Per-core virtual-time attribution") {
		t.Errorf("profile file lacks attribution table:\n%s", data)
	}
	var lintOut strings.Builder
	if err := run([]string{"-lint-chrome", chrome}, &lintOut); err != nil {
		t.Fatalf("-lint-chrome rejected our own export: %v", err)
	}
	if !strings.Contains(lintOut.String(), "chrome trace ok:") {
		t.Errorf("missing lint confirmation:\n%s", lintOut.String())
	}
}

// TestRunLintChromeRejectsGarbage: malformed JSON fails with a non-nil
// error (non-zero exit in main).
func TestRunLintChromeRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"traceEvents":[{"name":"x","ph":"Q"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-lint-chrome", path}, &out); err == nil {
		t.Fatal("-lint-chrome accepted a malformed trace")
	}
}

// TestRunDiffSelfIsIdentical: a trace diffed against itself passes with a
// zero budget; against a different seed's trace it fails.
func TestRunDiffSelfIsIdentical(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	var out strings.Builder
	if err := run([]string{"-scans", "1", "-tp", "1s", "-trace-out", a}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-seed", "2", "-scans", "1", "-tp", "1s", "-trace-out", b}, &out); err != nil {
		t.Fatal(err)
	}

	var diffOut strings.Builder
	if err := run([]string{"-diff", a, a}, &diffOut); err != nil {
		t.Fatalf("self-diff failed: %v\n%s", err, diffOut.String())
	}
	if !strings.Contains(diffOut.String(), "zero divergence") {
		t.Errorf("self-diff not reported identical:\n%s", diffOut.String())
	}

	diffOut.Reset()
	if err := run([]string{"-diff", a, b}, &diffOut); err == nil {
		t.Fatal("cross-seed diff passed a zero budget")
	}
	if !strings.Contains(diffOut.String(), "FAIL") {
		t.Errorf("cross-seed diff missing FAIL verdict:\n%s", diffOut.String())
	}
}

// TestRunDiffNeedsTwoFiles: -diff without the positional second trace is a
// usage error.
func TestRunDiffNeedsTwoFiles(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-diff", "a.jsonl"}, &out); err == nil {
		t.Fatal("-diff with one file accepted")
	}
}

// shiftedTraces writes a two-event trace and a copy whose second event is
// 500ns late, returning both paths.
func shiftedTraces(t *testing.T) (a, b string) {
	t.Helper()
	dir := t.TempDir()
	a, b = filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	const first = `{"at_ns":1000,"kind":"round","core":0,"area":1}` + "\n"
	if err := os.WriteFile(a, []byte(first+`{"at_ns":2000,"kind":"round","core":0,"area":2}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte(first+`{"at_ns":2500,"kind":"round","core":0,"area":2}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestRunDiffBudget: a 500ns shift fails the exact comparison and passes
// -diff-budget 1us with a PASS verdict.
func TestRunDiffBudget(t *testing.T) {
	a, b := shiftedTraces(t)
	var out strings.Builder
	if err := run([]string{"-diff", a, b}, &out); err == nil {
		t.Fatal("500ns shift passed a zero budget")
	}
	out.Reset()
	if err := run([]string{"-diff", a, "-diff-budget", "1us", b}, &out); err != nil {
		t.Fatalf("500ns shift failed a 1µs budget: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Errorf("missing PASS verdict:\n%s", out.String())
	}
}

// TestRunDiffHandWrittenIdentical: a hand-written trace diffed against
// itself reports zero divergence, independent of the simulator's output.
func TestRunDiffHandWrittenIdentical(t *testing.T) {
	a, _ := shiftedTraces(t)
	var out strings.Builder
	if err := run([]string{"-diff", a, a}, &out); err != nil {
		t.Fatalf("self-diff failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "zero divergence") {
		t.Errorf("missing zero-divergence line:\n%s", out.String())
	}
}

// TestRunDiffMissingSecondFile: a second trace that does not exist is an
// error, not an empty stream.
func TestRunDiffMissingSecondFile(t *testing.T) {
	a, _ := shiftedTraces(t)
	var out strings.Builder
	if err := run([]string{"-diff", a, filepath.Join(t.TempDir(), "missing.jsonl")}, &out); err == nil {
		t.Fatal("missing second trace accepted")
	}
}

// TestRunLintTraceChecksOrder: -lint-trace must reject a stream whose
// timestamps regress.
func TestRunLintTraceChecksOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unordered.jsonl")
	lines := `{"at_ns":2000,"kind":"round","core":0,"area":1}
{"at_ns":1000,"kind":"round","core":0,"area":2}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-lint-trace", path}, &out)
	if err == nil {
		t.Fatal("-lint-trace accepted out-of-order timestamps")
	}
	if !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("error does not mention ordering: %v", err)
	}
}
