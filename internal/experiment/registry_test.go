package experiment_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"satin/internal/experiment"
)

// TestRegistryNames: names are unique, non-empty, and Lookup agrees with
// the presentation order Registry returns.
func TestRegistryNames(t *testing.T) {
	defs := experiment.Registry()
	if len(defs) == 0 {
		t.Fatal("empty registry")
	}
	names := experiment.Names()
	if len(names) != len(defs) {
		t.Fatalf("Names() has %d entries, Registry() %d", len(names), len(defs))
	}
	seen := map[string]bool{}
	for i, d := range defs {
		if d.Name == "" {
			t.Fatalf("registry entry %d has no name", i)
		}
		if seen[d.Name] {
			t.Fatalf("registry repeats %q", d.Name)
		}
		seen[d.Name] = true
		if names[i] != d.Name {
			t.Fatalf("Names()[%d] = %q, want %q", i, names[i], d.Name)
		}
		if d.Run == nil {
			t.Fatalf("experiment %q has no single-seed form", d.Name)
		}
		got, ok := experiment.Lookup(d.Name)
		if !ok || got.Name != d.Name {
			t.Fatalf("Lookup(%q) = %v, %v", d.Name, got.Name, ok)
		}
	}
	if _, ok := experiment.Lookup("not-an-experiment"); ok {
		t.Fatal("Lookup accepted an unknown name")
	}
}

// TestRegistryTrialsHaveSweepLabels: every experiment with a per-seed
// Trial names its multi-seed form (sweep name and benchtables section
// title), and an experiment without a Trial carries neither label.
func TestRegistryTrialsHaveSweepLabels(t *testing.T) {
	for _, d := range experiment.Registry() {
		if d.Trial != nil && (d.SweepName == "" || d.SweepTitle == "") {
			t.Errorf("experiment %q has a trial but sweep name %q, title %q", d.Name, d.SweepName, d.SweepTitle)
		}
		if d.Trial == nil && (d.SweepName != "" || d.SweepTitle != "") {
			t.Errorf("experiment %q has no trial but sweep name %q, title %q", d.Name, d.SweepName, d.SweepTitle)
		}
	}
}

// TestRegistryRunRendersSection: registry dispatch prints the experiment's
// section header — the layout benchtables' full-suite output is made of.
func TestRegistryRunRendersSection(t *testing.T) {
	def, ok := experiment.Lookup("recover")
	if !ok {
		t.Fatal("recover not registered")
	}
	var buf bytes.Buffer
	if err := def.Run(&buf, experiment.RunConfig{Seed: 1}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "=== Tns_recover") {
		t.Fatalf("output missing section header:\n%s", out)
	}
	if !strings.Contains(out, "A53") {
		t.Fatalf("output missing the rendered table:\n%s", out)
	}
}

// TestRegistryTrialMatchesSweep: one seed through the trial form produces
// exactly the metrics the sweep aggregates for that seed, under the
// registry's sweep name.
func TestRegistryTrialMatchesSweep(t *testing.T) {
	def, ok := experiment.Lookup("race")
	if !ok {
		t.Fatal("race not registered")
	}
	metrics, err := def.Trial(context.Background(), 1)
	if err != nil {
		t.Fatalf("Trial: %v", err)
	}
	sw, err := experiment.Sweep(context.Background(), def, 1, experiment.Options{Seeds: 1, Workers: 1})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if sw.Name != def.SweepName {
		t.Errorf("sweep name %q, want %q", sw.Name, def.SweepName)
	}
	var csv bytes.Buffer
	if err := sw.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, m := range metrics {
		if !strings.Contains(csv.String(), m.Name) {
			t.Errorf("sweep CSV missing trial metric %q", m.Name)
		}
		if got := sw.Samples(m.Name); len(got) != 1 || got[0] != m.Value {
			t.Errorf("metric %q: sweep = %v, trial = %v", m.Name, got, m.Value)
		}
	}
}
