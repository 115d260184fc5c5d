package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSweepOutputGolden pins the multi-seed sweep path byte for byte: the
// rendered race/evasion/detection tables and the -metrics-out CSV at seed 1,
// two seeds, two workers. The goldens were captured before the per-seed
// dispatch was unified, so any drift in sweep names, section titles or
// per-seed metrics shows up here.
func TestSweepOutputGolden(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "sweep.csv")
	var out strings.Builder
	if err := run([]string{"-only", "race,evasion,detection", "-seeds", "2", "-workers", "2", "-metrics-out", csvPath}, &out); err != nil {
		t.Fatal(err)
	}
	// The golden was rendered with `-metrics-out sweep.csv`.
	gotStdout := strings.ReplaceAll(out.String(), csvPath, "sweep.csv")
	gotCSV, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ got, golden string }{
		{gotStdout, "sweep_seed1.stdout.golden"},
		{string(gotCSV), "sweep_seed1.csv.golden"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if c.got != string(want) {
			t.Errorf("output differs from testdata/%s:\n--- got ---\n%s\n--- want ---\n%s", c.golden, c.got, want)
		}
	}
}
