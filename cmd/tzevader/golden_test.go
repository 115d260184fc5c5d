package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestModesGolden pins every mode's stdout at seed 1 byte for byte, so the
// board tzevader assembles cannot drift from the one it was captured on.
func TestModesGolden(t *testing.T) {
	for _, c := range []struct {
		mode string
		args []string
	}{
		{"calibrate", []string{"-observe", "5s"}},
		{"detect", nil},
		{"kprober1", nil},
		{"flood", nil},
	} {
		t.Run(c.mode, func(t *testing.T) {
			var out strings.Builder
			if err := run(append([]string{"-mode", c.mode, "-seed", "1"}, c.args...), &out); err != nil {
				t.Fatal(err)
			}
			golden := c.mode + "_seed1.golden"
			want, err := os.ReadFile(filepath.Join("testdata", golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("output differs from testdata/%s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
			}
		})
	}
}
