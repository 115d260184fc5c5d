package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"satin/internal/campaign"
	"satin/internal/runner"
	"satin/internal/spec"
)

// pinnedDigest is the SHA-256 of each workload's checked output at the
// default seed and size: the rendered tables for paper-quick, the finalized
// result bytes for the campaign workloads. The simulator is deterministic
// and its goldens never move, so any difference is an output error.
var pinnedDigest = map[string]string{
	paperW:  "8aa498dfb122fe796b5ae488790e6cf0cacda89438c64cfcdb7a7ad5761f1b02",
	gridW:   "5f8acf2207f57a380194ccead7852ac9597c985cfcdebf62640ddff6e27934df",
	servedW: "5cbed09de5f86ed66ddda1e9294a2946321794da5bad04520a251825eb779c67",
}

func digestOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// checkResult checks a finalized campaign result file and returns how many
// cells count as failed, why, and the file's digest. A file that does not
// match the pinned digest, fails campaign.MergeCheck, is not finalized or
// does not hold every cell in order fails every cell. Otherwise a cell
// fails when its trial errored or when a cell without an evader raised an
// alarm.
func checkResult(data []byte, in campaignInput) (failed int, notes []string, digest string) {
	digest = digestOf(data)
	all := func(format string, args ...any) (int, []string, string) {
		return len(in.cells), []string{fmt.Sprintf(format, args...)}, digest
	}
	if in.pin != "" && digest != in.pin {
		return all("result digest %s differs from the pinned default-seed digest %s", digest, in.pin)
	}
	if err := campaign.MergeCheck(data, in.specBytes); err != nil {
		return all("merge check: %v", err)
	}
	_, results, finalized, err := campaign.ReadFile(data)
	if err != nil {
		return all("reading result: %v", err)
	}
	if !finalized || len(results) != len(in.cells) {
		return all("result holds %d of %d cells (finalized %v)", len(results), len(in.cells), finalized)
	}
	for i, r := range results {
		if r.Index != i || r.Seed != in.cells[i].Seed {
			return all("record %d is cell %d seed %d", i, r.Index, r.Seed)
		}
		switch {
		case r.Failed():
			failed++
			notes = append(notes, fmt.Sprintf("cell %d failed: %s", i, r.Err))
		case in.cells[i].Scenario.Evader.Kind == spec.EvaderNone && sample(r.Metrics, "alarms") != 0:
			failed++
			notes = append(notes, fmt.Sprintf("cell %d has no evader but raised %g alarms", i, sample(r.Metrics, "alarms")))
		}
	}
	return failed, notes, digest
}

// sample returns a named trial metric, or -1 when the trial lacks it.
func sample(m runner.Metrics, name string) float64 {
	for _, s := range m {
		if s.Name == name {
			return s.Value
		}
	}
	return -1
}
