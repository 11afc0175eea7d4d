package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/verify"
)

func TestSelectExperimentsDefaultIsEverything(t *testing.T) {
	sel, err := selectExperiments("")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 21 || sel[0].Name() != "fig1" || sel[len(sel)-1].Name() != "schedlab" {
		t.Fatalf("default selection wrong: %d experiments", len(sel))
	}
}

func TestSelectExperimentsSubsetKeepsPaperOrder(t *testing.T) {
	sel, err := selectExperiments("fig7, fig1,table1")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range sel {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, ","); got != "fig1,table1,fig7" {
		t.Fatalf("selection = %s, want paper order fig1,table1,fig7", got)
	}
}

// Unknown names must be rejected with the full list of valid names — the
// error the CLI prints before exiting non-zero.
func TestSelectExperimentsRejectsUnknown(t *testing.T) {
	_, err := selectExperiments("fig1,fig99,bogus")
	if err == nil {
		t.Fatal("unknown names accepted")
	}
	msg := err.Error()
	for _, want := range []string{"fig99", "bogus", "valid:", "fig1", "ablations"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

// cli runs the command in-process and captures both streams.
func cli(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestRunUnknownExperimentExitsTwo(t *testing.T) {
	code, _, stderr := cli(t, "-run", "fig99")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown experiments") || !strings.Contains(stderr, "valid:") {
		t.Fatalf("stderr missing the valid-name list: %q", stderr)
	}
}

func TestRunBadFlagExitsTwo(t *testing.T) {
	if code, _, _ := cli(t, "-no-such-flag"); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// A scale the experiments cannot honour is a usage error, not a silent
// full-scale (-1, 0) or minimum-scale (NaN, Inf) run.
func TestRunBadScaleExitsTwo(t *testing.T) {
	for _, scale := range []string{"NaN", "Inf", "-1", "0"} {
		code, stdout, stderr := cli(t, "-run", "fig1", "-scale", scale)
		if code != 2 || !strings.Contains(stderr, "Config.Scale") || stdout != "" {
			t.Errorf("-scale %s: exit %d, stdout %q, stderr %q; want exit 2 naming Config.Scale", scale, code, stdout, stderr)
		}
	}
}

func TestRunTracePrintsSummary(t *testing.T) {
	code, stdout, stderr := cli(t, "-run", "faultanomaly", "-scale", "0.05", "-trace")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "==== faultanomaly") {
		t.Fatalf("experiment table missing from stdout: %q", stdout)
	}
	if !strings.Contains(stdout, "rbvrepro") || !strings.Contains(stdout, "faultanomaly") {
		t.Fatalf("span summary missing from stdout: %q", stdout)
	}
}

// -json - moves the human-readable tables to stderr and leaves stdout a
// clean JSON stream.
func TestRunJSONToStdout(t *testing.T) {
	code, stdout, stderr := cli(t, "-run", "faultanomaly", "-scale", "0.05", "-json", "-")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var rep map[string]any
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("stdout is not clean JSON: %v\n%q", err, stdout)
	}
	if !strings.Contains(stderr, "==== faultanomaly") {
		t.Fatalf("tables did not move to stderr: %q", stderr)
	}
}

func TestRunJSONToFileWithSampling(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rep.json")
	code, _, stderr := cli(t, "-run", "faultanomaly", "-scale", "0.05", "-json", path, "-obs-sample", "4")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report file is not JSON: %v", err)
	}
}

func TestRunVerifyAndGoldenAreExclusive(t *testing.T) {
	code, _, stderr := cli(t, "-verify", "-golden")
	if code != 2 || !strings.Contains(stderr, "mutually exclusive") {
		t.Fatalf("exit %d stderr %q, want 2 + mutually exclusive", code, stderr)
	}
}

func TestRunGoldenCannotBeNarrowed(t *testing.T) {
	code, _, stderr := cli(t, "-golden", "-run", "fig1", "-golden-dir", t.TempDir())
	if code != 2 || !strings.Contains(stderr, "cannot be narrowed") {
		t.Fatalf("exit %d stderr %q, want 2 + narrowing rejection", code, stderr)
	}
}

// TestRunVerifyAgainstEmptyCorpus: with no committed corpus every cell is
// MISS and the command exits 1 — the state a new clone would see if the
// corpus were deleted. The grid is narrowed with -run to keep the test
// cheap; narrowing also suppresses the stale-entry scan.
func TestRunVerifyAgainstEmptyCorpusFails(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := cli(t, "-verify", "-run", "faultanomaly", "-golden-dir", dir)
	if code != 1 {
		t.Fatalf("exit %d (stderr %s), want 1 for an empty corpus", code, stderr)
	}
	if !strings.Contains(stdout, "MISS") || !strings.Contains(stdout, "-golden") {
		t.Fatalf("report should mark cells MISS and point at -golden: %q", stdout)
	}
}

// TestRunVerifyNarrowedRoundTrip exercises the CLI verify path end to end
// against a corpus generated through the engine, with the obs layer
// attached (-trace prints per-cell spans).
func TestRunVerifyNarrowedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cells := []verify.Cell{
		{Experiment: "faultanomaly", Seed: 1, Scale: 0.05},
		{Experiment: "faultanomaly", Seed: 2, Scale: 0.05},
		{Experiment: "faultanomaly", Seed: 1, Scale: 0.1},
		{Experiment: "faultanomaly", Seed: 1, Scale: 0.05, Procs: 1},
		{Experiment: "faultanomaly", Seed: 1, Scale: 0.05, Procs: 4},
	}
	if _, err := verify.Sweep(cells, verify.Options{Dir: dir, Update: true}); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := cli(t, "-verify", "-run", "faultanomaly", "-golden-dir", dir, "-trace")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "cells ok") || !strings.Contains(stdout, "cell") {
		t.Fatalf("verify summary or span trace missing: %q", stdout)
	}
}

// -topology reruns the multi-core experiments on the given machine; bad
// specs exit 2 and the verification modes refuse the flag (fingerprints
// are defined on the paper's default machine).
func TestRunTopologyFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-run", "fig1", "-scale", "0.02", "-topology", "cores=8;per=4"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "Figure 1") {
		t.Fatalf("fig1 output missing:\n%s", out.String())
	}
	errBuf.Reset()
	if code := run([]string{"-topology", "pkg="}, &out, &errBuf); code != 2 {
		t.Fatalf("bad topology should exit 2, got %d", code)
	}
	errBuf.Reset()
	if code := run([]string{"-verify", "-topology", "cores=8"}, &out, &errBuf); code != 2 ||
		!strings.Contains(errBuf.String(), "-topology") {
		t.Fatalf("verify+topology should exit 2 with an explanation, got %d: %s", code, errBuf.String())
	}
}
