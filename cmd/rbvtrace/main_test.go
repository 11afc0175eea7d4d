package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestRunPrintsTimelines(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-app", "tpcc", "-requests", "6", "-limit", "2", "-seed", "7"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	text := out.String()
	if !strings.Contains(text, "tpcc: 6 requests traced") {
		t.Fatalf("header missing: %s", text)
	}
	for _, row := range []string{"progress", "CPI", "L2ref/ins", "missratio"} {
		if !strings.Contains(text, row) {
			t.Fatalf("%s row missing:\n%s", row, text)
		}
	}
	// -limit 2 prints exactly two timelines.
	if got := strings.Count(text, "progress"); got != 2 {
		t.Fatalf("printed %d timelines, want 2", got)
	}
}

// Identical seeds produce byte-identical dumps — rbvtrace output is part of
// the deterministic surface users compare across machines.
func TestRunIsDeterministic(t *testing.T) {
	dump := func() string {
		var out, errBuf bytes.Buffer
		if code := run([]string{"-app", "webwork", "-requests", "3", "-limit", "3", "-seed", "11"}, &out, &errBuf); code != 0 {
			t.Fatalf("exit %d: %s", code, errBuf.String())
		}
		return out.String()
	}
	if a, b := dump(), dump(); a != b {
		t.Fatal("identical invocations diverged")
	}
}

// The dump is pinned byte for byte, system call names included: a renamed
// or renumbered syscall, or any drift in the simulated timeline, shows up
// here even though every run still agrees with itself.
func TestRunMatchesPinnedOutput(t *testing.T) {
	want, err := os.ReadFile("testdata/tpch_requests2_seed7.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	if code := run([]string{"-app", "tpch", "-requests", "2", "-limit", "1", "-seed", "7"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("output differs from testdata/tpch_requests2_seed7.txt:\n got: %s\nwant: %s", got, want)
	}
}

func TestRunBuckets(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-app", "tpcc", "-requests", "3", "-limit", "1", "-buckets", "5"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	// 5 buckets: the progress header ends at exactly 100% in 5 steps.
	if !strings.Contains(out.String(), "20%     40%     60%     80%    100%") {
		t.Fatalf("expected 5 progress buckets:\n%s", out.String())
	}
}

func TestRunUnknownAppExitsTwo(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-app", "nosuch"}, &out, &errBuf)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "rbvtrace:") {
		t.Fatalf("error not reported: %s", errBuf.String())
	}
}

func TestRunBadFlagExitsTwo(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errBuf); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// Out-of-range -buckets and -limit values are usage errors naming the
// flag: -buckets 0 used to print one 100% bucket, -buckets -3 dropped every
// timeline and -limit -1 printed none.
func TestRunBadBucketsAndLimitExitTwo(t *testing.T) {
	for _, tc := range []struct{ flag, val string }{
		{"-buckets", "0"}, {"-buckets", "-3"}, {"-limit", "-1"},
	} {
		var out, errBuf bytes.Buffer
		code := run([]string{"-app", "tpcc", "-requests", "2", tc.flag, tc.val}, &out, &errBuf)
		if code != 2 || !strings.Contains(errBuf.String(), tc.flag) || out.Len() != 0 {
			t.Errorf("%s %s: exit %d, stdout %q, stderr %q; want exit 2 naming the flag",
				tc.flag, tc.val, code, out.String(), errBuf.String())
		}
	}
}

// -topology overrides the machine: a half-clock topology stretches every
// request's virtual time, which shows up as a different (still
// deterministic) dump; a bad spec exits 2 naming the field.
func TestRunTopologyOverride(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-app", "webserver", "-requests", "2", "-limit", "1",
		"-topology", "pkg=1:0.5,3:1:8;clock=2.5"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "webserver: 2 requests traced") {
		t.Fatalf("header missing: %s", out.String())
	}
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-topology", "pkg=2:-1"}, &out, &errBuf); code != 2 {
		t.Fatalf("bad topology spec should exit 2, got %d", code)
	}
	if !strings.Contains(errBuf.String(), "FreqScale") {
		t.Fatalf("error should name the offending field: %s", errBuf.String())
	}
}
