package main

import (
	"bytes"
	"strings"
	"testing"
)

// cli runs the command in-process and captures both streams.
func cli(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestRunSmallStream(t *testing.T) {
	code, out, errs := cli(t, "-requests", "30000", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errs)
	}
	for _, want := range []string{"stream ", "arrivals", "identify latency", "p999"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// The deterministic portion of the output (everything except wall-clock
// and latency lines) must be identical across repeats and worker counts.
func deterministicLines(out string) string {
	var keep []string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "wall") || strings.Contains(l, "identify latency") {
			continue
		}
		keep = append(keep, l)
	}
	return strings.Join(keep, "\n")
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	_, a, _ := cli(t, "-requests", "25000", "-workers", "1")
	_, b, _ := cli(t, "-requests", "25000", "-workers", "4")
	if da, db := deterministicLines(a), deterministicLines(b); da != db {
		t.Fatalf("workers=1 and workers=4 diverge:\n%s\n---\n%s", da, db)
	}
}

func TestRunSpecOverride(t *testing.T) {
	spec := "rate=500000;mix=webserver:1,tpcc:1;period=20ms:0.2;burst=5ms+5ms*3;drift=0.02"
	code, out, errs := cli(t, "-requests", "20000", "-seed", "7", "-spec", spec)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errs)
	}
	// The printed spec is the parsed config re-rendered, with -seed
	// inherited because the spec carries none.
	if !strings.Contains(out, "rate=500000") || !strings.Contains(out, "seed=7") {
		t.Errorf("spec not applied or seed not inherited:\n%s", out)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if code, _, _ := cli(t, "-requests", "0"); code != 2 {
		t.Errorf("-requests 0 accepted (exit %d)", code)
	}
	if code, _, errs := cli(t, "-spec", "rate=nope"); code != 2 {
		t.Errorf("bad spec accepted (exit %d, stderr %q)", code, errs)
	}
	if code, _, errs := cli(t, "-spec", "rate=1000"); code != 2 {
		t.Errorf("spec without mix accepted (exit %d, stderr %q)", code, errs)
	}
	if code, _, errs := cli(t, "-workers", "-3"); code != 2 || !strings.Contains(errs, "-workers") {
		t.Errorf("-workers -3 accepted (exit %d, stderr %q)", code, errs)
	}
	if code, _, errs := cli(t, "-policy", "scale"); code != 2 || !strings.Contains(errs, "-policy") || !strings.Contains(errs, "-topology") {
		t.Errorf("-policy without -topology accepted (exit %d, stderr %q)", code, errs)
	}
}

func TestRunTrace(t *testing.T) {
	code, out, errs := cli(t, "-requests", "15000", "-trace")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errs)
	}
	if !strings.Contains(out, "serve.") {
		t.Errorf("-trace output missing serve counters:\n%s", out)
	}
}

// Fleet mode: -topology shards the stream across a simulated fleet.
func TestRunFleetMode(t *testing.T) {
	args := []string{"-topology", "pkg=2,2/pkg=4:1.15:8", "-policy", "ease", "-requests", "15000", "-seed", "4"}
	code, out, errs := cli(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errs)
	}
	for _, want := range []string{"fleet  ", "contention-easing", "node0", "node1", "fleet CPI", "merges"} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFleetRejectsBadTopologyAndPolicy(t *testing.T) {
	if code, _, errs := cli(t, "-topology", "pkg=0"); code != 2 || !strings.Contains(errs, "Cores") {
		t.Fatalf("bad fleet spec: exit %d, stderr %s", code, errs)
	}
	if code, _, errs := cli(t, "-topology", "pkg=2,2", "-policy", "fifo"); code != 2 || !strings.Contains(errs, "fifo") {
		t.Fatalf("bad policy: exit %d, stderr %s", code, errs)
	}
}

// A -spec in fleet mode overrides the arrival stream and inherits -seed.
func TestRunFleetSpecOverride(t *testing.T) {
	code, out, errs := cli(t, "-topology", "pkg=2,2", "-requests", "4000",
		"-spec", "rate=6000;mix=webserver:1", "-seed", "9")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errs)
	}
	if !strings.Contains(out, "rate=6000;mix=webserver:1;seed=9") {
		t.Fatalf("spec override not applied:\n%s", out)
	}
}
