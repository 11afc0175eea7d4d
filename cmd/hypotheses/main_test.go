package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/verify"
)

// writeFinding drops a FINDINGS.md under dir/<slug>/.
func writeFinding(t *testing.T, dir, slug, content string) {
	t.Helper()
	d := filepath.Join(dir, slug)
	if err := os.MkdirAll(d, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(d, "FINDINGS.md"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func finding(pin string) string {
	return "# t\n\n## Claim\n\nc\n\n## Seeds\n\ns\n\n## Result\n\nr\n\n## Pinned cell\n\n" + pin + "\n"
}

func TestRunValidatesStructure(t *testing.T) {
	dir := t.TempDir()
	var out, errOut strings.Builder

	// No findings at all: configuration error.
	if code := run([]string{"-dir", dir}, &out, &errOut); code != 2 {
		t.Fatalf("empty dir: exit %d, want 2", code)
	}

	// Missing mandatory section.
	writeFinding(t, dir, "no-result", "# t\n\n## Claim\n\nc\n\n## Seeds\n\ns\n\n## Pinned cell\n\n- experiment: fig6\n- seed: 1\n- scale: 0.1\n- fingerprint: x\n")
	errOut.Reset()
	if code := run([]string{"-dir", dir, "-run=false"}, &out, &errOut); code != 1 {
		t.Fatalf("missing section: exit %d, want 1\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "no-result") || !strings.Contains(errOut.String(), "Result") {
		t.Fatalf("error must name the file and section:\n%s", errOut.String())
	}
	if err := os.RemoveAll(filepath.Join(dir, "no-result")); err != nil {
		t.Fatal(err)
	}

	// Unknown pinned experiment.
	writeFinding(t, dir, "bad-exp", finding("- experiment: fig99\n- seed: 1\n- scale: 0.1\n- fingerprint: x"))
	errOut.Reset()
	if code := run([]string{"-dir", dir, "-run=false"}, &out, &errOut); code != 1 {
		t.Fatalf("unknown experiment: exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "fig99") {
		t.Fatalf("error must name the experiment:\n%s", errOut.String())
	}
	if err := os.RemoveAll(filepath.Join(dir, "bad-exp")); err != nil {
		t.Fatal(err)
	}

	// Structurally complete: -run=false passes without reproducing.
	writeFinding(t, dir, "ok", finding("- experiment: fig6\n- seed: 1\n- scale: 0.1\n- fingerprint: notchecked"))
	out.Reset()
	if code := run([]string{"-dir", dir, "-run=false"}, &out, &errOut); code != 0 {
		t.Fatalf("valid structure: exit %d\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "1/1 findings") {
		t.Fatalf("summary missing:\n%s", out.String())
	}
}

// TestRunReproducesPinnedCell exercises the re-run path end to end against
// the cheapest registry experiment: a finding pinning the live fingerprint
// passes, one pinning a stale fingerprint fails naming both hashes.
func TestRunReproducesPinnedCell(t *testing.T) {
	e, ok := experiments.Lookup("fig6")
	if !ok {
		t.Fatal("fig6 missing from registry")
	}
	res, err := e.Run(experiments.Config{Seed: 1, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	lines, err := verify.Canonicalize(res)
	if err != nil {
		t.Fatal(err)
	}
	fp := verify.FingerprintLines(lines)

	dir := t.TempDir()
	writeFinding(t, dir, "live", finding("- experiment: fig6\n- seed: 1\n- scale: 0.1\n- fingerprint: "+fp))
	var out, errOut strings.Builder
	if code := run([]string{"-dir", dir}, &out, &errOut); code != 0 {
		t.Fatalf("live fingerprint: exit %d\n%s", code, errOut.String())
	}

	writeFinding(t, dir, "stale", finding("- experiment: fig6\n- seed: 1\n- scale: 0.1\n- fingerprint: sha256:deadbeef"))
	errOut.Reset()
	if code := run([]string{"-dir", dir}, &out, &errOut); code != 1 {
		t.Fatalf("stale fingerprint: exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "deadbeef") || !strings.Contains(errOut.String(), fp) {
		t.Fatalf("stale error must show both fingerprints:\n%s", errOut.String())
	}
}

// TestRepoFindingsAreStructurallyValid keeps the committed lab honest at
// unit-test speed (the full reproduction runs under `make hypotheses`).
func TestRepoFindingsAreStructurallyValid(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-dir", "../../hypotheses", "-run=false"}, &out, &errOut); code != 0 {
		t.Fatalf("committed findings invalid (exit %d):\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "3/3") {
		t.Fatalf("expected 3 committed findings:\n%s", out.String())
	}
}

// TestRunRejectsMalformedPins covers the pinned-cell parse errors: bad
// numeric fields and each missing mandatory field fail with a message
// naming the offender.
func TestRunRejectsMalformedPins(t *testing.T) {
	for _, tc := range []struct {
		name, pin, wantErr string
	}{
		{"bad-seed", "- experiment: fig6\n- seed: one\n- scale: 0.1\n- fingerprint: x", "bad seed"},
		{"bad-scale", "- experiment: fig6\n- seed: 1\n- scale: tiny\n- fingerprint: x", "bad scale"},
		{"no-experiment", "- seed: 1\n- scale: 0.1\n- fingerprint: x", "missing experiment"},
		{"no-seed", "- experiment: fig6\n- scale: 0.1\n- fingerprint: x", "missing seed"},
		{"no-scale", "- experiment: fig6\n- seed: 1\n- fingerprint: x", "missing scale"},
		{"no-fingerprint", "- experiment: fig6\n- seed: 1\n- scale: 0.1", "missing fingerprint"},
	} {
		dir := t.TempDir()
		writeFinding(t, dir, tc.name, finding(tc.pin))
		var out, errOut strings.Builder
		if code := run([]string{"-dir", dir, "-run=false"}, &out, &errOut); code != 1 {
			t.Fatalf("%s: exit %d, want 1", tc.name, code)
		}
		if !strings.Contains(errOut.String(), tc.wantErr) {
			t.Fatalf("%s: error should contain %q:\n%s", tc.name, tc.wantErr, errOut.String())
		}
	}
}
