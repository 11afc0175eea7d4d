package verify

import (
	"os"
	"strings"
	"testing"
)

// fingerprint hashes v's canonical serialization.
func fingerprint(v any) (string, error) {
	lines, err := Canonicalize(v)
	if err != nil {
		return "", err
	}
	return FingerprintLines(lines), nil
}

type sample struct {
	Name   string
	Values []float64
	ByApp  map[string]float64
	Nested *sample
	hidden int // unexported: must not reach the serialization
}

func TestCanonicalizeShape(t *testing.T) {
	v := &sample{
		Name:   "web server", // space survives quoting
		Values: []float64{1.5, 0, -0.0, 3},
		ByApp:  map[string]float64{"b": 2, "a": 1},
		hidden: 99,
	}
	lines, err := Canonicalize(v)
	if err != nil {
		t.Fatal(err)
	}
	want := []Line{
		{"result/Name", `"web server"`},
		{"result/Values/len", "4"},
		{"result/Values/0", "1.5"},
		{"result/Values/1", "0"},
		{"result/Values/2", "0"}, // negative zero normalizes
		{"result/Values/3", "3"},
		{"result/ByApp/len", "2"},
		{"result/ByApp/a", "1"}, // map keys sorted, not insertion order
		{"result/ByApp/b", "2"},
		{"result/Nested", "nil"},
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d: %v", len(lines), len(want), lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %v, want %v", i, lines[i], want[i])
		}
	}
}

func TestCanonicalizeMapOrderIndependent(t *testing.T) {
	a := map[string]float64{}
	b := map[string]float64{}
	keys := []string{"x", "y", "z", "w", "q", "cpi", "l2"}
	for i, k := range keys {
		a[k] = float64(i)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		b[keys[i]] = float64(i)
	}
	fa, err := fingerprint(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fingerprint(b)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Fatalf("insertion order changed the fingerprint: %s vs %s", fa, fb)
	}
}

func TestCanonicalizeRejectsCycles(t *testing.T) {
	v := &sample{}
	v.Nested = v
	if _, err := Canonicalize(v); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not rejected: %v", err)
	}
}

func TestCanonicalizeRejectsFuncs(t *testing.T) {
	if _, err := Canonicalize(struct{ F func() }{}); err == nil {
		t.Fatal("func field accepted")
	}
}

func TestFormatFloatPolicy(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.5:     "1.5",
		1e300:   "1e+300",
		-2.25:   "-2.25",
		1.0 / 3: "0.333333333333",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestDiffFirstDivergence(t *testing.T) {
	golden := []Line{{"a", "1"}, {"b", "2"}, {"c", "3"}}
	if d := Diff(golden, golden); d != nil {
		t.Fatalf("identical streams diverged: %v", d)
	}
	d := Diff(golden, []Line{{"a", "1"}, {"b", "9"}, {"c", "8"}})
	if d == nil || d.Index != 1 || d.Path != "b" || d.Golden != "2" || d.Got != "9" {
		t.Fatalf("value diff wrong: %+v", d)
	}
	if d := Diff(golden, golden[:2]); d == nil || d.Path != "c" || !strings.Contains(d.String(), "missing") {
		t.Fatalf("truncation diff wrong: %+v", d)
	}
	if d := Diff(golden[:2], golden); d == nil || d.Path != "c" || !strings.Contains(d.String(), "extra") {
		t.Fatalf("extension diff wrong: %+v", d)
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cell := Cell{Experiment: "fig1", Seed: 3, Scale: 0.25}
	lines := []Line{{"result/X", "1.5"}, {"result/S", `"a	b"`}}
	if err := WriteGolden(dir, cell, lines); err != nil {
		t.Fatal(err)
	}
	g, err := ReadGolden(dir, cell)
	if err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint != FingerprintLines(lines) {
		t.Fatalf("fingerprint mismatch after round trip")
	}
	if len(g.Lines) != len(lines) || g.Lines[0] != lines[0] {
		t.Fatalf("lines mismatch: %v", g.Lines)
	}
	corpus, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus.Entries) != 1 || corpus.Entries[cell.Key()] == nil {
		t.Fatalf("corpus load missed the entry: %v", corpus.Keys())
	}
	if got := corpus.Entries[cell.Key()].Cell; got != cell {
		t.Fatalf("key round trip: %+v != %+v", got, cell)
	}
}

func TestReadGoldenDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	cell := Cell{Experiment: "fig1", Seed: 1, Scale: 0.05}
	if err := WriteGolden(dir, cell, []Line{{"result/X", "1"}}); err != nil {
		t.Fatal(err)
	}
	path := goldenPath(dir, cell)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(data), "result/X\t1", "result/X\t2", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGolden(dir, cell); err == nil || !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("hand-edited golden accepted: %v", err)
	}
}

func TestDefaultGridCoversRegistryAndProcs(t *testing.T) {
	grid := DefaultGrid()
	base := map[string]bool{}
	procs := map[string]map[int]bool{}
	for _, c := range grid {
		if c.Seed == 1 && c.Scale == 0.05 && c.Procs == 0 {
			base[c.Experiment] = true
		}
		if c.Procs > 0 {
			if procs[c.Experiment] == nil {
				procs[c.Experiment] = map[int]bool{}
			}
			procs[c.Experiment][c.Procs] = true
		}
	}
	if len(base) != 21 {
		t.Fatalf("base grid covers %d experiments, want all 21", len(base))
	}
	for _, name := range []string{"fig1", "fig7", "fig10", "fig12", "faultanomaly", "faultlocalize", "serve", "fleet", "schedlab"} {
		if !procs[name][1] || !procs[name][4] {
			t.Errorf("%s missing GOMAXPROCS={1,4} variants", name)
		}
	}
	// Every experiment — including the scheduling figures, which used to be
	// gated as too expensive — now carries the seed and scale spread.
	spread := map[string]int{}
	for _, c := range grid {
		if c.Procs == 0 {
			spread[c.Experiment]++
		}
	}
	for name, n := range spread {
		want := 3
		if name == "fig12" || name == "fig13" {
			want = 6 // the scheduler comparisons carry the widened spread
		}
		if n != want {
			t.Errorf("%s has %d seed/scale cells, want %d", name, n, want)
		}
	}
}

func TestFullGridIsOneFullScaleCellPerExperiment(t *testing.T) {
	grid := FullGrid()
	if len(grid) != 21 {
		t.Fatalf("full grid has %d cells, want one per experiment (21)", len(grid))
	}
	for _, c := range grid {
		if c.Seed != 1 || c.Scale != 1 || c.Procs != 0 {
			t.Fatalf("full grid cell %+v is not seed 1, scale 1, ambient procs", c)
		}
	}
}

// TestSweepRoundTrip drives the whole engine over two cheap cells: update
// mode writes the corpus, check mode verifies it, and GOMAXPROCS-pinned
// variants reproduce the same fingerprints.
func TestSweepRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cells := []Cell{
		{Experiment: "faultanomaly", Seed: 1, Scale: 0.05},
		{Experiment: "fig6", Seed: 1, Scale: 0.05},
		{Experiment: "faultanomaly", Seed: 1, Scale: 0.05, Procs: 1},
	}
	up, err := Sweep(cells, Options{Dir: dir, Update: true})
	if err != nil {
		t.Fatal(err)
	}
	if up.Updated != 2 {
		t.Fatalf("update wrote %d files, want 2 (procs variant shares its key)", up.Updated)
	}
	chk, err := Sweep(cells, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !chk.OK() {
		t.Fatalf("fresh corpus did not verify:\n%s", chk)
	}
	for _, r := range chk.Results {
		if r.Fingerprint != chk.Results[0].Fingerprint && r.Cell.Experiment == cells[0].Experiment {
			t.Fatalf("GOMAXPROCS variant changed the fingerprint: %+v", r)
		}
	}
}

// TestSweepReportsMissingAndStale: a cell without a golden entry reports
// MISS; a corpus file no grid cell references reports STALE.
func TestSweepReportsMissingAndStale(t *testing.T) {
	dir := t.TempDir()
	orphan := Cell{Experiment: "fig6", Seed: 9, Scale: 0.05}
	if err := WriteGolden(dir, orphan, []Line{{"result/X", "1"}}); err != nil {
		t.Fatal(err)
	}
	rep, err := Sweep([]Cell{{Experiment: "faultanomaly", Seed: 1, Scale: 0.05}}, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("sweep passed with a missing cell and a stale entry")
	}
	out := rep.String()
	if !strings.Contains(out, "MISS faultanomaly") || !strings.Contains(out, "STALE "+orphan.Key()) {
		t.Fatalf("report missing MISS/STALE markers:\n%s", out)
	}
}

// TestSweepDetectsPerturbedOutput is the acceptance demonstration: inject a
// perturbation into one experiment's recorded output and the sweep must
// fail with a diff naming the experiment and the first divergent field.
func TestSweepDetectsPerturbedOutput(t *testing.T) {
	dir := t.TempDir()
	cell := Cell{Experiment: "faultanomaly", Seed: 1, Scale: 0.05}
	if _, err := Sweep([]Cell{cell}, Options{Dir: dir, Update: true}); err != nil {
		t.Fatal(err)
	}
	g, err := ReadGolden(dir, cell)
	if err != nil {
		t.Fatal(err)
	}
	// The injected perturbation: one field of the experiment's output
	// changes value (as a silently buggy refactor would change it). The
	// golden file stands in for the old output; internal consistency is
	// preserved so only the real comparison can catch it.
	perturbed := append([]Line{}, g.Lines...)
	idx := -1
	for i, l := range perturbed {
		if strings.HasSuffix(l.Path, "/Eval/F1") {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatalf("faultanomaly output has no Eval/F1 field; lines: %d", len(perturbed))
	}
	perturbed[idx].Value = "0.123456789"
	if err := WriteGolden(dir, cell, perturbed); err != nil {
		t.Fatal(err)
	}
	rep, err := Sweep([]Cell{cell}, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fails := rep.Failures()
	if len(fails) != 1 || fails[0].Diff == nil {
		t.Fatalf("perturbation not caught:\n%s", rep)
	}
	if d := fails[0].Diff; !strings.HasSuffix(d.Path, "/Eval/F1") || d.Golden != "0.123456789" {
		t.Fatalf("diff did not pinpoint the perturbed field: %+v", d)
	}
	out := rep.String()
	if !strings.Contains(out, "faultanomaly") || !strings.Contains(out, "Eval/F1") {
		t.Fatalf("failure report must name the experiment and divergent field:\n%s", out)
	}
}

// TestCommittedCorpusSubset spot-checks the committed corpus with the
// cheapest grid cells, so plain `go test` catches output drift early
// without paying for the full sweep (that is `make verify`).
func TestCommittedCorpusSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus subset check skipped in -short mode")
	}
	cells := []Cell{
		{Experiment: "table1", Seed: 1, Scale: 0.05},
		{Experiment: "fig6", Seed: 1, Scale: 0.05},
		{Experiment: "fig9", Seed: 1, Scale: 0.05},
		{Experiment: "table2", Seed: 1, Scale: 0.05},
		{Experiment: "faultanomaly", Seed: 1, Scale: 0.05},
		// Bank maintenance (window compaction, merges, recalibration)
		// feeds both of these, so a drift in any matrix cell or medoid
		// shows here.
		{Experiment: "serve", Seed: 1, Scale: 0.05},
		{Experiment: "fleet", Seed: 1, Scale: 0.05},
	}
	rep, err := Sweep(cells, Options{Dir: "testdata/golden"})
	if err != nil {
		t.Fatal(err)
	}
	// The subset references few keys; every other committed entry is
	// expected and not stale.
	rep.Stale = nil
	if !rep.OK() {
		t.Fatalf("committed corpus drifted:\n%s\nIf the change is intentional, regenerate with `make golden`.", rep)
	}
}
