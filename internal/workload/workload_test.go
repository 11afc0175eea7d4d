package workload

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/trace"
)

func gen(t *testing.T, app App, n int, seed int64) []*Request {
	t.Helper()
	g := sim.NewRNG(seed)
	out := make([]*Request, n)
	for i := range out {
		out[i] = app.NewRequest(uint64(i), g)
		if len(out[i].Phases) == 0 {
			t.Fatalf("%s request %d has no phases", app.Name(), i)
		}
	}
	return out
}

// soloCPI computes the length-weighted solo CPI of a request under the
// default cache model.
func soloCPI(r *Request) float64 {
	cfg := cache.DefaultConfig()
	var cyc, ins float64
	for _, p := range r.Phases {
		a := p.Activity
		cpi := cache.CPI(cfg, a.BaseCPI, a.RefsPerIns, a.SoloMissRatio, 1)
		cyc += cpi * p.Instructions
		ins += p.Instructions
	}
	return cyc / ins
}

func TestByName(t *testing.T) {
	for _, name := range []string{"webserver", "tpcc", "tpch", "rubis", "webwork"} {
		app, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if app.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, app.Name())
		}
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName of unknown app should error")
	}
	if len(All()) != 5 {
		t.Fatalf("All() returned %d apps", len(All()))
	}
}

func TestSamplingPeriodsMatchPaper(t *testing.T) {
	want := map[string]sim.Time{
		"webserver": 10 * sim.Microsecond,
		"tpcc":      100 * sim.Microsecond,
		"tpch":      sim.Millisecond,
		"rubis":     100 * sim.Microsecond,
		"webwork":   sim.Millisecond,
	}
	for _, app := range All() {
		if got := app.SamplingPeriod(); got != want[app.Name()] {
			t.Errorf("%s sampling period = %v, want %v", app.Name(), got, want[app.Name()])
		}
	}
}

func TestRequestLengthScales(t *testing.T) {
	// The paper: web requests run a few hundred thousand instructions;
	// WeBWorK requests may run as many as 600 million.
	cases := []struct {
		app      App
		min, max float64 // bounds on the *mean* length
	}{
		{NewWebServer(), 100e3, 600e3},
		{NewTPCC(), 500e3, 3e6},
		{NewTPCH(), 30e6, 200e6},
		{NewRUBiS(), 800e3, 5e6},
		{NewWeBWorK(), 50e6, 500e6},
	}
	for _, c := range cases {
		reqs := gen(t, c.app, 60, 1)
		var sum float64
		for _, r := range reqs {
			sum += r.TotalInstructions()
		}
		mean := sum / float64(len(reqs))
		if mean < c.min || mean > c.max {
			t.Errorf("%s mean length = %.0f, want in [%.0f, %.0f]",
				c.app.Name(), mean, c.min, c.max)
		}
	}
}

func TestSoloCPIRanges(t *testing.T) {
	// Figure 1's 1-core clusters: web ~1-3, TPCC 1-3, TPCH 1.5-2.5,
	// RUBiS 1.5-2.5, WeBWorK 1-2.
	cases := []struct {
		app      App
		min, max float64
	}{
		{NewWebServer(), 1.0, 3.0},
		{NewTPCC(), 1.0, 3.2},
		{NewTPCH(), 1.4, 3.1},
		{NewRUBiS(), 1.4, 2.6},
		{NewWeBWorK(), 1.0, 2.0},
	}
	for _, c := range cases {
		for _, r := range gen(t, c.app, 40, 2) {
			cpi := soloCPI(r)
			if cpi < c.min || cpi > c.max {
				t.Errorf("%s %s solo CPI = %.2f outside [%v, %v]",
					c.app.Name(), r.Type, cpi, c.min, c.max)
			}
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	for _, app := range All() {
		a := gen(t, app, 5, 7)
		b := gen(t, app, 5, 7)
		for i := range a {
			if a[i].Type != b[i].Type || len(a[i].Phases) != len(b[i].Phases) {
				t.Fatalf("%s generation not deterministic", app.Name())
			}
			for j := range a[i].Phases {
				if a[i].Phases[j].Instructions != b[i].Phases[j].Instructions {
					t.Fatalf("%s phase lengths differ across identical seeds", app.Name())
				}
			}
		}
	}
}

func TestTPCCMixAndClusters(t *testing.T) {
	reqs := gen(t, NewTPCC(), 2000, 3)
	counts := map[string]int{}
	for _, r := range reqs {
		counts[r.Type]++
	}
	if n := counts["new order"]; n < 800 || n > 1000 {
		t.Errorf("new order count = %d/2000, want ~45%%", n)
	}
	if n := counts["payment"]; n < 780 || n > 950 {
		t.Errorf("payment count = %d/2000, want ~43%%", n)
	}
	for _, minor := range []string{"order status", "delivery", "stock level"} {
		if n := counts[minor]; n < 40 || n > 140 {
			t.Errorf("%s count = %d/2000, want ~4%%", minor, n)
		}
	}
	// Distinct transaction types should form distinct CPI clusters
	// (Figure 1's multi-modal TPCC distribution).
	byType := map[string][]float64{}
	for _, r := range reqs[:300] {
		byType[r.Type] = append(byType[r.Type], soloCPI(r))
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if len(byType["payment"]) == 0 || len(byType["stock level"]) == 0 {
		t.Skip("mix too small in 300 draws")
	}
	if math.Abs(mean(byType["payment"])-mean(byType["stock level"])) < 0.3 {
		t.Error("payment and stock level CPI clusters not separated")
	}
}

func TestTPCHUniformWithinRequest(t *testing.T) {
	// TPCH behavior is uniform over a request: phase CPIs within one
	// request should span a narrow range.
	for _, r := range gen(t, NewTPCH(), 20, 4) {
		cfg := cache.DefaultConfig()
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range r.Phases {
			if p.Name == "aggregate" || p.Name == "plan" {
				continue // small prologue/tail stages
			}
			cpi := cache.CPI(cfg, p.Activity.BaseCPI, p.Activity.RefsPerIns, p.Activity.SoloMissRatio, 1)
			lo, hi = math.Min(lo, cpi), math.Max(hi, cpi)
		}
		if hi/lo > 1.8 {
			t.Errorf("TPCH %s phase CPI spread %.2f–%.2f too wide", r.Type, lo, hi)
		}
	}
	if len(tpchQueries) != 17 {
		t.Fatalf("TPCH should have 17 query types, got %d", len(tpchQueries))
	}
}

func TestRUBiSTiers(t *testing.T) {
	reqs := gen(t, NewRUBiS(), 50, 5)
	sawTier2 := false
	for _, r := range reqs {
		if r.Phases[0].Tier != 0 {
			t.Fatal("RUBiS requests must start at the web tier")
		}
		last := r.Phases[len(r.Phases)-1]
		if last.Tier != 0 {
			t.Fatal("RUBiS requests must finish at the web tier")
		}
		for _, p := range r.Phases {
			sawTier2 = sawTier2 || p.Tier == 2
		}
		// Tier changes must be to adjacent stages we can socket-hop.
		for i := 1; i < len(r.Phases); i++ {
			d := r.Phases[i].Tier - r.Phases[i-1].Tier
			if d > 1 || d < -2 {
				t.Fatalf("implausible tier hop %d -> %d", r.Phases[i-1].Tier, r.Phases[i].Tier)
			}
		}
	}
	if !sawTier2 {
		t.Fatal("no RUBiS request reached the database tier")
	}
	if NewRUBiS().Tiers() != 3 {
		t.Fatal("RUBiS should have 3 tiers")
	}
}

func TestWeBWorKCommonPrefix(t *testing.T) {
	reqs := gen(t, NewWeBWorK(), 10, 6)
	// The first three phases are the session/Moodle/course prefix with
	// nearly identical lengths across requests.
	for _, r := range reqs {
		if r.Phases[0].Name != "session-init" || r.Phases[2].Name != "course-load" {
			t.Fatal("WeBWorK prefix structure missing")
		}
	}
	base := reqs[0].Phases[0].Instructions
	for _, r := range reqs[1:] {
		if math.Abs(r.Phases[0].Instructions-base)/base > 0.25 {
			t.Error("WeBWorK common prefix varies too much across requests")
		}
	}
}

func TestWeBWorKSameProblemSimilar(t *testing.T) {
	w := NewWeBWorK()
	g := sim.NewRNG(9)
	a := w.RequestForProblem(1, 954, g)
	b := w.RequestForProblem(2, 954, g)
	if len(a.Phases) != len(b.Phases) {
		t.Fatalf("same problem produced different phase counts: %d vs %d",
			len(a.Phases), len(b.Phases))
	}
	for i := range a.Phases {
		pa, pb := a.Phases[i], b.Phases[i]
		if pa.Name != pb.Name {
			t.Fatalf("phase %d names differ: %s vs %s", i, pa.Name, pb.Name)
		}
		if math.Abs(pa.Instructions-pb.Instructions) > 0.3*pa.Instructions {
			t.Fatalf("phase %d lengths diverge too much", i)
		}
	}
	c := w.RequestForProblem(3, 955, g)
	if len(c.Phases) == len(a.Phases) {
		// Different problems usually have different phase counts; equal
		// counts are possible but then characteristics should differ.
		same := true
		for i := range a.Phases {
			if a.Phases[i].Name != c.Phases[i].Name {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different problems produced identical structure")
		}
	}
}

// NewWeBWorKProblems restricts the library so a modest run yields several
// requests per problem (the Figure 9 anomaly-reference setup).
func TestWeBWorKProblemsRestriction(t *testing.T) {
	ids := []int{954, 117, 1501}
	w := NewWeBWorKProblems(ids...)
	allowed := map[int]bool{}
	for _, id := range ids {
		allowed[id] = true
	}
	reqs := gen(t, w, 40, 12)
	drawn := map[int]int{}
	for _, r := range reqs {
		if !allowed[r.TypeIndex] {
			t.Fatalf("request drew problem %d outside the restriction %v", r.TypeIndex, ids)
		}
		if want := fmt.Sprintf("problem-%d", r.TypeIndex); r.Type != want {
			t.Fatalf("request type %q does not name its problem (%s)", r.Type, want)
		}
		drawn[r.TypeIndex]++
	}
	// 40 draws over 3 problems: every problem appears, giving the several
	// same-problem requests Figure 9 needs.
	for _, id := range ids {
		if drawn[id] < 3 {
			t.Errorf("problem %d drawn only %d times in 40 requests", id, drawn[id])
		}
	}

	// The restricted workload shares structure with the full library: the
	// same problem id produces the same phase sequence either way.
	full := NewWeBWorK()
	a := w.RequestForProblem(1, 954, sim.NewRNG(3))
	b := full.RequestForProblem(1, 954, sim.NewRNG(3))
	if len(a.Phases) != len(b.Phases) {
		t.Fatalf("restricted and full workloads disagree on problem 954 structure: %d vs %d phases",
			len(a.Phases), len(b.Phases))
	}
	for i := range a.Phases {
		if a.Phases[i].Name != b.Phases[i].Name {
			t.Fatalf("phase %d differs between restricted and full workloads", i)
		}
	}
}

// The constructor copies its argument: mutating the caller's slice must not
// change which problems the workload draws.
func TestWeBWorKProblemsCopiesIDs(t *testing.T) {
	ids := []int{954, 117}
	w := NewWeBWorKProblems(ids...)
	ids[0] = 9999
	for _, r := range gen(t, w, 20, 13) {
		if r.TypeIndex == 9999 {
			t.Fatal("workload aliased the caller's id slice")
		}
	}
}

func TestWebServerTable2Structure(t *testing.T) {
	// The phase entered via writev must have the highest CPI jump; the one
	// after lseek must drop (Table 2's strongest signals).
	r := gen(t, NewWebServer(), 1, 8)[0]
	cpiOf := map[string]float64{}
	var order []string
	cfg := cache.DefaultConfig()
	for _, p := range r.Phases {
		cpi := cache.CPI(cfg, p.Activity.BaseCPI, p.Activity.RefsPerIns, p.Activity.SoloMissRatio, 1)
		if p.EntrySyscall != trace.NoSyscall {
			cpiOf["after-"+p.EntrySyscall.String()] = cpi
		}
		order = append(order, p.Name)
		cpiOf[p.Name] = cpi
	}
	if cpiOf["after-writev"] < cpiOf["sendprep"]+2 {
		t.Error("writev should signal a large CPI increase")
	}
	if cpiOf["after-lseek"] > cpiOf["prepare"]-1 {
		t.Error("lseek should signal a large CPI decrease")
	}
	_ = order
}

func TestMbench(t *testing.T) {
	g := sim.NewRNG(1)
	spin := NewMbenchSpin().NewRequest(0, g)
	data := NewMbenchData().NewRequest(1, g)
	if len(spin.Phases) != 1 || len(data.Phases) != 1 {
		t.Fatal("microbenchmarks should be single-phase")
	}
	if spin.Phases[0].Activity.WorkingSetBytes >= data.Phases[0].Activity.WorkingSetBytes {
		t.Fatal("Mbench-Data should have the larger working set")
	}
	if data.Phases[0].Activity.WorkingSetBytes < 15<<20 {
		t.Fatal("Mbench-Data should stream ~16MB")
	}
	if spin.Phases[0].SyscallGap != 0 {
		t.Fatal("microbenchmarks make no system calls")
	}
}

func TestRequestString(t *testing.T) {
	r := gen(t, NewTPCC(), 1, 10)[0]
	if r.String() == "" {
		t.Fatal("empty request string")
	}
}

// The five applications declare their system calls as trace.Syscall IDs.
// Recording every declared call and reading the stream back through
// SyscallNames must yield exactly the names each application is written
// against, so a renumbered or renamed ID cannot slip through.
func TestDeclaredSyscallNamesRoundTrip(t *testing.T) {
	want := map[string][]string{
		"webserver": {"lseek", "mmap", "open", "poll", "read", "sendfile", "shutdown", "stat", "write", "writev"},
		"tpcc":      {"fsync", "read", "write"},
		"tpch":      {"lseek", "pread", "read", "stat", "write"},
		"rubis":     {"gettimeofday", "read", "recvfrom", "sendto", "write"},
		"webwork":   {"brk", "open", "read", "stat", "write", "writev"},
	}
	for _, app := range All() {
		tr := &trace.Request{}
		var declared []trace.Syscall
		for _, r := range gen(t, app, 60, 5) {
			for _, p := range r.Phases {
				if p.EntrySyscall != trace.NoSyscall {
					declared = append(declared, p.EntrySyscall)
				}
				declared = append(declared, p.Syscalls...)
			}
		}
		for i, c := range declared {
			tr.AddSyscall(c, float64(i), sim.Time(i))
		}
		names := tr.SyscallNames()
		set := map[string]bool{}
		for i, n := range names {
			if n != declared[i].String() {
				t.Fatalf("%s: event %d reads back %q, declared %q", app.Name(), i, n, declared[i])
			}
			set[n] = true
		}
		for _, n := range want[app.Name()] {
			if !set[n] {
				t.Errorf("%s: never declares %q", app.Name(), n)
			}
		}
		if len(set) != len(want[app.Name()]) {
			t.Errorf("%s: declares %d distinct calls %v, want %v", app.Name(), len(set), set, want[app.Name()])
		}
	}
}
