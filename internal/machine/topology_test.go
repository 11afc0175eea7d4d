package machine

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestParseTopologyRoundTrip(t *testing.T) {
	cases := []string{
		"pkg=2,2",
		"pkg=2,2;clock=3",
		"pkg=4:0.85,4:1.15:8",
		"pkg=1",
		"pkg=3:1:2.5,5:0.5",
		"pkg=2,2;clock=2.4",
	}
	for _, spec := range cases {
		topo, err := ParseTopology(spec)
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", spec, err)
		}
		again, err := ParseTopology(topo.String())
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", topo.String(), spec, err)
		}
		if !topo.Equal(again) {
			t.Errorf("round trip %q: %+v != %+v", spec, topo, again)
		}
	}
}

func TestParseTopologyShorthand(t *testing.T) {
	topo, err := ParseTopology("cores=16;per=4")
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumCores() != 16 || topo.NumPackages() != 4 {
		t.Fatalf("cores=16;per=4 → %d cores / %d packages", topo.NumCores(), topo.NumPackages())
	}
	if !topo.Equal(Homogeneous(16, 4)) {
		t.Error("shorthand topology should be homogeneous")
	}
	// Default per is 2, matching the paper's dual-core packages.
	topo, err = ParseTopology("cores=8")
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumPackages() != 4 {
		t.Fatalf("cores=8 → %d packages, want 4", topo.NumPackages())
	}
	// A single core still parses (per clamps to the core count).
	topo, err = ParseTopology("cores=1")
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumCores() != 1 || topo.NumPackages() != 1 {
		t.Fatalf("cores=1 → %d cores / %d packages", topo.NumCores(), topo.NumPackages())
	}
}

func TestParseTopologyErrors(t *testing.T) {
	cases := []struct {
		spec, want string
	}{
		{"pkg=0", "Packages[0].Cores"},
		{"pkg=2:-1", "Packages[0].FreqScale"},
		{"pkg=2:1:-4", "Packages[0].CacheMB"},
		{"pkg=2;pkg=2", "duplicate"},
		{"pkg=2;cores=4", "mutually exclusive"},
		{"cores=5;per=2", "multiple"},
		{"cores=-4", "positive"},
		{"bogus=1", "unknown key"},
		{"pkg", "key=value"},
		{"pkg=a", "pkg cores"},
		{"pkg=2:x", "pkg freq"},
		{"pkg=2:1:y", "pkg cache"},
		{"pkg=2:1:2:3", "pkg entry"},
		{"clock=z", "clock"},
		{"", "at least one package"},
		{"pkg=2;clock=-1", "CyclesPerNs"},
		{"pkg=1;clock=nAn", "CyclesPerNs"},
		{"pkg=1:NaN", "Packages[0].FreqScale"},
		{"pkg=1:1:nan", "Packages[0].CacheMB"},
	}
	for _, c := range cases {
		_, err := ParseTopology(c.spec)
		if err == nil {
			t.Errorf("ParseTopology(%q): expected error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseTopology(%q) = %q, want mention of %q", c.spec, err, c.want)
		}
	}
}

func TestValidateNamesField(t *testing.T) {
	bad := Topology{Packages: []PackageSpec{{Cores: 2, FreqScale: 1}, {Cores: 2, FreqScale: 0}}}
	err := bad.Validate()
	if err == nil || !strings.Contains(err.Error(), "Packages[1].FreqScale") {
		t.Fatalf("Validate = %v, want Packages[1].FreqScale named", err)
	}
}

func TestHomogeneousHelper(t *testing.T) {
	topo := Homogeneous(4, 2)
	if !topo.Equal(DefaultTopology()) {
		t.Fatalf("Homogeneous(4,2) = %+v, want default topology", topo)
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	// Non-multiple layouts surface through Validate, naming the short package.
	if err := Homogeneous(5, 2).Validate(); err != nil {
		t.Fatalf("Homogeneous(5,2) leaves a valid (uneven) topology, got %v", err)
	}
	if got := Homogeneous(5, 2).NumCores(); got != 5 {
		t.Fatalf("Homogeneous(5,2).NumCores = %d", got)
	}
	if err := Homogeneous(0, 2).Validate(); err == nil {
		t.Fatal("Homogeneous(0,2) should not validate")
	}
}

func TestParseFleetRoundTrip(t *testing.T) {
	spec := "pkg=2,2/pkg=4:0.85/pkg=4:1.15,4:1.15"
	fleet, err := ParseFleet(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 3 {
		t.Fatalf("fleet size %d", len(fleet))
	}
	if got := FleetString(fleet); got != spec {
		t.Fatalf("FleetString = %q, want %q", got, spec)
	}
	if fleet[1].NumCores() != 4 || fleet[1].Packages[0].FreqScale != 0.85 {
		t.Fatalf("node 1 = %+v", fleet[1])
	}
	if _, err := ParseFleet("pkg=2,2/nope"); err == nil {
		t.Fatal("bad node spec should fail")
	}
}

func TestConfigTopologyResolution(t *testing.T) {
	cfg := DefaultConfig()
	if !cfg.Topology.Equal(DefaultTopology()) {
		t.Fatalf("default config topology = %+v", cfg.Topology)
	}
	if cfg.NumCores() != 4 {
		t.Fatalf("default NumCores = %d", cfg.NumCores())
	}
	cfg.Topology = Topology{Packages: []PackageSpec{{Cores: 8, FreqScale: 1}}, CyclesPerNs: 2}
	if cfg.NumCores() != 8 {
		t.Fatalf("override NumCores = %d", cfg.NumCores())
	}
	if cfg.Clock() != 2 {
		t.Fatalf("override clock = %v", cfg.Clock())
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.Topology.Packages[0].Cores = 0
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "Packages[0].Cores") {
		t.Fatalf("Validate = %v", err)
	}
}

// TestHeterogeneousMachine exercises a machine built from a heterogeneous
// topology: per-package sizes, a slow package, and a cache override.
func TestHeterogeneousMachine(t *testing.T) {
	topo, err := ParseTopology("pkg=1:0.5,3:1:8")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Topology = topo
	eng := sim.NewEngine()
	m := New(eng, cfg)
	if m.NumCores() != 4 {
		t.Fatalf("NumCores = %d", m.NumCores())
	}
	if m.Package(0) != 0 || m.Package(1) != 1 || m.Package(3) != 1 {
		t.Fatalf("package map: %d %d %d", m.Package(0), m.Package(1), m.Package(3))
	}
	if m.CoreFrequencyScale(0) != 0.5 || m.CoreFrequencyScale(1) != 1 {
		t.Fatalf("core scales: %v %v", m.CoreFrequencyScale(0), m.CoreFrequencyScale(1))
	}
	if !m.Topology().Equal(topo) {
		t.Fatalf("Topology() = %+v", m.Topology())
	}

	act := &Activity{BaseCPI: 1, RefsPerIns: 0.01, SoloMissRatio: 0.1, WorkingSetBytes: 1 << 20}
	m.SetActivity(0, act)
	m.SetActivity(1, act)
	slow, fast := m.Rate(0), m.Rate(1)
	if slow.CPI != fast.CPI {
		t.Fatalf("CPI should not depend on frequency: %v vs %v", slow.CPI, fast.CPI)
	}
	if slow.NsPerIns != 2*fast.NsPerIns {
		t.Fatalf("half-frequency core should be 2x slower: %v vs %v", slow.NsPerIns, fast.NsPerIns)
	}

	// The dynamic DVFS scale composes with the static topology scale.
	m.SetFrequencyScale(0.5)
	if got := m.Rate(0).NsPerIns; got != 2*slow.NsPerIns {
		t.Fatalf("composed scale NsPerIns = %v, want %v", got, 2*slow.NsPerIns)
	}
	m.SetFrequencyScale(1)

	// Package 1's cache override (8 MiB) halves observer pressure relative
	// to the default 4 MiB package for the same working set.
	big := &Activity{BaseCPI: 1, RefsPerIns: 0.02, SoloMissRatio: 0.1, WorkingSetBytes: 4 << 20}
	m.SetActivity(0, big)
	m.SetActivity(1, big)
	ev0 := m.observerEvents(m.cores[0], metrics.CtxKernel)
	ev1 := m.observerEvents(m.cores[1], metrics.CtxKernel)
	if ev0 == ev1 {
		t.Fatalf("cache override should change sample perturbation: %+v == %+v", ev0, ev1)
	}
}

// TestHomogeneousTopologyMatchesLegacyConfig: the paper's default box is
// the homogeneous four-core, two-per-package layout, rate for rate.
func TestHomogeneousTopologyMatchesLegacyConfig(t *testing.T) {
	legacy := DefaultConfig()
	topoCfg := DefaultConfig()
	topoCfg.Topology = Homogeneous(4, 2)

	run := func(cfg Config) []Rate {
		eng := sim.NewEngine()
		m := New(eng, cfg)
		act := &Activity{BaseCPI: 1.2, RefsPerIns: 0.015, SoloMissRatio: 0.2, WorkingSetBytes: 3 << 20}
		for c := 0; c < m.NumCores(); c++ {
			m.SetActivity(c, act)
		}
		rates := make([]Rate, m.NumCores())
		for c := range rates {
			rates[c] = m.Rate(c)
		}
		return rates
	}

	a, b := run(legacy), run(topoCfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("core %d: legacy %+v != topology %+v", i, a[i], b[i])
		}
	}
}
