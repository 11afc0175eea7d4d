// Fleet-scale topology API. A Topology describes one machine's core and
// package layout beyond the paper's fixed 4-core / 2-package Xeon: any
// number of packages, each with its own core count, shared-cache capacity,
// and a static per-core frequency scale that feeds the same DVFS rate path
// fault injection uses (Machine.SetFrequencyScale). A Topology has a
// compact spec syntax with a ParseTopology/String round-trip, mirroring
// workload.ParseStream, so CLIs and configs can name machines as strings:
//
//	pkg=2,2                    the paper's box: two dual-core packages
//	cores=16;per=4             shorthand: 16 cores in 4-core packages
//	pkg=4:0.85,4:1.15:8        heterogeneous: a slow 4-core package and a
//	                           fast one with an 8 MiB cache
//	pkg=2,2;clock=2.4          2.4 GHz instead of the paper's 3 GHz
//
// Fleets are "/"-separated node topologies (ParseFleet):
//
//	pkg=2,2/pkg=4:0.85/pkg=4:1.15,4:1.15
package machine

import (
	"fmt"
	"strconv"
	"strings"
)

// PackageSpec is one package of a Topology: Cores cores sharing one L2.
type PackageSpec struct {
	// Cores is the package's core count (must be positive).
	Cores int
	// FreqScale is the static DVFS multiplier applied to each of the
	// package's cores (1 = the machine's nominal clock). It composes
	// multiplicatively with the dynamic machine-wide scale set by
	// Machine.SetFrequencyScale.
	FreqScale float64
	// CacheMB, when positive, overrides the package's shared L2 capacity
	// in MiB; zero inherits the machine Config's cache capacity.
	CacheMB float64
}

// Topology is a machine's package/core layout. The zero value (no
// packages) is "unspecified"; resolve it with DefaultTopology.
type Topology struct {
	// Packages is the ordered package list (at least one for a valid
	// topology).
	Packages []PackageSpec
	// CyclesPerNs, when positive, overrides the machine Config's nominal
	// clock rate.
	CyclesPerNs float64
}

// DefaultTopology returns the paper's platform layout: two dual-core
// packages at the Config's nominal clock and cache.
func DefaultTopology() Topology {
	return Topology{Packages: []PackageSpec{{Cores: 2, FreqScale: 1}, {Cores: 2, FreqScale: 1}}}
}

// Homogeneous returns a topology of cores/perPackage identical packages at
// nominal frequency; a remainder becomes a short last package. A
// non-positive cores count yields a package Validate rejects.
func Homogeneous(cores, perPackage int) Topology {
	if perPackage <= 0 {
		perPackage = 1
	}
	var t Topology
	for c := cores; c > 0; c -= perPackage {
		n := perPackage
		if c < n {
			n = c // leaves a short package; Validate rejects it with the field named
		}
		t.Packages = append(t.Packages, PackageSpec{Cores: n, FreqScale: 1})
	}
	if cores <= 0 {
		t.Packages = []PackageSpec{{Cores: cores, FreqScale: 1}}
	}
	return t
}

// NumCores returns the topology's total core count.
func (t Topology) NumCores() int {
	var n int
	for _, p := range t.Packages {
		n += p.Cores
	}
	return n
}

// NumPackages returns the package count.
func (t Topology) NumPackages() int { return len(t.Packages) }

// Validate reports topology errors, naming the offending field. NaN fails
// every float check: it would break the String round trip.
func (t Topology) Validate() error {
	if len(t.Packages) == 0 {
		return fmt.Errorf("machine: Topology.Packages must have at least one package")
	}
	for i, p := range t.Packages {
		if p.Cores <= 0 {
			return fmt.Errorf("machine: Topology.Packages[%d].Cores must be positive, got %d", i, p.Cores)
		}
		if !(p.FreqScale > 0) {
			return fmt.Errorf("machine: Topology.Packages[%d].FreqScale must be positive, got %v", i, p.FreqScale)
		}
		if !(p.CacheMB >= 0) {
			return fmt.Errorf("machine: Topology.Packages[%d].CacheMB must be non-negative, got %v", i, p.CacheMB)
		}
	}
	if !(t.CyclesPerNs >= 0) {
		return fmt.Errorf("machine: Topology.CyclesPerNs must be non-negative, got %v", t.CyclesPerNs)
	}
	return nil
}

// Equal reports structural equality (the ParseTopology(t.String()) == t
// round-trip contract).
func (t Topology) Equal(o Topology) bool {
	if t.CyclesPerNs != o.CyclesPerNs || len(t.Packages) != len(o.Packages) {
		return false
	}
	for i := range t.Packages {
		if t.Packages[i] != o.Packages[i] {
			return false
		}
	}
	return true
}

// String renders the topology in the compact spec syntax ParseTopology
// accepts; ParseTopology(t.String()) round-trips to an Equal topology for
// any valid t.
func (t Topology) String() string {
	var b strings.Builder
	b.WriteString("pkg=")
	for i, p := range t.Packages {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(p.Cores))
		if p.FreqScale != 1 || p.CacheMB != 0 {
			b.WriteByte(':')
			b.WriteString(fmtF(p.FreqScale))
		}
		if p.CacheMB != 0 {
			b.WriteByte(':')
			b.WriteString(fmtF(p.CacheMB))
		}
	}
	if t.CyclesPerNs != 0 {
		fmt.Fprintf(&b, ";clock=%s", fmtF(t.CyclesPerNs))
	}
	return b.String()
}

// fmtF renders a float without trailing noise, matching the stream spec's
// float syntax.
func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ParseTopology parses the compact topology spec syntax:
//
//	pkg=2,2;clock=3
//	pkg=4:0.85,4:1.15:8
//	cores=16;per=4
//
// Keys are semicolon-separated. pkg entries are cores[:freq[:cacheMiB]]
// (freq defaults to 1). cores=N with optional per=M (default 2) is the
// homogeneous shorthand; pkg and cores are mutually exclusive. clock
// overrides the nominal GHz-equivalent cycles-per-ns. The returned
// topology always passes Validate.
func ParseTopology(spec string) (Topology, error) {
	var t Topology
	fail := func(format string, args ...any) (Topology, error) {
		return Topology{}, fmt.Errorf("machine: topology spec: "+format, args...)
	}
	seen := map[string]bool{}
	var cores, per int
	for _, kv := range strings.Split(spec, ";") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fail("%q is not key=value", kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if seen[key] {
			return fail("duplicate key %q", key)
		}
		seen[key] = true
		switch key {
		case "pkg":
			for _, e := range strings.Split(val, ",") {
				parts := strings.Split(e, ":")
				if len(parts) < 1 || len(parts) > 3 {
					return fail("pkg entry %q is not cores[:freq[:cacheMiB]]", e)
				}
				n, err := strconv.Atoi(strings.TrimSpace(parts[0]))
				if err != nil {
					return fail("pkg cores %q: %v", parts[0], err)
				}
				p := PackageSpec{Cores: n, FreqScale: 1}
				if len(parts) >= 2 {
					if p.FreqScale, err = strconv.ParseFloat(parts[1], 64); err != nil {
						return fail("pkg freq %q: %v", parts[1], err)
					}
				}
				if len(parts) == 3 {
					if p.CacheMB, err = strconv.ParseFloat(parts[2], 64); err != nil {
						return fail("pkg cache %q: %v", parts[2], err)
					}
				}
				t.Packages = append(t.Packages, p)
			}
		case "cores":
			v, err := strconv.Atoi(val)
			if err != nil {
				return fail("cores %q: %v", val, err)
			}
			cores = v
		case "per":
			v, err := strconv.Atoi(val)
			if err != nil {
				return fail("per %q: %v", val, err)
			}
			per = v
		case "clock":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fail("clock %q: %v", val, err)
			}
			t.CyclesPerNs = v
		default:
			return fail("unknown key %q (valid: pkg, cores, per, clock)", key)
		}
	}
	if cores != 0 || per != 0 {
		if len(t.Packages) > 0 {
			return fail("pkg and cores/per are mutually exclusive")
		}
		if cores <= 0 {
			return fail("cores must be positive, got %d", cores)
		}
		if per == 0 {
			per = 2
			if cores < per {
				per = cores
			}
		}
		if per <= 0 || cores%per != 0 {
			return fail("cores (%d) must be a positive multiple of per (%d)", cores, per)
		}
		for i := 0; i < cores/per; i++ {
			t.Packages = append(t.Packages, PackageSpec{Cores: per, FreqScale: 1})
		}
	}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// ParseFleet parses a "/"-separated list of node topology specs into a
// fleet (one Topology per simulated machine).
func ParseFleet(spec string) ([]Topology, error) {
	var fleet []Topology
	for _, s := range strings.Split(spec, "/") {
		t, err := ParseTopology(s)
		if err != nil {
			return nil, err
		}
		fleet = append(fleet, t)
	}
	return fleet, nil
}

// FleetString renders a fleet as a "/"-separated spec, the inverse of
// ParseFleet.
func FleetString(fleet []Topology) string {
	specs := make([]string, len(fleet))
	for i, t := range fleet {
		specs[i] = t.String()
	}
	return strings.Join(specs, "/")
}
