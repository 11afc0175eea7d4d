package serve

import (
	"reflect"
	"strings"
	"testing"
)

// TestFleetPolicyRegistry pins the registry order and the flag-facing
// spellings the CLI depends on.
func TestFleetPolicyRegistry(t *testing.T) {
	want := []string{"round-robin", "contention-easing", "scale-out"}
	if got := FleetPolicyNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("FleetPolicyNames() = %v, want %v", got, want)
	}
	cases := map[string]FleetPolicy{
		"round-robin":       FleetRoundRobin,
		"rr":                FleetRoundRobin,
		"contention-easing": FleetContentionEase,
		"ease":              FleetContentionEase,
		"scale-out":         FleetScaleOut,
		"scale":             FleetScaleOut,
	}
	for name, want := range cases { // maporder:ok — assertions only
		got, err := ParseFleetPolicy(name)
		if err != nil || got != want {
			t.Fatalf("ParseFleetPolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseFleetPolicy("fifo"); err == nil || !strings.Contains(err.Error(), "fifo") {
		t.Fatalf("unknown policy error must quote the name, got %v", err)
	}
	if _, err := ParseFleetPolicy("fifo"); !strings.Contains(err.Error(), "scale-out") {
		t.Fatalf("unknown policy error must list valid names, got %v", err)
	}
}

// TestFleetScaleOutValidation: the low-water mark must stay below the
// high-water mark once defaults are filled.
func TestFleetScaleOutValidation(t *testing.T) {
	cfg := DefaultFleetConfig(1)
	cfg.ScaleLowWater = 3
	cfg.ScaleHighWater = 2
	if _, err := NewFleet(cfg); err == nil || !strings.Contains(err.Error(), "ScaleLowWater") {
		t.Fatalf("want ScaleLowWater error, got %v", err)
	}
}

// TestFleetScaleOutGrowsUnderLoad: the scale-out fleet starts at one node;
// the default stream overwhelms a single node's cores, so the saturation
// signal must activate more nodes, and the accounting invariants hold
// throughout.
func TestFleetScaleOutGrowsUnderLoad(t *testing.T) {
	cfg := smallFleetConfig(11)
	cfg.Policy = FleetScaleOut
	res := runFleet(t, cfg, 40_000)
	if res.Policy != "scale-out" {
		t.Fatalf("policy label %q", res.Policy)
	}
	if res.ScaleUps == 0 {
		t.Fatalf("scale-out never activated a node under the default stream: %+v", res)
	}
	if res.ActiveNodes < 1 || res.ActiveNodes > len(res.Nodes) {
		t.Fatalf("active set %d outside [1,%d]", res.ActiveNodes, len(res.Nodes))
	}
	if res.Completed+res.Shed != res.Arrivals || res.Queued != 0 {
		t.Fatalf("scale-out accounting broken: %+v", res)
	}
	if !strings.Contains(res.String(), "scale:") {
		t.Fatalf("scale-out summary missing scale line:\n%s", res)
	}
}

// TestFleetScaleOutIdlesSmall: a stream a single node absorbs must never
// trip the saturation signal, so the fleet stays at one active node.
func TestFleetScaleOutIdlesSmall(t *testing.T) {
	cfg := smallFleetConfig(11)
	cfg.Policy = FleetScaleOut
	cfg.Stream.RatePerSec = 1500
	cfg.Stream.Bursts = nil
	res := runFleet(t, cfg, 4000)
	if res.ScaleUps != 0 || res.ActiveNodes != 1 {
		t.Fatalf("light load scaled out anyway: ups %d, active %d", res.ScaleUps, res.ActiveNodes)
	}
}

// TestFleetScaleOutShrinksAfterBurst: a short flash crowd on a quiet base
// rate forces a scale-up, then the post-burst lull drains the newest node
// and the low-water check releases it.
func TestFleetScaleOutShrinksAfterBurst(t *testing.T) {
	cfg := smallFleetConfig(19)
	cfg.Policy = FleetScaleOut
	cfg.Stream.RatePerSec = 3000
	cfg.Stream.Bursts[0].StartNs = 2e8
	cfg.Stream.Bursts[0].DurationNs = 5e8
	cfg.Stream.Bursts[0].Factor = 8
	res := runFleet(t, cfg, 20_000)
	if res.ScaleUps == 0 {
		t.Fatalf("burst never scaled out: %+v", res)
	}
	if res.ScaleDowns == 0 {
		t.Fatalf("post-burst lull never scaled in: ups %d, active %d", res.ScaleUps, res.ActiveNodes)
	}
}

// TestFleetScaleOutDeterministic: the scaling control loop runs at
// ingest tick starts, so scale-out runs reproduce bit-identically across
// fresh fleets.
func TestFleetScaleOutDeterministic(t *testing.T) {
	cfg := smallFleetConfig(23)
	cfg.Policy = FleetScaleOut
	a := runFleet(t, cfg, 25_000)
	b := runFleet(t, cfg, 25_000)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("scale-out result differs across fresh fleets:\n%v\nvs\n%v", a, b)
	}
}
