package serve

import (
	"fmt"
	"strings"
)

// FleetPolicyInfo describes one registered fleet placement policy. The
// registry is an ordered slice, not a map, so listings and error messages
// render in a stable order.
type FleetPolicyInfo struct {
	// Policy is the policy, whose value is its canonical flag-facing name.
	Policy FleetPolicy
	// Aliases are accepted spellings beyond the canonical name.
	Aliases []string
}

// fleetPolicies is the registry, in presentation order.
var fleetPolicies = []FleetPolicyInfo{
	{Policy: FleetRoundRobin, Aliases: []string{"rr"}},
	{Policy: FleetContentionEase, Aliases: []string{"ease"}},
	{Policy: FleetScaleOut, Aliases: []string{"scale"}},
}

// FleetPolicies returns the registered fleet policies in stable order. The
// returned slice is shared; callers must not mutate it.
func FleetPolicies() []FleetPolicyInfo { return fleetPolicies }

// FleetPolicyNames returns the canonical policy names in registry order.
func FleetPolicyNames() []string {
	names := make([]string, len(fleetPolicies))
	for i, p := range fleetPolicies {
		names[i] = string(p.Policy)
	}
	return names
}

// ParseFleetPolicy resolves a canonical name or alias to its policy. The
// error quotes the unknown name and lists the valid spellings.
func ParseFleetPolicy(name string) (FleetPolicy, error) {
	var valid []string
	for _, p := range fleetPolicies {
		if name == string(p.Policy) {
			return p.Policy, nil
		}
		for _, a := range p.Aliases {
			if name == a {
				return p.Policy, nil
			}
		}
		valid = append(valid, string(p.Policy))
		valid = append(valid, p.Aliases...)
	}
	return "", fmt.Errorf("serve: unknown fleet policy %q (valid: %s)", name, strings.Join(valid, ", "))
}
