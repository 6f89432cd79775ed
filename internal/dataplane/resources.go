package dataplane

import (
	"fmt"
	"strings"
)

// ResourceKind enumerates the per-stage resource types Table 3 of the
// paper accounts for.
type ResourceKind int

const (
	// Crossbar is match/action input crossbar bytes.
	Crossbar ResourceKind = iota
	// SRAM is exact-match and register memory blocks.
	SRAM
	// TCAM is ternary match memory blocks.
	TCAM
	// VLIW is action instruction slots.
	VLIW
	// HashBits is hash-engine output bits.
	HashBits
	// SALU is stateful ALU instances.
	SALU
	// Gateway is condition-evaluation (if/else) gateways.
	Gateway
	// NumResourceKinds is the number of tracked resource types.
	NumResourceKinds
)

var resourceNames = [NumResourceKinds]string{
	"Crossbar", "SRAM", "TCAM", "VLIW", "Hash Bits", "SALU", "Gateway",
}

// String names the resource kind as Table 3 does.
func (k ResourceKind) String() string {
	if k >= 0 && k < NumResourceKinds {
		return resourceNames[k]
	}
	return fmt.Sprintf("resource(%d)", int(k))
}

// Resources is a consumption (or capacity) vector over the tracked
// resource kinds, in abstract per-stage units.
type Resources [NumResourceKinds]float64

// Add accumulates another vector.
func (r *Resources) Add(o Resources) {
	for k := range r {
		r[k] += o[k]
	}
}

// Scale returns the vector multiplied by f.
func (r Resources) Scale(f float64) Resources {
	for k := range r {
		r[k] *= f
	}
	return r
}

// Utilization returns r normalized element-wise by base, the form in
// which Table 3 reports everything ("normalized by the resource usage of
// switch.p4"). Kinds that base does not use report as zero.
func (r Resources) Utilization(base Resources) Resources {
	var out Resources
	for k := range r {
		if base[k] > 0 {
			out[k] = r[k] / base[k]
		}
	}
	return out
}

// String renders the vector compactly for reports.
func (r Resources) String() string {
	var parts []string
	for k := ResourceKind(0); k < NumResourceKinds; k++ {
		if r[k] != 0 {
			parts = append(parts, fmt.Sprintf("%s=%.4g", k, r[k]))
		}
	}
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// TofinoStages is the per-pipeline stage count of the paper's target
// ("Tofino has 12 stages per pipeline", §4.3).
const TofinoStages = 12
