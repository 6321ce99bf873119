// Package experiments runs every experiment of the paper's §4 — the
// gain-vs-γ sweeps of Figs. 6–9 and 12, the quasi-global-synchronization
// snapshots of Fig. 3, the shrew resonance study of Fig. 10, the cwnd trace
// of Fig. 1, the risk curves of Fig. 4, and the normal/under/over-gain
// classification of §4.1.1 — against environments produced by the
// declarative topology layer (internal/topo). The evaluation topologies
// themselves (the ns-2 dumbbell of Fig. 5, the Dummynet test-bed of Fig. 11,
// and the newer multi-bottleneck graphs) are generated there; this package
// re-exports the classic builders as thin wrappers over topo.Build.
package experiments

import "pulsedos/internal/topo"

// DumbbellConfig parameterizes the Fig. 5 topology; see topo.DumbbellConfig.
type DumbbellConfig = topo.DumbbellConfig

// DefaultDumbbellConfig returns the paper's ns-2 settings for the given
// number of victim flows.
func DefaultDumbbellConfig(flows int) DumbbellConfig {
	return topo.DefaultDumbbellConfig(flows)
}

// BuildDumbbell constructs and wires the serial Fig. 5 topology. Flows are
// created but not started; call StartFlows.
func BuildDumbbell(cfg DumbbellConfig) (*topo.Environment, error) {
	return topo.Build(topo.Dumbbell(cfg), topo.Options{})
}
