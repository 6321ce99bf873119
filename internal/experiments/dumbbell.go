// Package experiments holds the run primitives and result types the paper's
// §4 experiments are built from: Run/RunCtx (one attacked or baseline run
// with its taps), RunMiceCtx (the mice-vs-elephants workload), AnalyzeSync
// (the Fig. 3 synchronization post-processing), GainPoint with
// PeriodForGamma, PeakPoint and the §4.1.1 classification, the shrew
// harmonics of Fig. 10, the risk curves of Fig. 4, the fixed figure
// dimensions (dims.go) and the task pool (RunTasksCtx). The figures and the
// gain, shrew, maximization and defense studies compose these as scenario
// documents in internal/figures. The evaluation topologies themselves (the
// ns-2 dumbbell of Fig. 5, the Dummynet test-bed of Fig. 11, and the newer
// multi-bottleneck graphs) are generated by internal/topo; this package
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
