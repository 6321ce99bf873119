package experiments

import "pulsedos/internal/topo"

// TestbedConfig parameterizes the Fig. 11 test-bed; see topo.TestbedConfig.
type TestbedConfig = topo.TestbedConfig

// DefaultTestbedConfig returns the paper's test-bed settings.
func DefaultTestbedConfig(flows int) TestbedConfig {
	return topo.DefaultTestbedConfig(flows)
}

// BuildTestbed constructs and wires the test-bed. Flows are created but not
// started; call StartFlows.
func BuildTestbed(cfg TestbedConfig) (*topo.Environment, error) {
	return topo.Build(topo.Testbed(cfg), topo.Options{})
}
