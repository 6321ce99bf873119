package experiments

import (
	"math"
	"time"
)

// MaximizationPoint records, for one attack setting, where the analysis puts
// the optimal γ* (Proposition 3) versus where the simulated gain actually
// peaks — the comparison §4.1.2 makes for every panel of Figs. 6–9.
type MaximizationPoint struct {
	Label string

	AnalyticGammaStar float64 // Proposition 3 on the calibrated C_Ψ
	MeasuredPeakGamma float64 // grid argmax of the measured gain
	AnalyticPeakGain  float64
	MeasuredPeakGain  float64
	GridStep          float64 // resolution of the comparison
	Class             GainClass
}

// Agrees reports whether the measured peak lies within tol of the analytic
// optimum (tol in γ units; the paper's "generally match very well").
func (m MaximizationPoint) Agrees(tol float64) bool {
	return math.Abs(m.AnalyticGammaStar-m.MeasuredPeakGamma) <= tol
}

// MaximizationStudyConfig parameterizes the §4.1.2 comparison, which
// figures.MaximizationStudy runs as the ext-maximization figure's documents.
type MaximizationStudyConfig struct {
	Flows    int
	Settings []MaximizationSetting
	Kappa    float64
	Gammas   []float64
	Warmup   time.Duration
	Measure  time.Duration
	Seed     uint64
}

// MaximizationSetting is one (R_attack, T_extent) cell.
type MaximizationSetting struct {
	Rate   float64
	Extent time.Duration
}

// DefaultMaximizationStudyConfig compares the paper's normal-gain settings.
func DefaultMaximizationStudyConfig() MaximizationStudyConfig {
	return MaximizationStudyConfig{
		Flows: 15,
		Settings: []MaximizationSetting{
			{25e6, 75 * time.Millisecond},
			{25e6, 100 * time.Millisecond},
			{30e6, 75 * time.Millisecond},
		},
		Kappa:   1,
		Gammas:  DefaultGammaGrid(),
		Warmup:  8 * time.Second,
		Measure: 20 * time.Second,
		Seed:    1,
	}
}

// ImpliedCPsi recovers the calibrated C_Ψ from a sweep's analytic points via
// C_Ψ = γ·(1 - Γ) at the first point with meaningful degradation — the C_Ψ
// the §4.1.2 comparison feeds Proposition 3.
func ImpliedCPsi(points []GainPoint) float64 {
	for _, p := range points {
		if p.AnalyticDegradation > 0 && p.AnalyticDegradation < 1 {
			return p.Gamma * (1 - p.AnalyticDegradation)
		}
	}
	// All points predict zero degradation: C_Ψ at least the largest γ.
	if len(points) > 0 {
		return points[len(points)-1].Gamma
	}
	return 0.5
}
