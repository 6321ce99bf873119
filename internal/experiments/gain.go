package experiments

import (
	"errors"
	"time"
)

// GainPoint is one (γ, gain) sample of a Figs. 6–9 / Fig. 12 curve: the
// analytic prediction alongside the simulated measurement.
type GainPoint struct {
	Gamma     float64 // target normalized average attack rate
	PeriodSec float64 // attack period T_AIMD realizing γ

	AnalyticDegradation float64 // Γ from Proposition 2
	MeasuredDegradation float64 // Γ from the scenario run
	AnalyticGain        float64 // Γ·(1-γ)^κ, analytic
	MeasuredGain        float64 // Γ·(1-γ)^κ, measured

	// CombinedDegradation / CombinedGain carry the timeout-extended model
	// (the §5 future-work extension): Proposition 2 when pulses are
	// absorbed, the TO-state outage model when they overflow the buffer.
	CombinedDegradation float64
	CombinedGain        float64

	Timeouts       uint64 // victim TO entries during the run
	FastRecoveries uint64 // victim FR entries during the run
}

// DefaultGammaGrid returns the γ grid used throughout the reproduction:
// 0.1, 0.15, …, 0.95.
func DefaultGammaGrid() []float64 {
	out := make([]float64, 0, 18)
	for g := 0.10; g < 0.96; g += 0.05 {
		out = append(out, g)
	}
	return out
}

// CoarseGammaGrid returns a cheap 5-point grid for smoke tests and benches.
func CoarseGammaGrid() []float64 {
	return []float64{0.15, 0.3, 0.5, 0.7, 0.9}
}

// PeriodForGamma solves γ = R_attack·T_extent / (R_bottle·T_AIMD) for the
// attack period.
func PeriodForGamma(gamma, attackRate float64, extent time.Duration, bottleneck float64) time.Duration {
	if gamma <= 0 || bottleneck <= 0 {
		return 0
	}
	sec := attackRate * extent.Seconds() / (bottleneck * gamma)
	return time.Duration(sec * float64(time.Second))
}

// GainClass is the §4.1.1 taxonomy of analytic-vs-simulated discrepancy.
type GainClass uint8

// Gain classes.
const (
	// NormalGain: simulation and analysis agree closely.
	NormalGain GainClass = iota + 1
	// UnderGain: the analysis over-estimates the simulated gain (attack too
	// weak to hurt every flow).
	UnderGain
	// OverGain: the analysis under-estimates the simulated gain (pulses
	// force timeouts instead of fast recovery).
	OverGain
)

// String implements fmt.Stringer.
func (c GainClass) String() string {
	switch c {
	case NormalGain:
		return "normal-gain"
	case UnderGain:
		return "under-gain"
	case OverGain:
		return "over-gain"
	default:
		return "unknown"
	}
}

// ClassifyGain reduces a curve to its §4.1.1 class using the mean signed
// deviation (measured - analytic) over the grid points where the analysis
// predicts meaningful gain. tol is the neutrality band (e.g. 0.05).
func ClassifyGain(points []GainPoint, tol float64) GainClass {
	if tol <= 0 {
		tol = 0.05
	}
	sum, n := 0.0, 0
	for _, p := range points {
		if p.AnalyticGain <= 0.01 {
			continue
		}
		sum += p.MeasuredGain - p.AnalyticGain
		n++
	}
	if n == 0 {
		return NormalGain
	}
	mean := sum / float64(n)
	switch {
	case mean > tol:
		return OverGain
	case mean < -tol:
		return UnderGain
	default:
		return NormalGain
	}
}

// PeakPoint reports the grid point with the highest measured gain, the
// "maximization point" §4.1.2 compares against the analytic optimum.
func PeakPoint(points []GainPoint) (GainPoint, error) {
	if len(points) == 0 {
		return GainPoint{}, errors.New("experiments: no points")
	}
	best := points[0]
	for _, p := range points[1:] {
		if p.MeasuredGain > best.MeasuredGain {
			best = p
		}
	}
	return best, nil
}
