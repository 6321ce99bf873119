package experiments

import (
	"math"
	"testing"
)

func TestImpliedCPsi(t *testing.T) {
	points := []GainPoint{
		{Gamma: 0.2, AnalyticDegradation: 0},
		{Gamma: 0.5, AnalyticDegradation: 0.6}, // C = 0.5·0.4 = 0.2
	}
	if got := ImpliedCPsi(points); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("implied CPsi = %g, want 0.2", got)
	}
	// All-zero degradation: fall back to the last gamma.
	flat := []GainPoint{{Gamma: 0.3}, {Gamma: 0.7}}
	if got := ImpliedCPsi(flat); got != 0.7 {
		t.Errorf("fallback CPsi = %g", got)
	}
	if got := ImpliedCPsi(nil); got != 0.5 {
		t.Errorf("empty CPsi = %g", got)
	}
}

func TestMaximizationAgrees(t *testing.T) {
	p := MaximizationPoint{AnalyticGammaStar: 0.4, MeasuredPeakGamma: 0.5}
	if !p.Agrees(0.15) {
		t.Error("0.1 apart should agree at tol 0.15")
	}
	if p.Agrees(0.05) {
		t.Error("0.1 apart should not agree at tol 0.05")
	}
}
