package experiments

import "pulsedos/internal/detect"

// DetectionPoint reports each detector's verdict at one attack intensity γ.
type DetectionPoint struct {
	Gamma  float64
	Scores map[string]float64 // detector name → evidence score
	Alarms map[string]bool    // detector name → alarm raised
}

// ROCResult reports one detector's empirical discrimination power.
type ROCResult struct {
	Detector string
	Points   []detect.ROCPoint
	AUC      float64
}
