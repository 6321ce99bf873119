package experiments

import (
	"testing"
	"time"

	"pulsedos/internal/detect"
)

// TestDetectorROCStudy verifies the spectral detector discriminates attacked
// from calm simulated traffic (AUC well above chance) at a mid-γ intensity
// where the volume threshold cannot.
func TestDetectorROCStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation study")
	}
	spectral, err := detect.NewSpectral(0.3, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	threshold, err := detect.NewThreshold(15e6, 1.2, 20)
	if err != nil {
		t.Fatal(err)
	}
	results, err := DetectorROCStudy(ROCStudyConfig{
		Factory: func(seed uint64) (Environment, error) {
			cfg := DefaultDumbbellConfig(8)
			cfg.Seed = seed
			return BuildDumbbell(cfg)
		},
		AttackRate: 35e6,
		Extent:     75 * time.Millisecond,
		Gamma:      0.4,
		Runs:       3,
		Warmup:     4 * time.Second,
		Measure:    8 * time.Second,
		Detectors:  []detect.Detector{spectral, threshold},
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ROCResult{}
	for _, r := range results {
		byName[r.Detector] = r
		t.Logf("%s: AUC = %.3f", r.Detector, r.AUC)
	}
	if byName["spectral"].AUC < 0.8 {
		t.Errorf("spectral AUC = %.3f, want > 0.8", byName["spectral"].AUC)
	}
	// Volume detection cannot separate mid-γ pulses from saturated TCP.
	if byName["threshold"].AUC > byName["spectral"].AUC {
		t.Errorf("threshold AUC %.3f beat spectral %.3f at mid gamma",
			byName["threshold"].AUC, byName["spectral"].AUC)
	}
}

func TestDetectorROCStudyValidation(t *testing.T) {
	if _, err := DetectorROCStudy(ROCStudyConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}
