package experiments

import (
	"math"
	"testing"
	"time"

	"pulsedos/internal/attack"
	"pulsedos/internal/sim"
)

func TestSyncSnapshotRecoversPeriod(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := DefaultDumbbellConfig(24)
	env, err := BuildDumbbell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 3(a) parameters at a 30 s snapshot: expect ~15 peaks, period 2 s.
	train := attack.Uniform(50*sim.Millisecond, 100e6, 1950*sim.Millisecond, 17)
	sync, err := SyncSnapshot(env, train, 8*time.Second, 30*time.Second, 50*time.Millisecond, 120)
	if err != nil {
		t.Fatal(err)
	}
	if sync.Peaks < 13 || sync.Peaks > 17 {
		t.Errorf("peaks = %d, want ~15 in 30 s at T_AIMD = 2 s", sync.Peaks)
	}
	if math.Abs(sync.PeakPeriodSec-2.0) > 0.35 {
		t.Errorf("peak period = %.2f s, want ≈ 2 s", sync.PeakPeriodSec)
	}
	if sync.AutoPeriodSec != 0 && math.Abs(sync.AutoPeriodSec-2.0) > 0.3 {
		t.Errorf("autocorr period = %.2f s, want ≈ 2 s", sync.AutoPeriodSec)
	}
	if sync.AttackPeriodSec != 2.0 {
		t.Errorf("ground truth period = %g", sync.AttackPeriodSec)
	}
}

func TestSyncSnapshotValidation(t *testing.T) {
	if _, err := SyncSnapshot(nil, attack.Train{}, 0, time.Second, time.Millisecond, 10); err == nil {
		t.Error("nil environment accepted")
	}
	env, err := BuildDumbbell(DefaultDumbbellConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SyncSnapshot(env, attack.Train{}, 0, time.Second, 0, 10); err == nil {
		t.Error("zero bin accepted")
	}
}

func TestCwndTraceValidation(t *testing.T) {
	env, err := BuildDumbbell(DefaultDumbbellConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	train := attack.Uniform(50*sim.Millisecond, 40e6, 450*sim.Millisecond, 3)
	if _, err := CwndTrace(nil, train, 0, 0, time.Second); err == nil {
		t.Error("nil env accepted")
	}
	if _, err := CwndTrace(env, train, 5, 0, time.Second); err == nil {
		t.Error("out-of-range flow accepted")
	}
}

func TestResampleCwnd(t *testing.T) {
	samples := []CwndSample{{TimeSec: 0, Cwnd: 2}, {TimeSec: 1, Cwnd: 4}, {TimeSec: 2.5, Cwnd: 1}}
	out := ResampleCwnd(samples, 0.5, 3)
	if len(out) != 7 {
		t.Fatalf("resampled %d points", len(out))
	}
	// Sample-and-hold: value at t=0.5 is still 2; at t=1.0 it becomes 4.
	if out[1].Cwnd != 2 || out[2].Cwnd != 4 || out[6].Cwnd != 1 {
		t.Errorf("resample = %+v", out)
	}
	if ResampleCwnd(nil, 0.5, 3) != nil {
		t.Error("empty input should yield nil")
	}
	if ResampleCwnd(samples, 0, 3) != nil {
		t.Error("zero step should yield nil")
	}
}

func TestGainSweepValidation(t *testing.T) {
	factory := func() (Environment, error) { return BuildDumbbell(DefaultDumbbellConfig(2)) }
	base := SweepConfig{
		Factory:    factory,
		AttackRate: 35e6,
		Extent:     75 * time.Millisecond,
		Kappa:      1,
		Gammas:     []float64{0.5},
		Warmup:     time.Second,
		Measure:    2 * time.Second,
	}
	bad := base
	bad.Factory = nil
	if _, err := GainSweep(bad); err == nil {
		t.Error("nil factory accepted")
	}
	bad = base
	bad.AttackRate = 0
	if _, err := GainSweep(bad); err == nil {
		t.Error("zero rate accepted")
	}
	bad = base
	bad.Kappa = 0
	if _, err := GainSweep(bad); err == nil {
		t.Error("zero kappa accepted")
	}
	bad = base
	bad.Gammas = nil
	if _, err := GainSweep(bad); err == nil {
		t.Error("empty grid accepted")
	}
	bad = base
	bad.Gammas = []float64{1.5}
	if _, err := GainSweep(bad); err == nil {
		t.Error("gamma > 1 accepted")
	}
}

func TestGainSweepSkipsUnreachableGammas(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	// At R_attack = 16 Mbps over a 15 Mbps bottleneck, C_attack ≈ 1.07, so
	// γ close to 1 would need period < extent: those grid points are
	// skipped rather than simulated as floods.
	points, err := GainSweep(SweepConfig{
		Factory:    func() (Environment, error) { return BuildDumbbell(DefaultDumbbellConfig(3)) },
		AttackRate: 16e6,
		Extent:     75 * time.Millisecond,
		Kappa:      1,
		Gammas:     []float64{0.5, 0.98},
		Warmup:     2 * time.Second,
		Measure:    3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		// γ = 0.98 needs period ≈ 81 ms ≥ extent 75 ms, so it stays; this
		// documents the boundary rather than asserting a skip.
		t.Logf("points kept: %d", len(points))
	}
	for _, p := range points {
		if p.PeriodSec < 0.075 {
			t.Errorf("kept infeasible period %g", p.PeriodSec)
		}
	}
}
