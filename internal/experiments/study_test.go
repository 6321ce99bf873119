package experiments_test

import (
	"context"
	"math"
	"testing"
	"time"

	"pulsedos/internal/detect"
	"pulsedos/internal/experiments"
	"pulsedos/internal/figures"
	"pulsedos/internal/optimize"
	"pulsedos/internal/scenario"
	"pulsedos/internal/topo"
)

// The paper's studies run as scenario documents through internal/figures —
// the one implementation behind both the figures and the public facade.
// These are their behaviour and validation checks.

// dumbbell is the Fig. 5 topology with the given flow count.
func dumbbell(flows int) scenario.Topology {
	return scenario.Topology{Kind: "dumbbell", Flows: flows}
}

func gainSweep(cfg figures.SweepConfig) ([]experiments.GainPoint, error) {
	return figures.GainSweep(context.Background(), cfg)
}

func TestGainSweepValidation(t *testing.T) {
	base := figures.SweepConfig{
		Topology:   dumbbell(2),
		AttackRate: 35e6,
		Extent:     75 * time.Millisecond,
		Kappa:      1,
		Gammas:     []float64{0.5},
		Warmup:     time.Second,
		Measure:    2 * time.Second,
	}
	bad := base
	bad.Topology = scenario.Topology{Kind: "ring"}
	if _, err := gainSweep(bad); err == nil {
		t.Error("unknown topology kind accepted")
	}
	bad = base
	bad.AttackRate = 0
	if _, err := gainSweep(bad); err == nil {
		t.Error("zero rate accepted")
	}
	bad = base
	bad.Kappa = 0
	if _, err := gainSweep(bad); err == nil {
		t.Error("zero kappa accepted")
	}
	bad = base
	bad.Gammas = nil
	if _, err := gainSweep(bad); err == nil {
		t.Error("empty grid accepted")
	}
	bad = base
	bad.Gammas = []float64{1.5}
	if _, err := gainSweep(bad); err == nil {
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
	points, err := gainSweep(figures.SweepConfig{
		Topology:   dumbbell(3),
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

// TestGainSweepShape runs a coarse Fig. 6-style sweep (25 Mbps, 75 ms,
// 15 flows — a weak-pulse, FR-regime setting) and checks the qualitative
// properties the reproduction promises: a single interior maximum in the
// measured gain and rough agreement with the analytic curve on the
// right-hand side of the peak (§4.1.2). High-volume settings (e.g. 35 Mbps ×
// 75 ms against the 150-packet buffer) instead show the paper's over-gain
// signature — measured gain above analytic at small γ because pulses force
// the TO state the model ignores.
func TestGainSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := figures.SweepConfig{
		Topology:   dumbbell(15),
		AttackRate: 25e6,
		Extent:     75 * time.Millisecond,
		Kappa:      1,
		Gammas:     []float64{0.15, 0.3, 0.45, 0.6, 0.75, 0.9},
		Warmup:     8 * time.Second,
		Measure:    15 * time.Second,
	}
	points, err := gainSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		t.Logf("gamma=%.2f period=%.3fs analyticG=%.3f measuredG=%.3f (TO=%d FR=%d)",
			p.Gamma, p.PeriodSec, p.AnalyticGain, p.MeasuredGain, p.Timeouts, p.FastRecoveries)
	}
	if len(points) < 4 {
		t.Fatalf("sweep produced only %d points", len(points))
	}
	peak, err := experiments.PeakPoint(points)
	if err != nil {
		t.Fatal(err)
	}
	if peak.Gamma == points[0].Gamma || peak.Gamma == points[len(points)-1].Gamma {
		t.Errorf("measured gain peak at grid boundary gamma=%.2f; expected interior maximum", peak.Gamma)
	}
	// Analytic optimum should fall inside the grid too.
	env, err := topo.Build(topo.Dumbbell(topo.DefaultDumbbellConfig(15)), topo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cPsi := env.ModelParams().CPsi(cfg.Extent.Seconds(), cfg.AttackRate)
	gStar, err := optimize.OptimalGamma(cPsi, cfg.Kappa)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("CPsi=%.4f analytic gamma*=%.3f measured peak gamma=%.2f class=%s",
		cPsi, gStar, peak.Gamma, experiments.ClassifyGain(points, 0.05))
	if gStar <= 0 || gStar >= 1 {
		t.Errorf("analytic gamma* = %.3f out of range", gStar)
	}
}

// TestCombinedModelImprovesOverGainFit checks the §5 future-work extension:
// for a high-volume (outage-regime) setting where the FR-state analysis
// under-estimates the measured gain at small γ, the timeout-extended model
// must come closer.
func TestCombinedModelImprovesOverGainFit(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	points, err := gainSweep(figures.SweepConfig{
		Topology:   dumbbell(15),
		AttackRate: 40e6,
		Extent:     100 * time.Millisecond,
		Kappa:      1,
		Gammas:     []float64{0.15, 0.3},
		Warmup:     8 * time.Second,
		Measure:    15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		frErr := p.MeasuredGain - p.AnalyticGain
		combErr := p.MeasuredGain - p.CombinedGain
		t.Logf("gamma=%.2f measured=%.3f FR-analytic=%.3f combined=%.3f",
			p.Gamma, p.MeasuredGain, p.AnalyticGain, p.CombinedGain)
		if p.CombinedGain < p.AnalyticGain {
			t.Errorf("gamma=%.2f: combined %.3f below FR %.3f", p.Gamma, p.CombinedGain, p.AnalyticGain)
		}
		if math.Abs(combErr) > math.Abs(frErr)+0.05 {
			t.Errorf("gamma=%.2f: combined model fits worse (|%.3f| vs |%.3f|)",
				p.Gamma, combErr, frErr)
		}
	}
}

// TestGainSweepParallelMatchesSequential: the parallel sweep must produce
// byte-identical points to the sequential one (each run owns its kernel).
// Under -race it doubles as the figure pool's data-race check, since figures
// and studies share one task pool.
func TestGainSweepParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	base := figures.SweepConfig{
		Topology:   dumbbell(5),
		AttackRate: 35e6,
		Extent:     75 * time.Millisecond,
		Kappa:      1,
		Gammas:     []float64{0.3, 0.5, 0.7},
		Warmup:     2 * time.Second,
		Measure:    4 * time.Second,
	}
	seq, err := gainSweep(base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Parallel = 3
	got, err := gainSweep(par)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(got) {
		t.Fatalf("lengths differ: %d vs %d", len(seq), len(got))
	}
	for i := range seq {
		if seq[i] != got[i] {
			t.Errorf("point %d differs:\nseq %+v\npar %+v", i, seq[i], got[i])
		}
	}
}

// TestMaximizationStudy reproduces §4.1.2's claim for a normal-gain setting:
// the simulated gain peaks near the analytic γ*.
func TestMaximizationStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation study")
	}
	cfg := experiments.DefaultMaximizationStudyConfig()
	cfg.Settings = cfg.Settings[:2] // keep the runtime modest
	cfg.Warmup = 6 * time.Second
	cfg.Measure = 12 * time.Second
	points, err := figures.MaximizationStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		t.Logf("%s: gamma*=%.3f measured-peak=%.2f (gains %.3f vs %.3f) class=%s",
			p.Label, p.AnalyticGammaStar, p.MeasuredPeakGamma,
			p.AnalyticPeakGain, p.MeasuredPeakGain, p.Class)
		if math.IsNaN(p.AnalyticGammaStar) {
			t.Errorf("%s: no analytic optimum", p.Label)
			continue
		}
		// "Generally match": within 0.25 in gamma for normal-gain settings
		// at this reduced scale.
		if !p.Agrees(0.25) {
			t.Errorf("%s: peaks diverge: analytic %.3f vs measured %.3f",
				p.Label, p.AnalyticGammaStar, p.MeasuredPeakGamma)
		}
	}
}

func TestMaximizationStudyValidation(t *testing.T) {
	bad := experiments.DefaultMaximizationStudyConfig()
	bad.Flows = 0
	if _, err := figures.MaximizationStudy(context.Background(), bad); err == nil {
		t.Error("zero flows accepted")
	}
	bad = experiments.DefaultMaximizationStudyConfig()
	bad.Gammas = []float64{0.5}
	if _, err := figures.MaximizationStudy(context.Background(), bad); err == nil {
		t.Error("degenerate grid accepted")
	}
}

// TestDefenseStudy verifies the §1.1 defense claims empirically:
//
//  1. randomizing the RTO mitigates the timeout-based (shrew) attack;
//  2. it does NOT mitigate the AIMD-based attack, whose timing is
//     independent of TCP timeout values (the paper's core argument for
//     studying the AIMD-based attack); and
//  3. Adaptive RED (the §5 enhancement direction) reduces the AIMD attack's
//     damage relative to plain RED.
func TestDefenseStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation study")
	}
	results, err := figures.DefenseStudy(context.Background(), experiments.DefaultDefenseStudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		t.Logf("%-13s %-6s deg=%.3f base=%.2f atk=%.2f TO=%d FR=%d",
			r.Defense, r.Attack, r.Degradation, r.BaselineMbps, r.AttackedMbps,
			r.Timeouts, r.FastRecoveries)
	}
	get := func(defense, attackName string) experiments.DefenseResult {
		r, err := experiments.FindDefenseResult(results, defense, attackName)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	noneShrew := get("none", "shrew")
	jitterShrew := get("rto-jitter", "shrew")
	if jitterShrew.Degradation > noneShrew.Degradation-0.05 {
		t.Errorf("RTO jitter did not mitigate the shrew: %.3f -> %.3f",
			noneShrew.Degradation, jitterShrew.Degradation)
	}
	if jitterShrew.Timeouts >= noneShrew.Timeouts {
		t.Errorf("RTO jitter did not reduce shrew-induced timeouts: %d -> %d",
			noneShrew.Timeouts, jitterShrew.Timeouts)
	}

	noneAIMD := get("none", "aimd")
	jitterAIMD := get("rto-jitter", "aimd")
	delta := jitterAIMD.Degradation - noneAIMD.Degradation
	if delta < -0.05 || delta > 0.05 {
		t.Errorf("RTO jitter changed AIMD-attack damage by %.3f; the paper says it cannot defend it", delta)
	}

	aredAIMD := get("adaptive-red", "aimd")
	if aredAIMD.Degradation > noneAIMD.Degradation-0.05 {
		t.Errorf("Adaptive RED did not reduce AIMD-attack damage: %.3f -> %.3f",
			noneAIMD.Degradation, aredAIMD.Degradation)
	}
}

func TestDefenseStudyValidation(t *testing.T) {
	bad := experiments.DefaultDefenseStudyConfig()
	bad.Flows = 0
	if _, err := figures.DefenseStudy(context.Background(), bad); err == nil {
		t.Error("zero flows accepted")
	}
	bad = experiments.DefaultDefenseStudyConfig()
	bad.Measure = 0
	if _, err := figures.DefenseStudy(context.Background(), bad); err == nil {
		t.Error("zero measure accepted")
	}
	if _, err := experiments.FindDefenseResult(nil, "none", "aimd"); err == nil {
		t.Error("missing result accepted")
	}
}

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
	results, err := figures.DetectorROCStudy(context.Background(), figures.ROCStudyConfig{
		Topology:   dumbbell(8),
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
	byName := map[string]experiments.ROCResult{}
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
	if _, err := figures.DetectorROCStudy(context.Background(), figures.ROCStudyConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}
