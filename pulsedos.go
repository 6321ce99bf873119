// Package pulsedos is a from-scratch reproduction of "Optimizing the Pulsing
// Denial-of-Service Attacks" (Luo & Chang, DSN 2005). It bundles:
//
//   - an analytical model of the AIMD-based PDoS attack (converged window,
//     throughput degradation Γ, attack gain G = Γ·(1-γ)^κ);
//   - the closed-form attack optimizer of Propositions 3–4 with the
//     risk-averse / risk-neutral / risk-loving corollaries;
//   - a deterministic packet-level network simulator (TCP NewReno/Reno/Tahoe
//     with generalized AIMD(a,b), RED and drop-tail queues, pulse-train
//     attack sources) standing in for the paper's ns-2 environment;
//   - a Dummynet-style test-bed emulation on the same simulator; and
//   - the experiment harness that regenerates every figure of the paper's
//     evaluation (§4).
//
// The package is a facade: it re-exports the stable surface of the internal
// packages so applications depend on one import path. The studies — GainSweep,
// ShrewStudy, MaximizationStudy and DefenseStudy — run the same scenario
// documents as the figures they back (internal/figures), so a study's result
// is exactly what the matching figure plots; MiceStudy runs the workload the
// ext-mice figure's documents name.
//
// # Quick start
//
//	params := pulsedos.ModelParams{
//		AIMD:       pulsedos.TCPAIMD(),
//		AckRatio:   1,
//		PacketSize: 1040,
//		Bottleneck: 15e6,
//		RTTs:       []float64{0.02, 0.24, 0.46},
//	}
//	plan, err := pulsedos.PlanAttack(params, 0.075, 35e6, 1) // κ = 1
//	// plan.Period is the optimal T_AIMD; plan.Gain the predicted gain.
//
// Use BuildDumbbell / BuildTestbed plus Run, or GainSweep on a Topology, to
// validate plans in simulation, exactly as the paper validates with ns-2 and
// its test-bed.
package pulsedos

import (
	"context"
	"time"

	"pulsedos/internal/analysis"
	"pulsedos/internal/attack"
	"pulsedos/internal/detect"
	"pulsedos/internal/experiments"
	"pulsedos/internal/figures"
	"pulsedos/internal/model"
	"pulsedos/internal/optimize"
	"pulsedos/internal/rng"
	"pulsedos/internal/scenario"
	"pulsedos/internal/sim"
	"pulsedos/internal/topo"
)

// Core analytic-model surface.
type (
	// ModelParams describes the victim population and bottleneck (the
	// paper's a, b, d, S_packet, R_bottle, and RTT set).
	ModelParams = model.Params
	// AIMD carries the general AIMD(a,b) parameters.
	AIMD = model.AIMD
	// Attack describes one uniform pulse train analytically.
	AttackSpec = model.Attack
	// RiskPreference classifies κ (risk-loving / neutral / averse).
	RiskPreference = model.RiskPreference
	// Plan is a fully resolved optimal attack.
	Plan = optimize.Plan
)

// Risk-preference classes re-exported from the model.
const (
	RiskLoving  = model.RiskLoving
	RiskNeutral = model.RiskNeutral
	RiskAverse  = model.RiskAverse
)

// TCPAIMD returns AIMD(1, 0.5), the parameters of standard TCP.
func TCPAIMD() AIMD { return model.TCPAIMD() }

// Degradation evaluates Γ = 1 - C_Ψ/γ (Proposition 2).
func Degradation(cPsi, gamma float64) float64 { return model.Degradation(cPsi, gamma) }

// RiskFactor evaluates (1-γ)^κ (Fig. 4).
func RiskFactor(gamma, kappa float64) float64 { return model.RiskFactor(gamma, kappa) }

// Gain evaluates the attack gain G = Γ·(1-γ)^κ (Eq. 5/12).
func Gain(cPsi, gamma, kappa float64) float64 { return model.Gain(cPsi, gamma, kappa) }

// ClassifyRisk maps κ to its preference class.
func ClassifyRisk(kappa float64) RiskPreference { return model.ClassifyRisk(kappa) }

// OptimalGamma evaluates Proposition 3's closed-form maximizer γ*.
func OptimalGamma(cPsi, kappa float64) (float64, error) {
	return optimize.OptimalGamma(cPsi, kappa)
}

// PlanAttack computes the optimal attack period for a victim population,
// pulse width (seconds), pulse rate (bps), and risk preference κ
// (Proposition 4 / Corollary 4).
func PlanAttack(p ModelParams, extentSec, rate, kappa float64) (Plan, error) {
	return optimize.PlanAttack(p, extentSec, rate, kappa)
}

// SensitivityPoint quantifies the regret of planning on a mis-estimated C_Ψ.
type SensitivityPoint = optimize.SensitivityPoint

// Sensitivity evaluates plan robustness to C_Ψ estimation error.
func Sensitivity(trueCPsi, kappa float64, factors []float64) ([]SensitivityPoint, error) {
	return optimize.Sensitivity(trueCPsi, kappa, factors)
}

// Attack-traffic surface.
type (
	// Pulse is one burst of a pulse train.
	Pulse = attack.Pulse
	// Train is a finite pulse sequence A(Textent, Rattack, Tspace, N).
	Train = attack.Train
)

// UniformTrain builds N identical pulses (the analysis's assumption).
func UniformTrain(extent time.Duration, rate float64, space time.Duration, n int) Train {
	return attack.Uniform(sim.FromDuration(extent), rate, sim.FromDuration(space), n)
}

// AIMDTrain builds a uniform train from the attack period T_AIMD.
func AIMDTrain(extent time.Duration, rate float64, period time.Duration, n int) (Train, error) {
	return attack.AIMDTrain(sim.FromDuration(extent), rate, sim.FromDuration(period), n)
}

// ShrewTrain builds a timeout-based (shrew) train resonating with minRTO.
func ShrewTrain(extent time.Duration, rate float64, minRTO time.Duration, harmonic, n int) (Train, error) {
	return attack.ShrewTrain(sim.FromDuration(extent), rate, sim.FromDuration(minRTO), harmonic, n)
}

// FloodTrain builds the flooding baseline (one continuous burst).
func FloodTrain(rate float64, duration time.Duration) Train {
	return attack.FloodTrain(rate, sim.FromDuration(duration))
}

// JitteredTrain builds a train with ±jitterFrac randomized inter-pulse gaps
// (same mean γ), the natural evasion against pulse-shape detectors.
func JitteredTrain(extent time.Duration, rate float64, space time.Duration, n int, jitterFrac float64, seed uint64) (Train, error) {
	return attack.JitteredTrain(sim.FromDuration(extent), rate, sim.FromDuration(space),
		n, jitterFrac, rng.New(seed))
}

// Simulation-environment surface.
type (
	// DumbbellConfig parameterizes the Fig. 5 ns-2 topology.
	DumbbellConfig = topo.DumbbellConfig
	// TestbedConfig parameterizes the Fig. 11 Dummynet test-bed.
	TestbedConfig = topo.TestbedConfig
	// Environment abstracts either topology for the runners.
	Environment = experiments.Environment
	// RunOptions parameterizes one scenario execution.
	RunOptions = experiments.RunOptions
	// RunResult carries a scenario's measurements.
	RunResult = experiments.RunResult
	// Topology names an evaluation environment the way a scenario document
	// does (kind, flows, overrides); the studies build every run from it.
	Topology = scenario.Topology
	// SweepConfig parameterizes a gain-vs-γ curve.
	SweepConfig = figures.SweepConfig
	// GainPoint is one sample of a gain curve.
	GainPoint = experiments.GainPoint
	// GainClass is the §4.1.1 normal/under/over-gain taxonomy.
	GainClass = experiments.GainClass
	// SyncResult is a Fig. 3 synchronization snapshot.
	SyncResult = experiments.SyncResult
	// ShrewPoint annotates a sweep sample with shrew-resonance status.
	ShrewPoint = experiments.ShrewPoint
	// ShrewStudyConfig parameterizes a Fig. 10 study.
	ShrewStudyConfig = figures.ShrewStudyConfig
	// CwndSample is one point of a Fig. 1 window trace.
	CwndSample = experiments.CwndSample
	// Series is a labelled curve for CSV export.
	Series = experiments.Series
	// Point is one (x, y) sample.
	Point = experiments.Point
	// DetectionPoint reports detector verdicts at one γ.
	DetectionPoint = experiments.DetectionPoint
	// Detector is the detection-algorithm interface.
	Detector = detect.Detector
)

// Gain classes re-exported from the experiment harness.
const (
	NormalGain = experiments.NormalGain
	UnderGain  = experiments.UnderGain
	OverGain   = experiments.OverGain
)

// DefaultDumbbellConfig returns the paper's ns-2 settings.
func DefaultDumbbellConfig(flows int) DumbbellConfig {
	return topo.DefaultDumbbellConfig(flows)
}

// DefaultTestbedConfig returns the paper's test-bed settings.
func DefaultTestbedConfig(flows int) TestbedConfig {
	return topo.DefaultTestbedConfig(flows)
}

// BuildDumbbell wires a Fig. 5 dumbbell environment.
func BuildDumbbell(cfg DumbbellConfig) (*topo.Environment, error) {
	return topo.Build(topo.Dumbbell(cfg), topo.Options{})
}

// BuildShardedDumbbell wires the Fig. 5 dumbbell across `workers` shards of
// the conservative parallel engine. Results match the serial BuildDumbbell
// except where two shard-boundary events tie exactly (DESIGN.md §9); call
// Close when done to join the shard goroutines.
func BuildShardedDumbbell(cfg DumbbellConfig, workers int) (*topo.Environment, error) {
	return topo.Build(topo.Dumbbell(cfg), topo.Options{Workers: workers})
}

// BuildTestbed wires a Fig. 11 test-bed environment.
func BuildTestbed(cfg TestbedConfig) (*topo.Environment, error) {
	return topo.Build(topo.Testbed(cfg), topo.Options{})
}

// Run executes one scenario on a freshly built environment.
func Run(env Environment, opt RunOptions) (*RunResult, error) {
	return experiments.Run(env, opt)
}

// GainSweep produces one gain-vs-γ curve (analytic + measured).
func GainSweep(cfg SweepConfig) ([]GainPoint, error) {
	return figures.GainSweep(context.Background(), cfg)
}

// ClassifyGain reduces a curve to its §4.1.1 class.
func ClassifyGain(points []GainPoint, tol float64) GainClass {
	return experiments.ClassifyGain(points, tol)
}

// SyncSnapshot reproduces a Fig. 3 quasi-global-synchronization snapshot.
func SyncSnapshot(env Environment, train Train, warmup, duration, bin time.Duration, frames int) (*SyncResult, error) {
	return experiments.SyncSnapshot(env, train, warmup, duration, bin, frames)
}

// ShrewStudy runs a Fig. 10 resonance study.
func ShrewStudy(cfg ShrewStudyConfig) ([]ShrewPoint, error) {
	return figures.ShrewStudy(context.Background(), cfg)
}

// CwndTrace records a victim's congestion window under attack (Fig. 1).
func CwndTrace(env Environment, train Train, flowIdx int, warmup, duration time.Duration) ([]CwndSample, error) {
	return experiments.CwndTrace(env, train, flowIdx, warmup, duration)
}

// RiskCurves evaluates the Fig. 4 family (1-γ)^κ.
func RiskCurves(kappas []float64, n int) []Series {
	return experiments.RiskCurves(kappas, n)
}

// PAA computes the piecewise aggregate approximation used in Fig. 3.
func PAA(series []float64, frames int) ([]float64, error) {
	return analysis.PAA(series, frames)
}

// PeriodForGamma solves γ = R_attack·T_extent/(R_bottle·T_AIMD) for T_AIMD.
func PeriodForGamma(gamma, attackRate float64, extent time.Duration, bottleneck float64) time.Duration {
	return experiments.PeriodForGamma(gamma, attackRate, extent, bottleneck)
}

// DefaultGammaGrid returns the sweep grid used throughout the reproduction.
func DefaultGammaGrid() []float64 { return experiments.DefaultGammaGrid() }

// CoarseGammaGrid returns a cheap 5-point grid for demos and benches.
func CoarseGammaGrid() []float64 { return experiments.CoarseGammaGrid() }

// Detection-evaluation surface.
type (
	// ROCStudyConfig parameterizes an empirical detector-ROC measurement.
	ROCStudyConfig = figures.ROCStudyConfig
	// ROCResult reports one detector's discrimination power (AUC).
	ROCResult = experiments.ROCResult
	// ROCPoint is one (threshold, TPR, FPR) operating point.
	ROCPoint = detect.ROCPoint
)

// DetectorROCStudy measures how well detectors separate attacked from calm
// simulated traffic at a given attack intensity.
func DetectorROCStudy(cfg ROCStudyConfig) ([]ROCResult, error) {
	return figures.DetectorROCStudy(context.Background(), cfg)
}

// ROC sweeps a score threshold over evidence scores from attacked and calm
// traces.
func ROC(attackScores, calmScores, thresholds []float64) []ROCPoint {
	return detect.ROC(attackScores, calmScores, thresholds)
}

// AUC integrates an ROC curve (0.5 = chance, 1.0 = perfect).
func AUC(points []ROCPoint) float64 { return detect.AUC(points) }

// Maximization-point surface (§4.1.2).
type (
	// MaximizationStudyConfig parameterizes the peak-location comparison.
	MaximizationStudyConfig = experiments.MaximizationStudyConfig
	// MaximizationPoint compares analytic gamma* to the measured peak.
	MaximizationPoint = experiments.MaximizationPoint
	// MaximizationSetting is one (R_attack, T_extent) cell.
	MaximizationSetting = experiments.MaximizationSetting
)

// DefaultMaximizationStudyConfig compares the paper's normal-gain settings.
func DefaultMaximizationStudyConfig() MaximizationStudyConfig {
	return experiments.DefaultMaximizationStudyConfig()
}

// MaximizationStudy locates analytic vs measured gain peaks per setting.
func MaximizationStudy(cfg MaximizationStudyConfig) ([]MaximizationPoint, error) {
	return figures.MaximizationStudy(context.Background(), cfg)
}

// Workload-study surface.
type (
	// MiceConfig parameterizes the mice-vs-elephants FCT study.
	MiceConfig = experiments.MiceConfig
	// MiceResult aggregates flow-completion-time outcomes.
	MiceResult = experiments.MiceResult
)

// DefaultMiceConfig returns a moderate short-flow workload.
func DefaultMiceConfig() MiceConfig { return experiments.DefaultMiceConfig() }

// MiceStudy measures short-flow completion times under an optional attack.
func MiceStudy(cfg MiceConfig) (*MiceResult, error) { return experiments.MiceStudy(cfg) }

// Defense-evaluation surface.
type (
	// DefenseStudyConfig parameterizes the §1.1 defense comparison.
	DefenseStudyConfig = experiments.DefenseStudyConfig
	// DefenseResult is one (defense, attack) cell of the comparison.
	DefenseResult = experiments.DefenseResult
)

// DefaultDefenseStudyConfig returns a study contrasting RTO randomization
// and Adaptive RED against the AIMD-based and shrew attacks.
func DefaultDefenseStudyConfig() DefenseStudyConfig {
	return experiments.DefaultDefenseStudyConfig()
}

// DefenseStudy measures every (defense, attack) combination.
func DefenseStudy(cfg DefenseStudyConfig) ([]DefenseResult, error) {
	return figures.DefenseStudy(context.Background(), cfg)
}

// NewThresholdDetector builds the classic volume (flooding) detector.
func NewThresholdDetector(capacityBps, fraction float64, windowBins int) (Detector, error) {
	return detect.NewThreshold(capacityBps, fraction, windowBins)
}

// NewCUSUMDetector builds a change-point detector on the traffic series.
func NewCUSUMDetector(calibBins int, drift, h float64) (Detector, error) {
	return detect.NewCUSUM(calibBins, drift, h)
}

// NewDTWDetector builds a pulse-shape detector (Sun/Lui/Yau style).
func NewDTWDetector(templateBins int, dutyCycle, threshold float64) (Detector, error) {
	return detect.NewDTW(templateBins, dutyCycle, threshold)
}

// NewSpectralDetector builds a power-spectral-density detector that flags a
// dominant periodic component within [minPeriodSec, maxPeriodSec].
func NewSpectralDetector(minFraction, minPeriodSec, maxPeriodSec float64) (Detector, error) {
	return detect.NewSpectral(minFraction, minPeriodSec, maxPeriodSec)
}
