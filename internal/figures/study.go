package figures

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"pulsedos/internal/detect"
	"pulsedos/internal/experiments"
	"pulsedos/internal/optimize"
	"pulsedos/internal/scenario"
)

// The studies behind the public facade and pdos-detect. Each compiles its
// configuration to scenario documents, runs them through runDocs, and folds
// the artifacts into typed results. A study with a figure shares its compile
// and fold with that figure: GainSweep and ShrewStudy with the gain figures,
// MaximizationStudy with ext-maximization, DefenseStudy with ext-defense.
// DetectionStudy and DetectorROCStudy score the rate.csv series with
// detectors. Studies run uncached.

// SweepConfig parameterizes one gain-vs-γ curve: a no-attack baseline run
// that measures Ψ_normal and calibrates the model's RTTs, then one attacked
// run per γ with the period solved from γ = R_attack·T_extent/(R_bottle·T_AIMD).
type SweepConfig struct {
	// Topology and Seed describe the environment every run of the curve
	// builds, as a scenario document states it: Flows 0 and Seed 0 keep the
	// kind's defaults.
	Topology scenario.Topology
	Seed     uint64

	AttackRate float64       // R_attack, bps
	Extent     time.Duration // T_extent
	Kappa      float64       // risk preference κ
	Gammas     []float64     // target γ grid, each in (0, 1)

	Warmup  time.Duration
	Measure time.Duration

	// Parallel bounds the number of runs simulated concurrently (each on its
	// own kernel, so results stay deterministic). 0 or 1 runs sequentially.
	Parallel int
}

// GainSweep produces one curve. Grid points whose period would be shorter
// than the pulse are unreachable and skipped.
func GainSweep(ctx context.Context, cfg SweepConfig) ([]experiments.GainPoint, error) {
	c, err := compileGainCurve("gain-sweep", cfg)
	if err != nil {
		return nil, err
	}
	arts, err := runDocs(ctx, c.docs(), Options{Parallel: cfg.Parallel})
	if err != nil {
		return nil, err
	}
	return c.points(arts)
}

// ShrewStudyConfig parameterizes a Fig. 10 curve.
type ShrewStudyConfig struct {
	Sweep        SweepConfig
	MinRTO       time.Duration // victims' minimum retransmission timeout
	MaxHarmonic  int           // largest n considered (paper: n ∈ [1, minRTO]); 0 means 5
	ToleranceRel float64       // relative period tolerance; 0 means 0.08
}

// ShrewStudy runs the sweep and flags shrew-resonant grid points.
func ShrewStudy(ctx context.Context, cfg ShrewStudyConfig) ([]experiments.ShrewPoint, error) {
	if cfg.MaxHarmonic < 1 {
		cfg.MaxHarmonic = 5
	}
	if cfg.ToleranceRel <= 0 {
		cfg.ToleranceRel = 0.08
	}
	points, err := GainSweep(ctx, cfg.Sweep)
	if err != nil {
		return nil, err
	}
	return shrewPoints(points, cfg.MinRTO, cfg.MaxHarmonic, cfg.ToleranceRel), nil
}

// shrewPoints annotates each point with its minRTO/n harmonic, if any.
func shrewPoints(points []experiments.GainPoint, minRTO time.Duration, maxHarmonic int, tolRel float64) []experiments.ShrewPoint {
	out := make([]experiments.ShrewPoint, len(points))
	for i, p := range points {
		n, ok := experiments.ShrewHarmonic(p.PeriodSec, minRTO, maxHarmonic, tolRel)
		out[i] = experiments.ShrewPoint{GainPoint: p, Shrew: ok, Harmonic: n}
	}
	return out
}

// maximizationStudy is the §4.1.2 comparison compiled to documents: one
// dumbbell gain curve per (R_attack, T_extent) setting.
type maximizationStudy struct {
	kappa    float64
	gridStep float64
	curves   curveSet
}

// compileMaximization checks the configuration and compiles every setting's
// curve.
func compileMaximization(cfg experiments.MaximizationStudyConfig) (*maximizationStudy, error) {
	// A document reads flows 0 as the kind default, which would silently
	// change what the study measures.
	if cfg.Flows < 1 || len(cfg.Settings) == 0 {
		return nil, errors.New("figures: maximization study needs flows and settings")
	}
	if len(cfg.Gammas) < 3 {
		return nil, errors.New("figures: maximization study needs a real gamma grid")
	}
	m := &maximizationStudy{kappa: cfg.Kappa, gridStep: 1}
	for i := 1; i < len(cfg.Gammas); i++ {
		if step := cfg.Gammas[i] - cfg.Gammas[i-1]; step > 0 && step < m.gridStep {
			m.gridStep = step
		}
	}
	for _, st := range cfg.Settings {
		label := fmt.Sprintf("R=%.0fM Textent=%dms", st.Rate/1e6, st.Extent.Milliseconds())
		name := fmt.Sprintf("ext-maximization/rate=%.0fM/extent=%dms", st.Rate/1e6, st.Extent.Milliseconds())
		c, err := compileGainCurve(name, SweepConfig{
			Topology:   scenario.Topology{Kind: "dumbbell", Flows: cfg.Flows},
			Seed:       cfg.Seed,
			AttackRate: st.Rate,
			Extent:     st.Extent,
			Kappa:      cfg.Kappa,
			Gammas:     cfg.Gammas,
			Warmup:     cfg.Warmup,
			Measure:    cfg.Measure,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		m.curves.add(label, c)
	}
	return m, nil
}

// fold compares, per setting, the analytic γ* (Proposition 3 on the curve's
// implied C_Ψ) with the measured gain peak. A setting with no feasible grid
// point yields no row; γ* is NaN when Proposition 3 has no optimum.
func (m *maximizationStudy) fold(arts [][]Artifacts) ([]experiments.MaximizationPoint, error) {
	var out []experiments.MaximizationPoint
	for i, label := range m.curves.labels {
		points, err := m.curves.points(arts, i)
		if err != nil {
			return nil, err
		}
		if len(points) == 0 {
			continue
		}
		peak, err := experiments.PeakPoint(points)
		if err != nil {
			return nil, err
		}
		gammaStar := math.NaN()
		analyticPeak := 0.0
		if g, err := optimize.OptimalGamma(experiments.ImpliedCPsi(points), m.kappa); err == nil {
			gammaStar = g
			for _, p := range points {
				if p.AnalyticGain > analyticPeak {
					analyticPeak = p.AnalyticGain
				}
			}
		}
		out = append(out, experiments.MaximizationPoint{
			Label:             label,
			AnalyticGammaStar: gammaStar,
			MeasuredPeakGamma: peak.Gamma,
			AnalyticPeakGain:  analyticPeak,
			MeasuredPeakGain:  peak.MeasuredGain,
			GridStep:          m.gridStep,
			Class:             experiments.ClassifyGain(points, 0.05),
		})
	}
	return out, nil
}

// MaximizationStudy locates the analytic and the measured gain peak of every
// setting (§4.1.2). cfg.Seed seeds every topology; a document cannot state
// seed 0, so it is rejected.
func MaximizationStudy(ctx context.Context, cfg experiments.MaximizationStudyConfig) ([]experiments.MaximizationPoint, error) {
	if cfg.Seed == 0 {
		return nil, errors.New("figures: maximization study needs a nonzero seed")
	}
	m, err := compileMaximization(cfg)
	if err != nil {
		return nil, err
	}
	arts, err := runDocs(ctx, m.curves.docs, Options{})
	if err != nil {
		return nil, err
	}
	return m.fold(arts)
}

// The defense study's axes, in result order.
var (
	studyDefenses = []string{"none", "rto-jitter", "adaptive-red"}
	studyAttacks  = []string{"aimd", "shrew"}
)

// compileDefense compiles the §1.1 defense study: per defense, one baseline
// plus one run per attack archetype, in studyDefenses × studyAttacks order.
func compileDefense(cfg experiments.DefenseStudyConfig) ([]scenario.Config, error) {
	// A document reads flows 0 as the kind default and rtoMinMs 0 as the
	// stack default, so either would silently change what the study measures.
	if cfg.Flows < 1 || cfg.AttackRate <= 0 || cfg.Extent <= 0 || cfg.MinRTO <= 0 {
		return nil, errors.New("figures: invalid defense study config")
	}
	if cfg.Measure <= 0 {
		return nil, errors.New("figures: defense study needs a measurement window")
	}
	var docs []scenario.Config
	for _, defense := range studyDefenses {
		top := scenario.Topology{Kind: "dumbbell", Flows: cfg.Flows, RTOMinMs: ms(cfg.MinRTO)}
		switch defense {
		case "rto-jitter":
			top.RTOJitter = cfg.RTOJitter
		case "adaptive-red":
			top.AdaptiveRED = true
		}
		base := scenario.Config{
			Name:       "ext-defense/" + defense + "/baseline",
			Topology:   top,
			WarmupSec:  cfg.Warmup.Seconds(),
			MeasureSec: cfg.Measure.Seconds(),
			Seed:       cfg.Seed,
		}
		docs = append(docs, base)
		for _, atk := range studyAttacks {
			d := base
			d.Name = "ext-defense/" + defense + "/" + atk
			switch atk {
			case "aimd":
				d.Attack = &scenario.Attack{
					Kind:     "aimd",
					RateMbps: cfg.AttackRate / 1e6,
					ExtentMs: ms(cfg.Extent),
					PeriodMs: ms(cfg.AIMDPeriod),
				}
			case "shrew":
				// The shrew period resolves at run time from the victims'
				// RTO floor (minRTO/harmonic), which the topology's rtoMinMs
				// pins to cfg.MinRTO.
				d.Attack = &scenario.Attack{
					Kind:     "shrew",
					RateMbps: cfg.AttackRate / 1e6,
					ExtentMs: ms(cfg.Extent),
					Harmonic: 1,
				}
			}
			docs = append(docs, d)
		}
	}
	return docs, nil
}

// foldDefense reads each cell's degradation off the delivery accounts of its
// run and of the same defense's baseline.
func foldDefense(cfg experiments.DefenseStudyConfig, arts [][]Artifacts) ([]experiments.DefenseResult, error) {
	mbps := func(bytes uint64) float64 { return float64(bytes) * 8 / cfg.Measure.Seconds() / 1e6 }
	stride := 1 + len(studyAttacks)
	var out []experiments.DefenseResult
	for di, defense := range studyDefenses {
		base, err := decodeSummary(arts[di*stride][0])
		if err != nil {
			return nil, err
		}
		if base.Delivered == 0 {
			return nil, fmt.Errorf("figures: defense %q baseline delivered nothing", defense)
		}
		for ai, atk := range studyAttacks {
			sum, err := decodeSummary(arts[di*stride+1+ai][0])
			if err != nil {
				return nil, err
			}
			deg := 1 - float64(sum.Delivered)/float64(base.Delivered)
			if deg < 0 {
				deg = 0
			}
			out = append(out, experiments.DefenseResult{
				Defense:        defense,
				Attack:         atk,
				Degradation:    deg,
				BaselineMbps:   mbps(base.Delivered),
				AttackedMbps:   mbps(sum.Delivered),
				Timeouts:       sum.Timeouts,
				FastRecoveries: sum.FastRecoveries,
			})
		}
	}
	return out, nil
}

// DefenseStudy measures every (defense, attack) combination. It reproduces
// the paper's §1.1 argument: randomizing the timeout value defends the
// timeout-based (shrew) attack but cannot defend the AIMD-based attack,
// whose timing does not rely on TCP timeout values. cfg.Seed seeds every
// topology; a document cannot state seed 0, so it is rejected.
func DefenseStudy(ctx context.Context, cfg experiments.DefenseStudyConfig) ([]experiments.DefenseResult, error) {
	if cfg.Seed == 0 {
		return nil, errors.New("figures: defense study needs a nonzero seed")
	}
	docs, err := compileDefense(cfg)
	if err != nil {
		return nil, err
	}
	arts, err := runDocs(ctx, docs, Options{})
	if err != nil {
		return nil, err
	}
	return foldDefense(cfg, arts)
}

// defaultRateBin is the detectors' input bin when a study leaves it unset.
const defaultRateBin = 50 * time.Millisecond

// DetectionStudyConfig parameterizes the risk-model validation experiment:
// the same attack at each γ of a grid, with every detector scoring the
// bottleneck's binned arrivals — the evidence behind the (1-γ)^κ risk factor.
type DetectionStudyConfig struct {
	// Topology and Seed describe the environment every run builds, as in
	// SweepConfig: Flows 0 and Seed 0 keep the kind's defaults.
	Topology scenario.Topology
	Seed     uint64

	AttackRate float64       // R_attack, bps
	Extent     time.Duration // T_extent
	Gammas     []float64     // γ grid, each in (0, 1)
	Warmup     time.Duration
	Measure    time.Duration
	RateBin    time.Duration // detector input bin; 0 means 50 ms
	Detectors  []detect.Detector
}

// DetectionStudy runs the attack as one gamma sweep carrier and scores each
// point's rate series with every detector. Grid points whose period would be
// shorter than the pulse are unreachable and skipped.
func DetectionStudy(ctx context.Context, cfg DetectionStudyConfig) ([]experiments.DetectionPoint, error) {
	if len(cfg.Detectors) == 0 {
		return nil, errors.New("figures: detection study needs detectors")
	}
	if cfg.RateBin <= 0 {
		cfg.RateBin = defaultRateBin
	}
	doc := scenario.Config{
		Name:       "detection",
		Topology:   cfg.Topology,
		Attack:     &scenario.Attack{Kind: "aimd", RateMbps: cfg.AttackRate / 1e6, ExtentMs: ms(cfg.Extent)},
		WarmupSec:  cfg.Warmup.Seconds(),
		MeasureSec: cfg.Measure.Seconds(),
		RateBinMs:  ms(cfg.RateBin),
		Seed:       cfg.Seed,
	}
	params, _, err := probe(doc)
	if err != nil {
		return nil, err
	}
	gammas, err := feasibleGammas(cfg.Gammas, cfg.AttackRate, cfg.Extent, params.Bottleneck)
	if err != nil {
		return nil, err
	}
	out := make([]experiments.DetectionPoint, 0, len(gammas))
	if len(gammas) == 0 {
		return out, nil
	}
	doc.Measure = &scenario.Measure{Sweep: &scenario.Sweep{Axis: "gamma", Values: gammas}}
	arts, err := runDocs(ctx, []scenario.Config{doc}, Options{})
	if err != nil {
		return nil, err
	}
	for i, gamma := range gammas {
		bins, err := decodeRate(arts[0][i])
		if err != nil {
			return nil, err
		}
		pt := experiments.DetectionPoint{
			Gamma:  gamma,
			Scores: make(map[string]float64, len(cfg.Detectors)),
			Alarms: make(map[string]bool, len(cfg.Detectors)),
		}
		for _, d := range cfg.Detectors {
			v := d.Detect(bins, cfg.RateBin.Seconds())
			pt.Scores[d.Name()] = v.Score
			pt.Alarms[d.Name()] = v.Attack
		}
		out = append(out, pt)
	}
	return out, nil
}

// ROCStudyConfig parameterizes an empirical ROC measurement: Runs calm and
// Runs attacked runs, scored by every detector and integrated into an AUC.
type ROCStudyConfig struct {
	// Topology describes the environment every run builds, as in
	// SweepConfig; pair i (calm and attacked) is seeded i+1.
	Topology scenario.Topology

	AttackRate float64       // R_attack, bps
	Extent     time.Duration // T_extent
	Gamma      float64       // attack intensity, in (0, 1)
	Runs       int           // calm/attacked pairs; 0 means 3
	Warmup     time.Duration
	Measure    time.Duration
	RateBin    time.Duration // detector input bin; 0 means 50 ms
	Detectors  []detect.Detector
	Thresholds []float64 // score thresholds of the ROC; empty means a default ladder
}

// DetectorROCStudy measures how well each detector separates attacked from
// calm traffic at the given attack intensity.
func DetectorROCStudy(ctx context.Context, cfg ROCStudyConfig) ([]experiments.ROCResult, error) {
	if len(cfg.Detectors) == 0 {
		return nil, errors.New("figures: ROC study needs detectors")
	}
	if cfg.Runs < 1 {
		cfg.Runs = 3
	}
	if cfg.RateBin <= 0 {
		cfg.RateBin = defaultRateBin
	}
	if len(cfg.Thresholds) == 0 {
		cfg.Thresholds = []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.1, 1.5}
	}
	docs := make([]scenario.Config, 0, 2*cfg.Runs)
	for i := 0; i < cfg.Runs; i++ {
		calm := scenario.Config{
			Name:       fmt.Sprintf("detector-roc/seed=%d/calm", i+1),
			Topology:   cfg.Topology,
			WarmupSec:  cfg.Warmup.Seconds(),
			MeasureSec: cfg.Measure.Seconds(),
			RateBinMs:  ms(cfg.RateBin),
			Seed:       uint64(i + 1),
		}
		hot := calm
		hot.Name = fmt.Sprintf("detector-roc/seed=%d/attacked", i+1)
		hot.Attack = &scenario.Attack{Kind: "aimd", RateMbps: cfg.AttackRate / 1e6, ExtentMs: ms(cfg.Extent), Gamma: cfg.Gamma}
		docs = append(docs, calm, hot)
	}
	arts, err := runDocs(ctx, docs, Options{})
	if err != nil {
		return nil, err
	}
	calmTraces := make([][]float64, cfg.Runs)
	attackedTraces := make([][]float64, cfg.Runs)
	for i := range calmTraces {
		if calmTraces[i], err = decodeRate(arts[2*i][0]); err != nil {
			return nil, err
		}
		if attackedTraces[i], err = decodeRate(arts[2*i+1][0]); err != nil {
			return nil, err
		}
	}

	out := make([]experiments.ROCResult, 0, len(cfg.Detectors))
	binSec := cfg.RateBin.Seconds()
	for _, d := range cfg.Detectors {
		as, err := detect.ScoreTraces(d, attackedTraces, binSec)
		if err != nil {
			return nil, err
		}
		cs, err := detect.ScoreTraces(d, calmTraces, binSec)
		if err != nil {
			return nil, err
		}
		points := detect.ROC(as, cs, cfg.Thresholds)
		out = append(out, experiments.ROCResult{Detector: d.Name(), Points: points, AUC: detect.AUC(points)})
	}
	return out, nil
}
