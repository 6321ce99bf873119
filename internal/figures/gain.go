package figures

import (
	"errors"
	"fmt"
	"time"

	"pulsedos/internal/experiments"
	"pulsedos/internal/model"
	"pulsedos/internal/scenario"
	"pulsedos/internal/topo"
)

// ms renders a duration in fractional milliseconds — the unit scenario
// documents speak. Every paper duration is a whole number of microseconds,
// so the conversion (and the document's reverse one) is float-exact.
func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// gainCurve is one gain-vs-γ curve compiled to documents: a no-attack
// baseline carrying the "srtt" calibration tap, and (when any grid point is
// feasible) a gamma-sweep carrier whose expanded points are plain attacked
// documents. Its points() folds the artifacts into the curve — baseline SRTT
// calibration, C_Ψ, per-point degradations and gains. Every gain figure
// (Figs. 6–10, 12, the ablations, the §4.1.2 maximization points) and the
// GainSweep study compile their curves here.
type gainCurve struct {
	cfg SweepConfig

	base  scenario.Config
	sweep *scenario.Config

	params model.Params
	toCfg  model.TimeoutModelConfig
}

// probe reads the analytic parameters off the document's graph — the same
// values every run of the document (or of any point it expands to) sees in
// its own build.
func probe(doc scenario.Config) (model.Params, model.TimeoutModelConfig, error) {
	g, err := doc.Graph()
	if err != nil {
		return model.Params{}, model.TimeoutModelConfig{}, err
	}
	return topo.AnalyticModel(g)
}

// feasibleGammas filters a γ grid to the reachable points. A period shorter
// than the pulse means γ is unreachable even with back-to-back pulses — the
// attack degenerates to flooding — and the point is skipped, as the paper's
// curves do. A γ outside (0,1) is an error.
func feasibleGammas(gammas []float64, rate float64, extent time.Duration, bottleneck float64) ([]float64, error) {
	out := make([]float64, 0, len(gammas))
	for _, g := range gammas {
		if g <= 0 || g >= 1 {
			return nil, fmt.Errorf("figures: gamma %g outside (0,1)", g)
		}
		if experiments.PeriodForGamma(g, rate, extent, bottleneck) >= extent {
			out = append(out, g)
		}
	}
	return out, nil
}

// compileGainCurve resolves the curve's documents against the topology: it
// probes the analytic parameters, then sweeps the feasible γ grid points.
func compileGainCurve(name string, cfg SweepConfig) (*gainCurve, error) {
	if cfg.AttackRate <= 0 || cfg.Extent <= 0 {
		return nil, errors.New("figures: sweep needs positive attack rate and extent")
	}
	if cfg.Kappa <= 0 {
		return nil, fmt.Errorf("figures: kappa must be positive, got %g", cfg.Kappa)
	}
	if len(cfg.Gammas) == 0 {
		return nil, errors.New("figures: empty gamma grid")
	}
	c := &gainCurve{cfg: cfg}
	c.base = scenario.Config{
		Name:       name + "/baseline",
		Topology:   cfg.Topology,
		Measure:    &scenario.Measure{Taps: []string{"srtt"}},
		WarmupSec:  cfg.Warmup.Seconds(),
		MeasureSec: cfg.Measure.Seconds(),
		Seed:       cfg.Seed,
	}
	var err error
	if c.params, c.toCfg, err = probe(c.base); err != nil {
		return nil, err
	}
	feasible, err := feasibleGammas(cfg.Gammas, cfg.AttackRate, cfg.Extent, c.params.Bottleneck)
	if err != nil {
		return nil, err
	}
	if len(feasible) > 0 {
		sw := c.base
		sw.Name = name
		sw.Attack = &scenario.Attack{Kind: "aimd", RateMbps: cfg.AttackRate / 1e6, ExtentMs: ms(cfg.Extent)}
		// The sweep carrier drops the calibration tap: expanded attack points
		// are plain documents (result.json only), so they share cache entries
		// with any other figure — or serve-submitted scenario — probing the
		// same physics.
		sw.Measure = &scenario.Measure{Sweep: &scenario.Sweep{Axis: "gamma", Values: feasible}}
		c.sweep = &sw
	}
	return c, nil
}

// docs returns the curve's documents in submission order.
func (c *gainCurve) docs() []scenario.Config {
	if c.sweep == nil {
		return []scenario.Config{c.base}
	}
	return []scenario.Config{c.base, *c.sweep}
}

// points folds the curve's artifacts into GainPoints: calibrate the model
// RTTs with the baseline's measured SRTTs — the operative RTTs (propagation
// plus queueing) the victims' per-RTT window growth actually paces on —
// derive C_Ψ, then per grid point compute the measured and analytic
// degradations/gains.
func (c *gainCurve) points(arts [][]Artifacts) ([]experiments.GainPoint, error) {
	base, err := decodeSummary(arts[0][0])
	if err != nil {
		return nil, err
	}
	srtts, err := decodeSRTT(arts[0][0])
	if err != nil {
		return nil, err
	}
	params := c.params.CalibrateRTTs(srtts)
	baseline := float64(base.Delivered)
	if baseline == 0 {
		return nil, errors.New("figures: baseline delivered zero bytes; widen the window")
	}
	rate, extent, kappa := c.cfg.AttackRate, c.cfg.Extent, c.cfg.Kappa
	cPsi := params.CPsi(extent.Seconds(), rate)

	if c.sweep == nil {
		return []experiments.GainPoint{}, nil
	}
	gammas := c.sweep.Measure.Sweep.Values
	points := make([]experiments.GainPoint, len(gammas))
	for i, gamma := range gammas {
		sum, err := decodeSummary(arts[1][i])
		if err != nil {
			return nil, err
		}
		period := experiments.PeriodForGamma(gamma, rate, extent, c.params.Bottleneck)
		measuredDeg := 1 - float64(sum.Delivered)/baseline
		if measuredDeg < 0 {
			measuredDeg = 0
		}
		combinedDeg, err := params.CombinedDegradation(
			extent.Seconds(), rate, period.Seconds(), c.toCfg)
		if err != nil {
			// The TO extension is advisory: fall back to the FR-state estimate.
			combinedDeg = model.Degradation(cPsi, gamma)
		}
		points[i] = experiments.GainPoint{
			Gamma:               gamma,
			PeriodSec:           period.Seconds(),
			AnalyticDegradation: model.Degradation(cPsi, gamma),
			MeasuredDegradation: measuredDeg,
			AnalyticGain:        model.Gain(cPsi, gamma, kappa),
			MeasuredGain:        measuredDeg * model.RiskFactor(gamma, kappa),
			CombinedDegradation: combinedDeg,
			CombinedGain:        combinedDeg * model.RiskFactor(gamma, kappa),
			Timeouts:            sum.Timeouts,
			FastRecoveries:      sum.FastRecoveries,
		}
	}
	return points, nil
}

// scaleSweep is the κ = 1 curve a figure plots at the given scale.
func scaleSweep(scale experiments.Scale, top scenario.Topology, rate float64, extent time.Duration, gammas []float64) SweepConfig {
	return SweepConfig{
		Topology:   top,
		Seed:       scale.Seed,
		AttackRate: rate,
		Extent:     extent,
		Kappa:      1,
		Gammas:     gammas,
		Warmup:     scale.Warmup,
		Measure:    scale.Measure,
	}
}

// curveSet collects labelled curves and tracks where each one's documents
// land in the flattened submission list.
type curveSet struct {
	labels []string
	curves []*gainCurve
	starts []int
	docs   []scenario.Config
}

func (cs *curveSet) add(label string, c *gainCurve) {
	cs.labels = append(cs.labels, label)
	cs.curves = append(cs.curves, c)
	cs.starts = append(cs.starts, len(cs.docs))
	cs.docs = append(cs.docs, c.docs()...)
}

// points assembles curve i from the full artifact list.
func (cs *curveSet) points(arts [][]Artifacts, i int) ([]experiments.GainPoint, error) {
	start := cs.starts[i]
	return cs.curves[i].points(arts[start : start+len(cs.curves[i].docs())])
}

// note appends a formatted summary row to a figure.
func note(res *experiments.FigureResult, format string, args ...any) {
	res.Notes = append(res.Notes, fmt.Sprintf(format, args...))
}

// gainFigurePlan compiles one of Figs. 6–9: gain-vs-γ curves for each flow
// count and pulse width at the given attack rate.
func gainFigurePlan(id string, rate float64) func(experiments.Scale) (*figurePlan, error) {
	return func(scale experiments.Scale) (*figurePlan, error) {
		cs := &curveSet{}
		for _, flows := range scale.FlowCounts {
			for _, extent := range experiments.GainFigureExtents() {
				label := fmt.Sprintf("flows=%d Textent=%dms", flows, extent.Milliseconds())
				name := fmt.Sprintf("%s/flows=%d/extent=%dms", id, flows, extent.Milliseconds())
				c, err := compileGainCurve(name, scaleSweep(scale,
					scenario.Topology{Kind: "dumbbell", Flows: flows}, rate, extent, scale.Gammas))
				if err != nil {
					return nil, fmt.Errorf("%s: %w", label, err)
				}
				cs.add(label, c)
			}
		}
		return &figurePlan{
			docs: cs.docs,
			assemble: func(arts [][]Artifacts) (*experiments.FigureResult, error) {
				res := &experiments.FigureResult{
					ID:    id,
					Title: fmt.Sprintf("attack gain vs gamma, R_attack = %.0f Mbps", rate/1e6),
				}
				for i, label := range cs.labels {
					points, err := cs.points(arts, i)
					if err != nil {
						return nil, fmt.Errorf("%s %s: %w", id, label, err)
					}
					analytic, measured := experiments.GainSeries(label, points)
					res.Series = append(res.Series, analytic, measured)

					peak, err := experiments.PeakPoint(points)
					if err != nil {
						return nil, err
					}
					note(res, "%s: class=%s, measured peak gain %.3f at gamma=%.2f",
						label, experiments.ClassifyGain(points, 0.05), peak.MeasuredGain, peak.Gamma)
				}
				return res, nil
			},
		}, nil
	}
}
