package figures

import (
	"fmt"

	"pulsedos/internal/experiments"
	"pulsedos/internal/scenario"
)

// ablationPlan compiles a §5 ablation: one gain curve per topology variant at
// the shared ablation attack point, with per-arm series selected by the
// caller (the AQM and packet-size ablations plot measured-only curves).
func ablationPlan(
	id, title string,
	arms []struct {
		label string
		top   scenario.Topology
	},
	measuredOnly bool,
	peakNotes bool,
	trailingNote string,
) func(experiments.Scale) (*figurePlan, error) {
	return func(scale experiments.Scale) (*figurePlan, error) {
		cs := &curveSet{}
		for _, arm := range arms {
			c, err := compileGainCurve(id+"/"+arm.label, scaleSweep(scale, arm.top,
				experiments.AblationRate, experiments.AblationExtent, scale.Gammas))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", arm.label, err)
			}
			cs.add(arm.label, c)
		}
		return &figurePlan{
			docs: cs.docs,
			assemble: func(arts [][]Artifacts) (*experiments.FigureResult, error) {
				res := &experiments.FigureResult{ID: id, Title: title}
				for i, label := range cs.labels {
					points, err := cs.points(arts, i)
					if err != nil {
						return nil, err
					}
					analytic, measured := experiments.GainSeries(label, points)
					if measuredOnly {
						res.Series = append(res.Series, measured)
					} else {
						res.Series = append(res.Series, analytic, measured)
					}
					if peakNotes {
						peak, err := experiments.PeakPoint(points)
						if err != nil {
							return nil, err
						}
						note(res, "%s: peak measured gain %.3f at gamma=%.2f",
							label, peak.MeasuredGain, peak.Gamma)
					}
				}
				if trailingNote != "" {
					note(res, "%s", trailingNote)
				}
				return res, nil
			},
		}, nil
	}
}

func dumbbell15(mutate func(*scenario.Topology)) scenario.Topology {
	top := scenario.Topology{Kind: "dumbbell", Flows: 15}
	if mutate != nil {
		mutate(&top)
	}
	return top
}

type ablationArm = struct {
	label string
	top   scenario.Topology
}

// aqmPlan compiles the RED vs drop-tail vs Adaptive RED comparison.
var aqmPlan = ablationPlan("ablation-aqm", "RED vs drop-tail vs Adaptive RED under PDoS",
	[]ablationArm{
		{"red", dumbbell15(nil)},
		{"droptail", dumbbell15(func(t *scenario.Topology) { t.DropTail = true })},
		{"adaptive-red", dumbbell15(func(t *scenario.Topology) { t.AdaptiveRED = true })},
	}, true, true, "")

// dackPlan compiles the delayed-ACK ratio comparison (the d in Eq. 1).
var dackPlan = ablationPlan("ablation-dack", "delayed-ACK ratio d under PDoS",
	[]ablationArm{
		{"d=1", dumbbell15(func(t *scenario.Topology) { t.AckEvery = 1 })},
		{"d=2", dumbbell15(func(t *scenario.Topology) { t.AckEvery = 2 })},
	}, false, false,
	"Eq. 1: Wc scales as 1/d, so d=2 victims hold smaller windows and degrade more")

// aimdPlan compiles the AIMD(a,b) variant comparison.
var aimdPlan = ablationPlan("ablation-aimd", "AIMD(a,b) variants under PDoS",
	[]ablationArm{
		{"AIMD(1,0.5)", dumbbell15(func(t *scenario.Topology) {
			t.AIMDIncreaseA = 1
			t.AIMDDecreaseB = 0.5
		})},
		{"AIMD(0.5,0.875)", dumbbell15(func(t *scenario.Topology) {
			t.AIMDIncreaseA = 0.5
			t.AIMDDecreaseB = 0.875
		})},
	}, false, false, "")

// pktsizePlan compiles the attack-packet-size comparison under packet-mode
// RED.
var pktsizePlan = ablationPlan("ablation-pktsize", "attack packet size vs gain (packet-mode RED)",
	[]ablationArm{
		{"pkt=1000B", dumbbell15(func(t *scenario.Topology) { t.AttackPacketBytes = 1000 })},
		{"pkt=50B", dumbbell15(func(t *scenario.Topology) { t.AttackPacketBytes = 50 })},
	}, true, true, "")

// defensePlan compiles the §1.1 defense study (DefenseStudy's documents at
// the figure scale) and plots each attack's degradation per defense.
func defensePlan(scale experiments.Scale) (*figurePlan, error) {
	cfg := experiments.DefaultDefenseStudyConfig()
	cfg.Warmup = scale.Warmup
	cfg.Measure = scale.Measure
	cfg.Seed = scale.Seed
	docs, err := compileDefense(cfg)
	if err != nil {
		return nil, err
	}
	return &figurePlan{
		docs: docs,
		assemble: func(arts [][]Artifacts) (*experiments.FigureResult, error) {
			results, err := foldDefense(cfg, arts)
			if err != nil {
				return nil, err
			}
			res := &experiments.FigureResult{
				ID:    "ext-defense",
				Title: "RTO randomization & Adaptive RED vs both attack archetypes",
			}
			for _, r := range results {
				note(res, "%s vs %s: degradation %.3f (TO=%d FR=%d)",
					r.Defense, r.Attack, r.Degradation, r.Timeouts, r.FastRecoveries)
			}
			for _, atk := range studyAttacks {
				s := experiments.Series{Label: atk + " degradation"}
				for _, r := range results {
					if r.Attack == atk {
						s.Points = append(s.Points, experiments.Point{X: float64(len(s.Points)), Y: r.Degradation})
					}
				}
				res.Series = append(res.Series, s)
			}
			return res, nil
		},
	}, nil
}

// micePlan compiles the mice-vs-elephants FCT study: a baseline and an
// attacked run of the structured workload, compared by completion times.
func micePlan(scale experiments.Scale) (*figurePlan, error) {
	cfg := experiments.DefaultMiceConfig()
	cfg.Warmup = scale.Warmup
	cfg.Measure = scale.Measure
	cfg.Seed = scale.Seed
	base := scenario.Config{
		Name:     "ext-mice/baseline",
		Topology: scenario.Topology{Kind: "dumbbell", Flows: cfg.Elephants + cfg.Mice},
		Workload: &scenario.Workload{
			Kind:           "mice",
			Elephants:      cfg.Elephants,
			Mice:           cfg.Mice,
			MiceSegments:   cfg.MiceSegments,
			ArrivalSpanSec: cfg.ArrivalSpan.Seconds(),
		},
		WarmupSec:  cfg.Warmup.Seconds(),
		MeasureSec: cfg.Measure.Seconds(),
		Seed:       cfg.Seed,
	}
	attacked := base
	attacked.Name = "ext-mice/attacked"
	attacked.Attack = &scenario.Attack{
		Kind:     "aimd",
		RateMbps: experiments.MiceAttackRate / 1e6,
		ExtentMs: ms(experiments.MiceAttackExtent),
		PeriodMs: ms(experiments.MiceAttackPeriod),
	}
	return &figurePlan{
		docs: []scenario.Config{base, attacked},
		assemble: func(arts [][]Artifacts) (*experiments.FigureResult, error) {
			baseRes, err := decodeMice(arts[0][0])
			if err != nil {
				return nil, err
			}
			atkRes, err := decodeMice(arts[1][0])
			if err != nil {
				return nil, err
			}
			res := &experiments.FigureResult{ID: "ext-mice", Title: "short-flow completion times under PDoS"}
			res.Series = append(res.Series,
				experiments.Series{Label: "baseline FCT (s)", Points: fctPoints(baseRes.FCTs)},
				experiments.Series{Label: "attacked FCT (s)", Points: fctPoints(atkRes.FCTs)})
			note(res, "baseline: %d/%d completed, mean FCT %.2fs, p95 %.2fs",
				baseRes.Completed, baseRes.Started, baseRes.MeanFCT, baseRes.P95FCT)
			note(res, "attacked: %d/%d completed, mean FCT %.2fs, p95 %.2fs",
				atkRes.Completed, atkRes.Started, atkRes.MeanFCT, atkRes.P95FCT)
			return res, nil
		},
	}, nil
}

// fctPoints renders completion times as an indexed series.
func fctPoints(fcts []float64) []experiments.Point {
	out := make([]experiments.Point, len(fcts))
	for i, f := range fcts {
		out[i] = experiments.Point{X: float64(i), Y: f}
	}
	return out
}

// maximizationPlan compiles the §4.1.2 comparison (MaximizationStudy's
// documents at the figure scale) and plots each setting's measured peak
// against its analytic γ*.
func maximizationPlan(scale experiments.Scale) (*figurePlan, error) {
	cfg := experiments.DefaultMaximizationStudyConfig()
	cfg.Gammas = scale.Gammas
	cfg.Warmup = scale.Warmup
	cfg.Measure = scale.Measure
	cfg.Seed = scale.Seed
	m, err := compileMaximization(cfg)
	if err != nil {
		return nil, err
	}
	return &figurePlan{
		docs: m.curves.docs,
		assemble: func(arts [][]Artifacts) (*experiments.FigureResult, error) {
			points, err := m.fold(arts)
			if err != nil {
				return nil, err
			}
			res := &experiments.FigureResult{
				ID:    "ext-maximization",
				Title: "analytic gamma* vs measured gain peak (§4.1.2)",
			}
			s := experiments.Series{Label: "measured peak vs analytic gamma*"}
			for _, p := range points {
				s.Points = append(s.Points, experiments.Point{X: p.AnalyticGammaStar, Y: p.MeasuredPeakGamma})
				note(res, "%s: gamma*=%.3f measured-peak=%.2f (±%.2f grid) gains %.3f/%.3f class=%s",
					p.Label, p.AnalyticGammaStar, p.MeasuredPeakGamma, p.GridStep,
					p.AnalyticPeakGain, p.MeasuredPeakGain, p.Class)
			}
			res.Series = append(res.Series, s)
			return res, nil
		},
	}, nil
}

// scaleTopology is the benchmark's attack-10k dumbbell at n flows: a RED
// trunk of 1 Mbps and 10 packets of buffer per flow, 5 ms one way; n flows
// on 50 Mbps access links with 20–460 ms RTTs; the attacker's access link at
// 4x the trunk.
func scaleTopology(n int) scenario.Topology {
	trunk := float64(n)
	return scenario.Topology{Kind: "graph", Graph: &scenario.GraphSpec{
		Routers: []string{"S", "R"},
		Trunks:  []scenario.GraphTrunk{{Name: "trunk", From: 0, To: 1, RateMbps: trunk, DelayMs: 5, QueuePackets: 10 * n}},
		Groups:  []scenario.GraphGroup{{Flows: n, Ingress: 0, Egress: 1, AccessRateMbps: 50, RTTMinMs: 20, RTTMaxMs: 460}},
		Attacks: []scenario.GraphAttack{{Router: 0, RateMbps: 4 * trunk}},
		Sink:    1,
	}}
}

// scalePlan compiles the many-flow scaling figure: per population in
// Scale.ScaleFlows, one γ = 0.5 gain curve on scaleTopology, plotting the
// measured degradation against Prop. 2's by population.
func scalePlan(scale experiments.Scale) (*figurePlan, error) {
	cs := &curveSet{}
	for _, n := range scale.ScaleFlows {
		label := fmt.Sprintf("flows=%d", n)
		c, err := compileGainCurve("scale/"+label, scaleSweep(scale, scaleTopology(n),
			experiments.ScaleRateFactor*float64(n)*1e6, experiments.ScaleExtent, []float64{experiments.ScaleGamma}))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		cs.add(label, c)
	}
	return &figurePlan{
		docs: cs.docs,
		assemble: func(arts [][]Artifacts) (*experiments.FigureResult, error) {
			res := &experiments.FigureResult{ID: "scale", Title: "Many-flow scaling: measured vs Prop. 2 degradation by population"}
			measured := experiments.Series{Label: "measured degradation"}
			analytic := experiments.Series{Label: "analytic degradation (Prop. 2)"}
			for i, n := range scale.ScaleFlows {
				points, err := cs.points(arts, i)
				if err != nil {
					return nil, fmt.Errorf("scale %s: %w", cs.labels[i], err)
				}
				p := points[0] // γ = 0.5 at 2x the trunk is a 4*T_extent period: always reachable
				measured.Points = append(measured.Points, experiments.Point{X: float64(n), Y: p.MeasuredDegradation})
				analytic.Points = append(analytic.Points, experiments.Point{X: float64(n), Y: p.AnalyticDegradation})
				note(res, "%s: degradation %.3f vs model %.3f at gamma=%.2f (TO=%d FR=%d)",
					cs.labels[i], p.MeasuredDegradation, p.AnalyticDegradation, p.Gamma, p.Timeouts, p.FastRecoveries)
			}
			res.Series = append(res.Series, measured, analytic)
			return res, nil
		},
	}, nil
}
