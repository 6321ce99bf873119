package figures

import (
	"fmt"

	"pulsedos/internal/experiments"
	"pulsedos/internal/scenario"
)

// fig1Plan compiles the cwnd sawtooth of Fig. 1: one victim flow at a fixed
// 100 ms RTT under a fixed-period AIMD attack, observed through the "cwnd"
// tap.
func fig1Plan(scale experiments.Scale) (*figurePlan, error) {
	doc := scenario.Config{
		Name: "fig1",
		Topology: scenario.Topology{
			Kind:     "dumbbell",
			Flows:    1,
			RTTMinMs: ms(experiments.Fig1RTT),
			RTTMaxMs: ms(experiments.Fig1RTT),
		},
		Attack: &scenario.Attack{
			Kind:     "aimd",
			RateMbps: experiments.Fig1Rate / 1e6,
			ExtentMs: ms(experiments.Fig1Extent),
			PeriodMs: ms(experiments.Fig1Period),
		},
		Measure:    &scenario.Measure{Taps: []string{"cwnd"}},
		WarmupSec:  scale.Warmup.Seconds(),
		MeasureSec: scale.Measure.Seconds(),
		Seed:       scale.Seed,
	}
	params, _, err := probe(doc)
	if err != nil {
		return nil, err
	}
	return &figurePlan{
		docs: []scenario.Config{doc},
		assemble: func(arts [][]Artifacts) (*experiments.FigureResult, error) {
			samples, err := decodeCwnd(arts[0][0])
			if err != nil {
				return nil, err
			}
			res := &experiments.FigureResult{ID: "fig1", Title: "cwnd under fixed-period AIMD attack"}
			s := experiments.Series{Label: "cwnd"}
			for _, smp := range experiments.ResampleCwnd(samples, 0.05, (scale.Warmup + scale.Measure).Seconds()) {
				s.Points = append(s.Points, experiments.Point{X: smp.TimeSec, Y: smp.Cwnd})
			}
			res.Series = append(res.Series, s)

			wc := params.ConvergedWindow(experiments.Fig1Period.Seconds(), experiments.Fig1RTT.Seconds())
			note(res, "analytic converged window Wc = %.2f segments (Eq. 1) at T_AIMD = %v",
				wc, experiments.Fig1Period)
			// Mean cwnd over the attacked steady half of the trace.
			var sum float64
			var n int
			for _, smp := range samples {
				if smp.TimeSec > (scale.Warmup + scale.Measure/2).Seconds() {
					sum += smp.Cwnd
					n++
				}
			}
			if n > 0 {
				note(res, "measured steady-phase mean cwnd = %.2f segments", sum/float64(n))
			}
			return res, nil
		},
	}, nil
}

// fig2Plan compiles the periodic incoming-traffic pattern of Fig. 2 from the
// binned rate series.
func fig2Plan(scale experiments.Scale) (*figurePlan, error) {
	doc := scenario.Config{
		Name:     "fig2",
		Topology: scenario.Topology{Kind: "dumbbell", Flows: 15},
		Attack: &scenario.Attack{
			Kind:     "aimd",
			RateMbps: experiments.Fig2Rate / 1e6,
			ExtentMs: ms(experiments.Fig2Extent),
			PeriodMs: ms(experiments.Fig2Period),
		},
		WarmupSec:  scale.Warmup.Seconds(),
		MeasureSec: scale.Measure.Seconds(),
		RateBinMs:  ms(experiments.Fig2RateBin),
		Seed:       scale.Seed,
	}
	return &figurePlan{
		docs: []scenario.Config{doc},
		assemble: func(arts [][]Artifacts) (*experiments.FigureResult, error) {
			sum, err := decodeSummary(arts[0][0])
			if err != nil {
				return nil, err
			}
			bins, err := decodeRate(arts[0][0])
			if err != nil {
				return nil, err
			}
			res := &experiments.FigureResult{ID: "fig2", Title: "periodic incoming traffic during a PDoS attack"}
			s := experiments.Series{Label: "incoming rate (bps)"}
			for i, b := range bins {
				s.Points = append(s.Points, experiments.Point{X: float64(i) * 0.05, Y: b * 8 / sum.RateBinSec})
			}
			res.Series = append(res.Series, s)
			note(res, "attack period T_AIMD = %v; expect rate peaks every period", experiments.Fig2Period)
			return res, nil
		},
	}, nil
}

// syncPlan compiles a Fig. 3 synchronization panel: a long attacked snapshot
// with the "sync" tap carrying the §2.3 PAA post-processing.
func syncPlan(id, title string, top scenario.Topology, st experiments.SyncSetting, scale experiments.Scale) (*figurePlan, error) {
	period := st.Extent + st.Space
	frames := int(scale.SyncDuration / experiments.SyncFrameStep)
	doc := scenario.Config{
		Name:     id,
		Topology: top,
		Attack: &scenario.Attack{
			Kind:     "aimd",
			RateMbps: st.Rate / 1e6,
			ExtentMs: ms(st.Extent),
			PeriodMs: ms(period),
		},
		Measure:    &scenario.Measure{Taps: []string{"sync"}, SyncFrames: frames},
		WarmupSec:  scale.Warmup.Seconds(),
		MeasureSec: scale.SyncDuration.Seconds(),
		RateBinMs:  ms(experiments.SyncRateBin),
		Seed:       scale.Seed,
	}
	return &figurePlan{
		docs: []scenario.Config{doc},
		assemble: func(arts [][]Artifacts) (*experiments.FigureResult, error) {
			sync, err := decodeSync(arts[0][0])
			if err != nil {
				return nil, err
			}
			res := &experiments.FigureResult{ID: id, Title: title}
			s := experiments.Series{Label: "normalized PAA incoming traffic"}
			frameSec := scale.SyncDuration.Seconds() / float64(len(sync.Frames))
			for i, v := range sync.Frames {
				s.Points = append(s.Points, experiments.Point{X: float64(i) * frameSec, Y: v})
			}
			res.Series = append(res.Series, s)
			note(res, "attack period T_AIMD = %v", period)
			note(res, "pinnacles counted: %d over %.0f s => period %.2f s (paper counts duration/T_AIMD)",
				sync.Peaks, scale.SyncDuration.Seconds(), sync.PeakPeriodSec)
			if sync.AutoPeriodSec > 0 {
				note(res, "autocorrelation period estimate: %.2f s", sync.AutoPeriodSec)
			}
			return res, nil
		},
	}, nil
}

// fig3aPlan compiles the ns-2 synchronization snapshot (24 dumbbell flows).
func fig3aPlan(scale experiments.Scale) (*figurePlan, error) {
	st := experiments.Fig3aSetting()
	return syncPlan("fig3a", "quasi-global synchronization (ns-2 dumbbell)",
		scenario.Topology{Kind: "dumbbell", Flows: st.Flows}, st, scale)
}

// fig3bPlan compiles the test-bed synchronization snapshot (15 flows).
func fig3bPlan(scale experiments.Scale) (*figurePlan, error) {
	st := experiments.Fig3bSetting()
	return syncPlan("fig3b", "quasi-global synchronization (test-bed)",
		scenario.Topology{Kind: "testbed", Flows: st.Flows}, st, scale)
}

// fig10Plan compiles the shrew-resonance study: the three paper settings with
// the γ grid augmented by the exact minRTO/n harmonics.
func fig10Plan(scale experiments.Scale) (*figurePlan, error) {
	bottleneck := experiments.DefaultDumbbellConfig(15).BottleneckRate
	cs := &curveSet{}
	for _, st := range experiments.ShrewFigureSettings() {
		label := fmt.Sprintf("R=%.0fM Textent=%dms", st.Rate/1e6, st.Extent.Milliseconds())
		gammas := append(append([]float64(nil), scale.Gammas...),
			experiments.ShrewGammas(st.Rate, st.Extent, bottleneck,
				experiments.ShrewFigureMinRTO, experiments.ShrewFigureMaxHarmonic)...)
		name := fmt.Sprintf("fig10/rate=%.0fM/extent=%dms", st.Rate/1e6, st.Extent.Milliseconds())
		c, err := compileGainCurve(name, scaleSweep(scale,
			scenario.Topology{Kind: "dumbbell", Flows: 15}, st.Rate, st.Extent, gammas))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		cs.add(label, c)
	}
	return &figurePlan{
		docs: cs.docs,
		assemble: func(arts [][]Artifacts) (*experiments.FigureResult, error) {
			res := &experiments.FigureResult{ID: "fig10", Title: "PDoS attacks vs shrew resonances"}
			for i, label := range cs.labels {
				points, err := cs.points(arts, i)
				if err != nil {
					return nil, fmt.Errorf("fig10 %s: %w", label, err)
				}
				analytic := experiments.Series{Label: label + " analytic"}
				measured := experiments.Series{Label: label + " measured"}
				shrew := experiments.Series{Label: label + " shrew-points"}
				for _, p := range shrewPoints(points,
					experiments.ShrewFigureMinRTO, experiments.ShrewFigureMaxHarmonic, 0.08) {
					analytic.Points = append(analytic.Points, experiments.Point{X: p.Gamma, Y: p.AnalyticGain})
					measured.Points = append(measured.Points, experiments.Point{X: p.Gamma, Y: p.MeasuredGain})
					if p.Shrew {
						shrew.Points = append(shrew.Points, experiments.Point{X: p.Gamma, Y: p.MeasuredGain})
						note(res, "%s: shrew point T_AIMD=%.3fs (minRTO/%d): measured %.3f vs analytic %.3f",
							label, p.PeriodSec, p.Harmonic, p.MeasuredGain, p.AnalyticGain)
					}
				}
				res.Series = append(res.Series, analytic, measured, shrew)
			}
			return res, nil
		},
	}, nil
}

// fig12Plan compiles the test-bed gain curves: 10 flows, T_extent = 150 ms,
// one curve per attack rate.
func fig12Plan(scale experiments.Scale) (*figurePlan, error) {
	cs := &curveSet{}
	for _, rate := range experiments.TestbedFigureRates() {
		label := fmt.Sprintf("R=%.0fM", rate/1e6)
		name := fmt.Sprintf("fig12/rate=%.0fM", rate/1e6)
		c, err := compileGainCurve(name, scaleSweep(scale,
			scenario.Topology{Kind: "testbed", Flows: experiments.TestbedFigureFlows},
			rate, experiments.TestbedFigureExtent, scale.Gammas))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		cs.add(label, c)
	}
	return &figurePlan{
		docs: cs.docs,
		assemble: func(arts [][]Artifacts) (*experiments.FigureResult, error) {
			res := &experiments.FigureResult{ID: "fig12", Title: "test-bed attack gain vs gamma"}
			for i, label := range cs.labels {
				points, err := cs.points(arts, i)
				if err != nil {
					return nil, fmt.Errorf("fig12 %s: %w", label, err)
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
