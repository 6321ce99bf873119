package figures

import (
	"fmt"
	"math"

	"pulsedos/internal/experiments"
	"pulsedos/internal/optimize"
)

// The analytic figures are pure math: nothing to simulate, so nothing to
// compile into documents or cache.

// fig4 regenerates the risk-preference curves (1-γ)^κ.
func fig4(experiments.Scale) (*experiments.FigureResult, error) {
	res := &experiments.FigureResult{ID: "fig4", Title: "risk preference (1-gamma)^kappa"}
	res.Series = experiments.RiskCurves([]float64{0.3, 1, 3}, 100)
	note(res, "kappa < 1 risk-loving, kappa = 1 risk-neutral, kappa > 1 risk-averse")
	return res, nil
}

// prop3 cross-validates Proposition 3 numerically for a spread of (C_Ψ, κ)
// pairs: the closed form must agree with golden-section search on the gain
// function (§3.2).
func prop3(experiments.Scale) (*experiments.FigureResult, error) {
	res := &experiments.FigureResult{ID: "prop3", Title: "closed-form gamma* vs numeric maximizer"}
	s := experiments.Series{Label: "gamma* closed-form vs numeric"}
	for _, cPsi := range []float64{0.01, 0.05, 0.1, 0.2, 0.4} {
		for _, kappa := range []float64{0.3, 0.5, 1, 2, 5} {
			closed, err := optimize.OptimalGamma(cPsi, kappa)
			if err != nil {
				return nil, err
			}
			numeric, err := optimize.GoldenSection(func(g float64) float64 {
				return (1 - cPsi/g) * riskPow(1-g, kappa)
			}, cPsi+1e-9, 1-1e-9, 1e-10)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, experiments.Point{X: closed, Y: numeric})
			note(res, "CPsi=%.2f kappa=%.1f: closed=%.5f numeric=%.5f", cPsi, kappa, closed, numeric)
		}
	}
	res.Series = append(res.Series, s)
	return res, nil
}

// riskPow computes base^kappa clamped to base in [0,1].
func riskPow(base, kappa float64) float64 {
	if base <= 0 {
		return 0
	}
	if base >= 1 {
		return 1
	}
	return math.Pow(base, kappa)
}

// sensitivity regenerates the plan-robustness analysis: the regret of
// planning on a mis-estimated C_Ψ.
func sensitivity(experiments.Scale) (*experiments.FigureResult, error) {
	res := &experiments.FigureResult{ID: "ext-sensitivity", Title: "plan regret under C_Psi estimation error"}
	factors := []float64{0.125, 0.25, 0.5, 1, 2, 4, 8}
	for _, cPsi := range []float64{0.02, 0.1, 0.3} {
		points, err := optimize.Sensitivity(cPsi, 1, factors)
		if err != nil {
			return nil, err
		}
		s := experiments.Series{Label: fmt.Sprintf("CPsi=%.2f regret fraction", cPsi)}
		for _, p := range points {
			frac := 0.0
			if p.OptimalGain > 0 {
				frac = p.Regret / p.OptimalGain
			}
			s.Points = append(s.Points, experiments.Point{X: p.ErrorFactor, Y: frac})
		}
		res.Series = append(res.Series, s)
		note(res, "CPsi=%.2f: 2x over-estimate costs %.1f%% of the optimal gain",
			cPsi, 100*s.Points[4].Y)
	}
	note(res, "the gain surface is flat around gamma*: the paper's perfect-knowledge assumption is cheap")
	return res, nil
}
