package experiments

import (
	"fmt"
	"io"
	"strconv"

	"pulsedos/internal/model"
)

// Point is one (x, y) sample of a figure series.
type Point struct {
	X float64
	Y float64
}

// Series is one labelled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// GainSeries splits a sweep into the two curves the paper plots per setting:
// the analytic line and the experimental symbols.
func GainSeries(label string, points []GainPoint) (analytic, measured Series) {
	analytic = Series{Label: label + " analytic"}
	measured = Series{Label: label + " measured"}
	for _, p := range points {
		analytic.Points = append(analytic.Points, Point{X: p.Gamma, Y: p.AnalyticGain})
		measured.Points = append(measured.Points, Point{X: p.Gamma, Y: p.MeasuredGain})
	}
	return analytic, measured
}

// RiskCurves evaluates the Fig. 4 family (1-γ)^κ on an n-point γ grid for
// each κ.
func RiskCurves(kappas []float64, n int) []Series {
	if n < 2 {
		n = 2
	}
	out := make([]Series, 0, len(kappas))
	for _, kappa := range kappas {
		s := Series{Label: fmt.Sprintf("kappa=%g (%s)", kappa, model.ClassifyRisk(kappa))}
		for i := 0; i <= n; i++ {
			gamma := float64(i) / float64(n)
			s.Points = append(s.Points, Point{X: gamma, Y: model.RiskFactor(gamma, kappa)})
		}
		out = append(out, s)
	}
	return out
}

// WriteSeriesCSV emits long-format CSV (series,x,y) for any set of curves.
func WriteSeriesCSV(w io.Writer, series []Series) error {
	if _, err := io.WriteString(w, "series,x,y\n"); err != nil {
		return err
	}
	for _, s := range series {
		for _, p := range s.Points {
			line := s.Label + "," +
				strconv.FormatFloat(p.X, 'g', 8, 64) + "," +
				strconv.FormatFloat(p.Y, 'g', 8, 64) + "\n"
			if _, err := io.WriteString(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}
