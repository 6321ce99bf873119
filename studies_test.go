package pulsedos

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"pulsedos/internal/experiments"
	"pulsedos/internal/figures"
	"pulsedos/internal/pins"
)

// TestFacadeStudiesMatchFigures ties the public study API to the pinned
// figure bytes. At the figure pins' equivalence scale, each regenerated
// figure must hash to its committed pin, and the facade study that shares
// its documents must reproduce the figure's series exactly.
func TestFacadeStudiesMatchFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation studies")
	}
	// The equivalence scale of internal/figures/figures_test.go.
	scale := experiments.Scale{
		Warmup:       2 * time.Second,
		Measure:      3 * time.Second,
		SyncDuration: 4 * time.Second,
		Gammas:       []float64{0.3, 0.5, 0.8},
		FlowCounts:   []int{4},
		ScaleFlows:   []int{50},
		Seed:         1,
	}
	set := pins.Load(t, "internal/figures/testdata/figures.sha256")
	figure := func(t *testing.T, id string) *experiments.FigureResult {
		t.Helper()
		fig, err := figures.Run(context.Background(), id, scale, figures.Options{Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		set.Check(t, id+"@equivalence", fmt.Sprintf("%#v", fig))
		return fig
	}
	ys := func(s experiments.Series) []float64 {
		var out []float64
		for _, p := range s.Points {
			out = append(out, p.Y)
		}
		return out
	}

	t.Run("defense", func(t *testing.T) {
		cfg := DefaultDefenseStudyConfig()
		cfg.Warmup, cfg.Measure, cfg.Seed = scale.Warmup, scale.Measure, scale.Seed
		results, err := DefenseStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fig := figure(t, "ext-defense")
		for i, atk := range []string{"aimd", "shrew"} {
			var want []float64
			for _, r := range results {
				if r.Attack == atk {
					want = append(want, r.Degradation)
				}
			}
			if got := ys(fig.Series[i]); fig.Series[i].Label != atk+" degradation" || !slices.Equal(got, want) {
				t.Errorf("%s: figure series %q %v, study degradations %v", atk, fig.Series[i].Label, got, want)
			}
		}
	})

	t.Run("maximization", func(t *testing.T) {
		cfg := DefaultMaximizationStudyConfig()
		cfg.Gammas = scale.Gammas
		cfg.Warmup, cfg.Measure, cfg.Seed = scale.Warmup, scale.Measure, scale.Seed
		points, err := MaximizationStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// γ* is NaN when Proposition 3 has no optimum, so compare NaN-aware.
		same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
		got := figure(t, "ext-maximization").Series[0].Points
		if len(got) != len(points) {
			t.Fatalf("figure has %d points, study %d", len(got), len(points))
		}
		for i, p := range points {
			if !same(got[i].X, p.AnalyticGammaStar) || got[i].Y != p.MeasuredPeakGamma {
				t.Errorf("%s: figure (γ*, peak) = (%v, %v), study (%v, %v)",
					p.Label, got[i].X, got[i].Y, p.AnalyticGammaStar, p.MeasuredPeakGamma)
			}
		}
	})

	t.Run("mice", func(t *testing.T) {
		cfg := DefaultMiceConfig()
		cfg.Warmup, cfg.Measure, cfg.Seed = scale.Warmup, scale.Measure, scale.Seed
		base, err := MiceStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		period := experiments.MiceAttackPeriod
		train, err := AIMDTrain(experiments.MiceAttackExtent, experiments.MiceAttackRate,
			period, experiments.PulsesFor(cfg.Measure, period))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Train = &train
		attacked, err := MiceStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fig := figure(t, "ext-mice")
		for i, res := range []*MiceResult{base, attacked} {
			if got := ys(fig.Series[i]); !slices.Equal(got, res.FCTs) {
				t.Errorf("%s: figure %v, study %v", fig.Series[i].Label, got, res.FCTs)
			}
		}
	})

	t.Run("gain-sweep", func(t *testing.T) {
		// One fig6 curve: its topology, attack rate and pulse width.
		flows, extent := scale.FlowCounts[0], 75*time.Millisecond
		points, err := GainSweep(SweepConfig{
			Topology:   Topology{Kind: "dumbbell", Flows: flows},
			Seed:       scale.Seed,
			AttackRate: experiments.GainFigureRates()[0],
			Extent:     extent,
			Kappa:      1,
			Gammas:     scale.Gammas,
			Warmup:     scale.Warmup,
			Measure:    scale.Measure,
		})
		if err != nil {
			t.Fatal(err)
		}
		analytic, measured := experiments.GainSeries(
			fmt.Sprintf("flows=%d Textent=%dms", flows, extent.Milliseconds()), points)
		fig := figure(t, "fig6")
		for _, want := range []experiments.Series{analytic, measured} {
			i := slices.IndexFunc(fig.Series, func(s experiments.Series) bool { return s.Label == want.Label })
			if i < 0 {
				t.Fatalf("fig6 has no series %q", want.Label)
			}
			if got := fmt.Sprintf("%#v", fig.Series[i]); got != fmt.Sprintf("%#v", want) {
				t.Errorf("%s:\nfigure %s\nstudy  %#v", want.Label, got, want)
			}
		}
	})
}
