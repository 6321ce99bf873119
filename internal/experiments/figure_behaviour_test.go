package experiments_test

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"pulsedos/internal/experiments"
	"pulsedos/internal/figures"
	"pulsedos/internal/runcache"
)

// The figure behaviours below are checked on the production pipeline: every
// figure is regenerated through figures.Run (scenario documents → run cache
// → artifact assembly) from the experiment primitives in this package. The
// figure outputs themselves are pinned byte for byte in internal/figures.

// tinyScale makes each figure regenerate in well under a second. Three
// gammas keep the maximization study's grid guard satisfied.
func tinyScale() experiments.Scale {
	return experiments.Scale{
		Warmup:       3 * time.Second,
		Measure:      5 * time.Second,
		SyncDuration: 10 * time.Second,
		Gammas:       []float64{0.2, 0.4, 0.6},
		FlowCounts:   []int{5},
		ScaleFlows:   []int{5},
		Seed:         1,
	}
}

// runFigure regenerates one figure through the scenario-native pipeline.
func runFigure(t *testing.T, id string, scale experiments.Scale, opt figures.Options) *experiments.FigureResult {
	t.Helper()
	fig, err := figures.Run(context.Background(), id, scale, opt)
	if err != nil {
		t.Fatal(err)
	}
	return fig
}

// TestFigurePipelines regenerates every figure at tiny scale and checks the
// structural contract: the right figure id, a title, and labelled, non-empty
// series.
func TestFigurePipelines(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation pipelines")
	}
	store, err := runcache.Open(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	opt := figures.Options{Cache: store, Parallel: runtime.NumCPU()}
	for _, id := range figures.IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			fig := runFigure(t, id, tinyScale(), opt)
			if fig.ID != id {
				t.Errorf("id = %q, want %q", fig.ID, id)
			}
			if fig.Title == "" {
				t.Error("empty title")
			}
			if len(fig.Series) == 0 {
				t.Fatal("no series")
			}
			points := 0
			for _, s := range fig.Series {
				if s.Label == "" {
					t.Error("unlabelled series")
				}
				points += len(s.Points)
			}
			if points == 0 {
				t.Error("no data points")
			}
		})
	}
}

// TestAllFiguresOrder: figures.AllFigures regenerates the leading registry
// entries, so the registry must open with the paper set in paper order.
func TestAllFiguresOrder(t *testing.T) {
	paper := []string{
		"fig1", "fig2", "fig3a", "fig3b", "fig4", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig12", "prop3",
	}
	ids := figures.IDs()
	if len(ids) < len(paper) {
		t.Fatalf("registry holds %d figures, want at least %d", len(ids), len(paper))
	}
	for i, id := range paper {
		if ids[i] != id {
			t.Errorf("registry slot %d is %s, want %s", i, ids[i], id)
		}
	}
}

// TestFigureDeterminism: the same scale regenerates byte-identical CSV for a
// simulation-backed figure — the reproducibility promise of the harness.
func TestFigureDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation pipelines")
	}
	render := func() string {
		fig := runFigure(t, "fig2", tinyScale(), figures.Options{})
		var sb strings.Builder
		if err := experiments.WriteSeriesCSV(&sb, fig.Series); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if a, b := render(), render(); a != b {
		t.Error("same-seed figure regeneration diverged")
	}
}

// TestFigure4RiskCurves: the risk-preference family has one curve per κ
// class (risk-loving, neutral, averse).
func TestFigure4RiskCurves(t *testing.T) {
	fig := runFigure(t, "fig4", experiments.QuickScale(), figures.Options{})
	if fig.ID != "fig4" || len(fig.Series) != 3 {
		t.Fatalf("fig4: %s with %d series", fig.ID, len(fig.Series))
	}
}

// TestOptimalityCheckAgrees: Proposition 3's closed form must match the
// numeric maximizer within 1e-4 across the whole (C_Ψ, κ) spread.
func TestOptimalityCheckAgrees(t *testing.T) {
	fig := runFigure(t, "prop3", experiments.QuickScale(), figures.Options{})
	for _, p := range fig.Series[0].Points {
		if math.Abs(p.X-p.Y) > 1e-4 {
			t.Errorf("closed form %.6f vs numeric %.6f", p.X, p.Y)
		}
	}
}

// TestFigure1TransientAndSteady: during the attacked half of Fig. 1, cwnd
// must stay far below its warm-up peak.
func TestFigure1TransientAndSteady(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	scale := experiments.QuickScale()
	fig := runFigure(t, "fig1", scale, figures.Options{})
	if len(fig.Series) != 1 || len(fig.Series[0].Points) == 0 {
		t.Fatal("no cwnd series")
	}
	var preMax, postMax float64
	warmup := scale.Warmup.Seconds()
	for _, p := range fig.Series[0].Points {
		if p.X < warmup && p.Y > preMax {
			preMax = p.Y
		}
		if p.X > warmup+scale.Measure.Seconds()/2 && p.Y > postMax {
			postMax = p.Y
		}
	}
	if postMax >= preMax {
		t.Errorf("attack did not constrain cwnd: pre %0.1f post %0.1f", preMax, postMax)
	}
}

// TestExtensionFigures: the plan-sensitivity figure has zero regret at the
// true C_Ψ (error factor 1), and the maximization study finds a peak.
func TestExtensionFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation pipelines")
	}
	fig := runFigure(t, "ext-sensitivity", tinyScale(), figures.Options{})
	if fig.ID != "ext-sensitivity" || len(fig.Series) != 3 {
		t.Errorf("sensitivity figure: %s with %d series", fig.ID, len(fig.Series))
	}
	for _, s := range fig.Series {
		// Regret fraction is 0 at factor 1 (index 3 of the factor list).
		if s.Points[3].Y != 0 {
			t.Errorf("%s: nonzero regret at truth: %g", s.Label, s.Points[3].Y)
		}
	}

	maxFig := runFigure(t, "ext-maximization", tinyScale(), figures.Options{})
	if maxFig.ID != "ext-maximization" || len(maxFig.Series[0].Points) == 0 {
		t.Errorf("maximization figure malformed: %+v", maxFig.ID)
	}
}
