package figures_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"pulsedos/internal/experiments"
	"pulsedos/internal/figures"
	"pulsedos/internal/pins"
	"pulsedos/internal/runcache"
)

// pinFile holds one committed SHA-256 per figure output, named
// "<id>@<scale>": every registry figure at equivalenceScale,
// and the paper set at QuickScale. Each digest covers the figure's %#v
// rendering — exact through shortest-round-trip floats, and NaN-safe unlike
// JSON (the maximization figure's analytic γ* is NaN when no optimum
// exists). The digests were recorded from the internal/experiments driver
// each figure replaced, so the pins carry the same byte-identity contract
// those drivers enforced as a live oracle.
// The "scale" pin was recorded from its own documents: its earlier output
// carried wall-clock readings.
const pinFile = "testdata/figures.sha256"

// paperIDs is the paper set AllFigures regenerates: Figs. 1–4, 6–10, 12 and
// the Proposition 3 cross-check.
var paperIDs = []string{
	"fig1", "fig2", "fig3a", "fig3b", "fig4", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig12", "prop3",
}

// equivalenceScale shrinks every dimension so the full pinned sweep stays
// fast enough for -race CI runs. Three gammas keep the maximization study's
// grid guard satisfied.
func equivalenceScale() experiments.Scale {
	return experiments.Scale{
		Warmup:       2 * time.Second,
		Measure:      3 * time.Second,
		SyncDuration: 4 * time.Second,
		Gammas:       []float64{0.3, 0.5, 0.8},
		FlowCounts:   []int{4},
		ScaleFlows:   []int{50},
		Seed:         1,
		Parallel:     runtime.NumCPU(),
	}
}

// TestFigureEquivalence is the figure pipeline's byte-identity contract:
// every figure regenerated through the scenario-native pipeline — documents,
// cached artifacts, decode, assemble — must hash to its pinned digest.
func TestFigureEquivalence(t *testing.T) {
	set := pins.Load(t, pinFile)
	if !set.Native() {
		t.Skip("no figure pins for this GOARCH")
	}
	scale := equivalenceScale()
	store, err := runcache.Open(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	opt := figures.Options{Cache: store, Parallel: scale.Parallel}
	for _, id := range figures.IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			fig, err := figures.Run(context.Background(), id, scale, opt)
			if err != nil {
				t.Fatalf("figures.Run(%s): %v", id, err)
			}
			set.Check(t, id+"@equivalence", fmt.Sprintf("%#v", fig))
		})
	}
}

// TestPinsCoverRegistry: every registry figure has exactly one
// equivalence-scale pin, every paper figure one QuickScale pin, and no pin
// names an unknown figure or scale.
func TestPinsCoverRegistry(t *testing.T) {
	want := map[string]bool{}
	for _, id := range figures.IDs() {
		want[id+"@equivalence"] = true
	}
	for _, id := range paperIDs {
		want[id+"@quick"] = true
	}
	for name := range pins.Load(t, pinFile).Sums {
		if !want[name] {
			t.Errorf("pin %s names no registry figure at a pinned scale", name)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("%s has no pin", name)
	}
}

// TestAllFiguresWarmCache asserts the pipeline's replay property: a second
// AllFigures pass at the same scale computes nothing — every expanded point
// is served from the content-addressed cache. The cold pass doubles as the
// QuickScale pin check of the paper set.
func TestAllFiguresWarmCache(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickScale figure sweep in -short mode")
	}
	store, err := runcache.Open(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	scale := experiments.QuickScale()
	scale.Parallel = runtime.NumCPU()
	opt := figures.Options{Cache: store, Parallel: scale.Parallel}

	cold, err := figures.AllFigures(context.Background(), scale, opt)
	if err != nil {
		t.Fatal(err)
	}
	coldStats := store.Stats()
	if coldStats.Misses == 0 {
		t.Fatal("cold run computed nothing — cache keys are not reaching the store")
	}
	set := pins.Load(t, pinFile)
	for i, fig := range cold {
		if i < len(paperIDs) && fig.ID != paperIDs[i] {
			t.Errorf("AllFigures slot %d holds %s, want %s", i, fig.ID, paperIDs[i])
		}
		set.Check(t, fig.ID+"@quick", fmt.Sprintf("%#v", fig))
	}

	warm, err := figures.AllFigures(context.Background(), scale, opt)
	if err != nil {
		t.Fatal(err)
	}
	warmStats := store.Stats()
	if d := warmStats.Misses - coldStats.Misses; d != 0 {
		t.Errorf("warm run recomputed %d points; want 0", d)
	}
	lookups := (warmStats.Hits - coldStats.Hits) + (warmStats.Misses - coldStats.Misses)
	if lookups == 0 {
		t.Fatal("warm run performed no cache lookups")
	}
	if hitFrac := float64(warmStats.Hits-coldStats.Hits) / float64(lookups); hitFrac < 0.9 {
		t.Errorf("warm run hit fraction %.2f; want >= 0.90", hitFrac)
	}

	if len(cold) != len(warm) {
		t.Fatalf("cold run produced %d figures, warm %d", len(cold), len(warm))
	}
	for i := range cold {
		if a, b := fmt.Sprintf("%#v", cold[i]), fmt.Sprintf("%#v", warm[i]); a != b {
			t.Errorf("figure %s: warm replay diverged from cold run", cold[i].ID)
		}
	}
}

// TestDocumentsAreSelfContained: every compiled document must validate and
// expand on its own — the property that lets a figure be shipped to
// pdos-serve's batch endpoint without the figures package on the other side.
func TestDocumentsAreSelfContained(t *testing.T) {
	scale := equivalenceScale()
	for _, id := range figures.IDs() {
		docs, err := figures.Documents(id, scale)
		if err != nil {
			t.Fatalf("Documents(%s): %v", id, err)
		}
		for _, d := range docs {
			if d.Name == "" {
				t.Errorf("%s: document without a name", id)
			}
			pts, err := d.Expand()
			if err != nil {
				t.Errorf("%s: document %s does not expand: %v", id, d.Name, err)
				continue
			}
			for _, pt := range pts {
				if err := pt.Validate(); err != nil {
					t.Errorf("%s: expanded point %s invalid: %v", id, pt.Name, err)
				}
			}
		}
	}
}

// TestRunRequiresSeed pins the seed-zero guard: a figure stamps Scale.Seed
// into every topology it builds, while a scenario document treats seed 0 as
// "kind default" — so a zero seed cannot be stated in a document and must be
// rejected.
func TestRunRequiresSeed(t *testing.T) {
	scale := equivalenceScale()
	scale.Seed = 0
	_, err := figures.Run(context.Background(), "fig2", scale, figures.Options{})
	if want := "fig2: figures: scale needs a nonzero seed"; err == nil || err.Error() != want {
		t.Fatalf("Run with zero seed: err = %v, want %q (errors name their figure)", err, want)
	}
	// Analytic figures run no simulation and need no seed.
	if _, err := figures.Run(context.Background(), "fig4", scale, figures.Options{}); err != nil {
		t.Fatalf("analytic figure rejected zero seed: %v", err)
	}
}

// TestUnknownFigure pins the lookup error.
func TestUnknownFigure(t *testing.T) {
	_, err := figures.Run(context.Background(), "fig99", equivalenceScale(), figures.Options{})
	if err == nil {
		t.Fatal("unknown figure succeeded")
	}
	if want := `figures: unknown figure "fig99"`; err.Error() != want {
		t.Fatalf("error %q; want %q", err, want)
	}
}

// TestScaleMatchesProp2: at 50 flows, 12 s of warm-up and 6 s measured, the
// scale figure's attack degrades the aggregate, and by within 0.25 of the
// Prop. 2 prediction.
func TestScaleMatchesProp2(t *testing.T) {
	if testing.Short() {
		t.Skip("50-flow simulation")
	}
	scale := equivalenceScale()
	scale.Warmup, scale.Measure = 12*time.Second, 6*time.Second
	fig, err := figures.Run(context.Background(), "scale", scale, figures.Options{Parallel: scale.Parallel})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 || len(fig.Series[0].Points) != 1 || len(fig.Series[1].Points) != 1 {
		t.Fatalf("want one measured and one Prop. 2 point, got %#v", fig.Series)
	}
	measured, analytic := fig.Series[0].Points[0].Y, fig.Series[1].Points[0].Y
	t.Logf("50 flows: measured degradation %.3f, Prop. 2 %.3f", measured, analytic)
	if measured <= 0 {
		t.Errorf("attack degraded nothing: measured %.3f", measured)
	}
	if math.Abs(measured-analytic) > 0.25 {
		t.Errorf("measured degradation %.3f too far from Prop. 2 prediction %.3f", measured, analytic)
	}
}

// TestScaleEmptyPopulations: a scale with no ScaleFlows compiles no scale
// documents, as an empty FlowCounts compiles none for Figs. 6–9.
func TestScaleEmptyPopulations(t *testing.T) {
	scale := equivalenceScale()
	scale.ScaleFlows = nil
	docs, err := figures.Documents("scale", scale)
	if err != nil || len(docs) != 0 {
		t.Fatalf("Documents(scale) without populations: %d documents, err %v; want none", len(docs), err)
	}
}
