// Package figures regenerates the paper's figures through the one
// scenario-native execution path: every figure is compiled into declarative
// scenario documents (base Config + measurement taps + sweep axis), each
// expanded point runs through scenario.Config → experiments.RunCtx, and the
// resulting artifacts are memoized in the content-addressed run cache under
// scenario.Key. The figure itself is then assembled from artifacts alone —
// pure arithmetic over result.json, srtt.json, sync.json, and friends — so a
// warm cache replays an entire AllFigures sweep without touching a kernel.
//
// Every figure's output is pinned: testdata/figures.sha256 holds the SHA-256
// of each FigureResult at two scales, recorded from the experiments drivers
// this pipeline replaced, and TestFigureEquivalence holds the pipeline to
// those bytes. The fixed dimensions (rates, extents, settings) come from
// experiments/dims.go.
//
// The studies the public facade exports — GainSweep, ShrewStudy,
// MaximizationStudy and DefenseStudy (study.go) — compile to the same
// documents as the figures they back and fold the same artifacts, uncached:
// one implementation per study. DetectionStudy (pdos-detect) and
// DetectorROCStudy run documents with a rate series the same way and score
// it with detectors.
package figures

import (
	"context"
	"errors"
	"fmt"

	"pulsedos/internal/experiments"
	"pulsedos/internal/runcache"
	"pulsedos/internal/scenario"
)

// Artifacts is one run's encoded artifact set, keyed by artifact file name.
type Artifacts = map[string][]byte

// Options parameterizes figure execution.
type Options struct {
	// Cache, when non-nil, memoizes every expanded point under its
	// scenario.Key: a point whose key is cached replays from disk instead of
	// rebuilding its kernel, and concurrent identical points (the shared
	// no-attack baselines of Figs. 6–9) collapse into one compute via the
	// store's singleflight. Nil computes every point directly.
	Cache *runcache.Store

	// Parallel bounds the number of points simulated concurrently (each on a
	// private kernel, so results are identical at any worker count). 0 or 1
	// runs sequentially.
	Parallel int
}

// figurePlan is one figure compiled against a scale: the scenario documents
// to execute (possibly sweep carriers) and the pure assembly step that folds
// their point artifacts back into the figure.
type figurePlan struct {
	docs     []scenario.Config
	assemble func(arts [][]Artifacts) (*experiments.FigureResult, error)
}

// Def is one registered figure. Simulation-backed figures carry a plan
// compiler; analytic figures (pure math, nothing to run or cache) compute
// directly.
type Def struct {
	ID string

	plan   func(scale experiments.Scale) (*figurePlan, error)
	direct func(scale experiments.Scale) (*experiments.FigureResult, error)
}

// Registry returns every figure definition: the paper's plots in paper
// order, then the ablations and extension studies.
func Registry() []Def {
	return []Def{
		{ID: "fig1", plan: fig1Plan},
		{ID: "fig2", plan: fig2Plan},
		{ID: "fig3a", plan: fig3aPlan},
		{ID: "fig3b", plan: fig3bPlan},
		{ID: "fig4", direct: fig4},
		{ID: "fig6", plan: gainFigurePlan("fig6", experiments.GainFigureRates()[0])},
		{ID: "fig7", plan: gainFigurePlan("fig7", experiments.GainFigureRates()[1])},
		{ID: "fig8", plan: gainFigurePlan("fig8", experiments.GainFigureRates()[2])},
		{ID: "fig9", plan: gainFigurePlan("fig9", experiments.GainFigureRates()[3])},
		{ID: "fig10", plan: fig10Plan},
		{ID: "fig12", plan: fig12Plan},
		{ID: "prop3", direct: prop3},
		{ID: "ablation-aqm", plan: aqmPlan},
		{ID: "ablation-dack", plan: dackPlan},
		{ID: "ablation-aimd", plan: aimdPlan},
		{ID: "ablation-pktsize", plan: pktsizePlan},
		{ID: "ext-defense", plan: defensePlan},
		{ID: "ext-mice", plan: micePlan},
		{ID: "ext-maximization", plan: maximizationPlan},
		{ID: "ext-sensitivity", direct: sensitivity},
		{ID: "scale", plan: scalePlan},
	}
}

// paperCount is the number of leading Registry entries that form the paper
// set (Figs. 1–4, 6–10, 12, and the Proposition 3 cross-check).
const paperCount = 12

// IDs returns every registered figure ID, registry order.
func IDs() []string {
	defs := Registry()
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.ID
	}
	return out
}

// lookup resolves one figure definition by ID.
func lookup(id string) (Def, error) {
	for _, d := range Registry() {
		if d.ID == id {
			return d, nil
		}
	}
	return Def{}, fmt.Errorf("figures: unknown figure %q", id)
}

// Documents compiles one figure into its scenario documents without running
// anything: the exact configs Run would execute, sweep carriers included, in
// submission order. Analytic figures compile to an empty set. The documents
// are self-contained, so they can be POSTed to pdos-serve's batch endpoint
// and the figure assembled remotely.
func Documents(id string, scale experiments.Scale) ([]scenario.Config, error) {
	def, err := lookup(id)
	if err != nil {
		return nil, err
	}
	if def.plan == nil {
		return nil, nil
	}
	p, err := def.plan(scale)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	return p.docs, nil
}

// Run regenerates one figure: compile to documents, execute every expanded
// point through the cache, assemble the figure from artifacts.
func Run(ctx context.Context, id string, scale experiments.Scale, opt Options) (*experiments.FigureResult, error) {
	def, err := lookup(id)
	if err != nil {
		return nil, err
	}
	fig, err := run(ctx, def, scale, opt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	return fig, nil
}

func run(ctx context.Context, def Def, scale experiments.Scale, opt Options) (*experiments.FigureResult, error) {
	if def.plan == nil {
		return def.direct(scale)
	}
	if scale.Seed == 0 {
		// A figure stamps scale.Seed into every topology it builds, while a
		// scenario document treats seed 0 as "kind default": a zero seed
		// cannot be stated in a document, so it is rejected.
		return nil, errors.New("figures: scale needs a nonzero seed")
	}
	p, err := def.plan(scale)
	if err != nil {
		return nil, err
	}
	arts, err := runDocs(ctx, p.docs, opt)
	if err != nil {
		return nil, err
	}
	return p.assemble(arts)
}

// RunJobs regenerates the given figures in order, sequentially; parallelism
// lives at the point level (Options.Parallel), where the work actually is.
func RunJobs(ctx context.Context, ids []string, scale experiments.Scale, opt Options) ([]*experiments.FigureResult, error) {
	out := make([]*experiments.FigureResult, 0, len(ids))
	for _, id := range ids {
		fig, err := Run(ctx, id, scale, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, fig)
	}
	return out, nil
}

// AllFigures regenerates the paper figures (Figs. 1–4, 6–10, 12 and the
// Proposition 3 cross-check) at the given scale, paper order.
func AllFigures(ctx context.Context, scale experiments.Scale, opt Options) ([]*experiments.FigureResult, error) {
	return RunJobs(ctx, IDs()[:paperCount], scale, opt)
}

// runDocs executes every document's expanded points — flattened into one
// task pool so curve boundaries don't serialize — and returns the artifact
// sets grouped per document, point order.
func runDocs(ctx context.Context, docs []scenario.Config, opt Options) ([][]Artifacts, error) {
	type ref struct {
		doc, pt int
		cfg     scenario.Config
	}
	var pts []ref
	out := make([][]Artifacts, len(docs))
	for di, d := range docs {
		expanded, err := d.Expand()
		if err != nil {
			return nil, fmt.Errorf("figures: %s: %w", d.Name, err)
		}
		out[di] = make([]Artifacts, len(expanded))
		for pi, cfg := range expanded {
			pts = append(pts, ref{doc: di, pt: pi, cfg: cfg})
		}
	}
	err := experiments.RunTasksCtx(ctx, opt.Parallel, len(pts), func(i int) error {
		files, err := computePoint(ctx, pts[i].cfg, opt.Cache)
		if err != nil {
			return fmt.Errorf("figures: %s: %w", pts[i].cfg.Name, err)
		}
		out[pts[i].doc][pts[i].pt] = files
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// computePoint executes (or replays) one expanded point. The document's name
// is a label, not a parameter: it is stripped before keying and computing, so
// two figures that compile the same physics — a fig8 gain point and the
// ablation probing the same attack — share one cache entry with byte-identical
// artifacts, and the human-readable name survives only in the cache manifest.
func computePoint(ctx context.Context, cfg scenario.Config, cache *runcache.Store) (Artifacts, error) {
	label := cfg.Name
	cfg.Name = ""
	if cache == nil {
		return scenario.ComputeArtifacts(ctx, cfg, nil)
	}
	key, err := scenario.Key(cfg)
	if err != nil {
		return nil, err
	}
	if label == "" {
		label = "figure-point"
	}
	files, _, err := cache.GetOrCompute(key, label, experiments.EngineVersion, func() (map[string][]byte, error) {
		return scenario.ComputeArtifacts(ctx, cfg, nil)
	})
	return files, err
}
