package experiments

import (
	"context"
	"errors"
	"time"

	"pulsedos/internal/attack"
	"pulsedos/internal/sim"
	"pulsedos/internal/stats"
	"pulsedos/internal/topo"
	"pulsedos/internal/workload"
)

// The mice-vs-elephants study extends the paper's evaluation with the
// workload dimension its shrew predecessor (Kuzmanovic & Knightly) made
// famous: long-lived "elephant" flows share the bottleneck with short
// "mice" transfers, and the PDoS attack's damage is read off the mice's
// flow-completion times (FCT) — the metric end users actually feel.

// MiceConfig parameterizes the study.
type MiceConfig struct {
	Elephants    int   // long-lived background flows
	Mice         int   // short transfers
	MiceSegments int64 // payload per mouse, in MSS segments (fixed sizes)

	// Sizes, when non-nil, overrides MiceSegments with a draw per mouse
	// (e.g. a heavy-tailed workload.Pareto).
	Sizes workload.Sizes

	// Mice arrive over [Warmup, Warmup+ArrivalSpan] as a Poisson process.
	ArrivalSpan time.Duration

	Warmup  time.Duration
	Measure time.Duration
	Seed    uint64 // seeds the dumbbell MiceStudy builds

	// Attack, when Train is non-nil, starts at Warmup.
	Train *attack.Train
}

// DefaultMiceConfig returns a moderate workload: 10 elephants, 60 mice of
// 30 segments (~30 kB), arrivals spread across the first half of the window.
func DefaultMiceConfig() MiceConfig {
	return MiceConfig{
		Elephants:    10,
		Mice:         60,
		MiceSegments: 30,
		ArrivalSpan:  10 * time.Second,
		Warmup:       8 * time.Second,
		Measure:      25 * time.Second,
		Seed:         1,
	}
}

// MiceResult aggregates the study's outcome.
type MiceResult struct {
	Started   int
	Completed int
	FCTs      []float64 // seconds, completed mice only

	MeanFCT   float64
	MedianFCT float64
	P95FCT    float64

	ElephantBytes uint64 // goodput of the background flows in the window
}

// MiceStudy runs one workload instance (attacked when cfg.Train is set) on
// a freshly built Fig. 5 dumbbell of Elephants + Mice flows seeded with
// cfg.Seed.
func MiceStudy(cfg MiceConfig) (*MiceResult, error) {
	dcfg := DefaultDumbbellConfig(cfg.Elephants + cfg.Mice)
	dcfg.Seed = cfg.Seed
	env, err := BuildDumbbell(dcfg)
	if err != nil {
		return nil, err
	}
	return RunMiceCtx(context.Background(), env, cfg)
}

// RunMiceCtx executes the mice study's flow schedule on env — the one
// implementation behind MiceStudy and the scenario documents' "mice"
// workload. The topology, and so the seed, comes from env (cfg.Seed is not
// read); elephants start jittered across the graph's StartSpread. The
// timeline runs in slices polled for cancellation, like RunCtx.
func RunMiceCtx(ctx context.Context, env *topo.Environment, cfg MiceConfig) (*MiceResult, error) {
	if cfg.Elephants < 1 || cfg.Mice < 1 || cfg.MiceSegments < 1 {
		return nil, errors.New("experiments: mice study needs elephants, mice, and a size")
	}
	if cfg.Measure <= 0 || cfg.ArrivalSpan <= 0 {
		return nil, errors.New("experiments: mice study needs positive windows")
	}
	if len(env.Senders) < cfg.Elephants+cfg.Mice {
		return nil, errors.New("experiments: mice study needs elephants + mice senders")
	}

	k := env.Kernel
	warmup := sim.FromDuration(cfg.Warmup)
	end := warmup + sim.FromDuration(cfg.Measure)

	// Elephants: flows [0, E), jittered starts inside the warm-up.
	spread := sim.FromDuration(env.Graph.StartSpread)
	for i := 0; i < cfg.Elephants; i++ {
		at := sim.Time(env.Rand().Int63n(int64(spread) + 1))
		if err := env.Senders[i].Start(at); err != nil {
			return nil, err
		}
	}

	// Mice: flows [E, E+M), Poisson arrivals across ArrivalSpan, each a
	// finite transfer timed from its own start.
	res := &MiceResult{}
	sizes := cfg.Sizes
	if sizes == nil {
		sizes = &workload.Fixed{Segments: cfg.MiceSegments}
	}
	arrivals, err := workload.NewPoisson(
		float64(cfg.Mice)/cfg.ArrivalSpan.Seconds(), warmup, env.Rand().Split())
	if err != nil {
		return nil, err
	}
	flows, err := workload.Generate(cfg.Mice, arrivals, sizes)
	if err != nil {
		return nil, err
	}
	for i, fl := range flows {
		at := fl.At
		if at >= end {
			break
		}
		sender := env.Senders[cfg.Elephants+i]
		sender.LimitSegments(fl.Segments)
		startAt := at
		sender.OnComplete(func(now sim.Time) {
			res.Completed++
			res.FCTs = append(res.FCTs, now.Sub(startAt).Seconds())
		})
		if err := sender.Start(at); err != nil {
			return nil, err
		}
		res.Started++
	}

	env.Account.SetStart(warmup)
	var gen *attack.Generator
	if cfg.Train != nil && len(cfg.Train.Pulses) > 0 {
		gen, err = env.Attach(*cfg.Train)
		if err != nil {
			return nil, err
		}
		if err := gen.Start(warmup); err != nil {
			return nil, err
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	step := end / runChunks
	if step <= 0 {
		step = end
	}
	for t := step; ; t += step {
		if t > end {
			t = end
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := k.RunUntil(t); err != nil {
			return nil, err
		}
		if t == end {
			break
		}
	}
	env.StopFlows()
	if gen != nil {
		gen.Stop()
	}

	for i := 0; i < cfg.Elephants; i++ {
		res.ElephantBytes += env.Account.Flow(i)
	}
	if len(res.FCTs) > 0 {
		res.MeanFCT, _ = stats.Mean(res.FCTs)
		res.MedianFCT, _ = stats.Median(res.FCTs)
		res.P95FCT, _ = stats.Percentile(res.FCTs, 95)
	}
	return res, nil
}
