package experiments

import (
	"context"
	"errors"
	"time"

	"pulsedos/internal/attack"
	"pulsedos/internal/rng"
	"pulsedos/internal/sim"
	"pulsedos/internal/stats"
	"pulsedos/internal/topo"
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
	MiceSegments int64 // payload per mouse, in MSS segments

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
	dcfg := topo.DefaultDumbbellConfig(cfg.Elephants + cfg.Mice)
	dcfg.Seed = cfg.Seed
	env, err := topo.Build(topo.Dumbbell(dcfg), topo.Options{})
	if err != nil {
		return nil, err
	}
	return RunMiceCtx(context.Background(), env, cfg, nil)
}

// RunMiceCtx executes the mice study's flow schedule on env — the one
// implementation behind MiceStudy and the scenario documents' "mice"
// workload. The topology, and so the seed, comes from env (cfg.Seed is not
// read); elephants start jittered across the graph's StartSpread. The
// timeline runs in RunCtx's slices: polled for cancellation, and reported to
// progress (when non-nil) as the completed fraction.
func RunMiceCtx(ctx context.Context, env *topo.Environment, cfg MiceConfig, progress func(frac float64)) (*MiceResult, error) {
	if cfg.Elephants < 1 || cfg.Mice < 1 || cfg.MiceSegments < 1 {
		return nil, errors.New("experiments: mice study needs elephants, mice, and a size")
	}
	if cfg.Measure <= 0 || cfg.ArrivalSpan <= 0 {
		return nil, errors.New("experiments: mice study needs positive windows")
	}
	if len(env.Senders) < cfg.Elephants+cfg.Mice {
		return nil, errors.New("experiments: mice study needs elephants + mice senders")
	}

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
	// finite transfer of MiceSegments timed from its own start.
	res := &MiceResult{}
	arrivals := env.Rand().Split()
	mean := sim.FromSeconds(1 / (float64(cfg.Mice) / cfg.ArrivalSpan.Seconds()))
	at := warmup
	for i := 0; i < cfg.Mice; i++ {
		if at = nextArrival(at, mean, arrivals); at >= end {
			break
		}
		sender := env.Senders[cfg.Elephants+i]
		sender.LimitSegments(cfg.MiceSegments)
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
		var err error
		gen, err = env.Attach(*cfg.Train)
		if err != nil {
			return nil, err
		}
		if err := gen.Start(warmup); err != nil {
			return nil, err
		}
	}
	if err := runSlices(ctx, end, env.Kernel.RunUntil, progress); err != nil {
		return nil, err
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

// nextArrival is the Poisson arrival after at: one exponential gap of the
// given mean drawn from r, at least 1 ns.
func nextArrival(at, mean sim.Time, r *rng.Source) sim.Time {
	//pdos:vtime-ok — exponential inter-arrival draw: the one float in the Poisson process, re-rounded to the grid immediately and clamped ≥ 1ns
	return at + max(sim.Time(float64(mean)*r.ExpFloat64()), 1)
}
