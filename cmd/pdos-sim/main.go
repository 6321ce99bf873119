// Command pdos-sim runs a single PDoS attack scenario on one of the
// evaluation topologies — the Fig. 5 ns-2 dumbbell, the Fig. 11 Dummynet
// test-bed, the parking-lot multi-bottleneck chain, or the dumbbell with
// cross-traffic — and reports throughput degradation, attack gain, and TCP
// state statistics.
//
// Example:
//
//	pdos-sim -topology dumbbell -flows 25 -rate 35e6 -extent 75ms -gamma 0.5
//	pdos-sim -topology parkinglot -workers 4
//	pdos-sim -config scenario.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pulsedos"
	"pulsedos/internal/experiments"
	"pulsedos/internal/scenario"
	"pulsedos/internal/topo"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pdos-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pdos-sim", flag.ContinueOnError)
	var (
		config   = fs.String("config", "", "JSON scenario file (overrides the other flags)")
		topology = fs.String("topology", "dumbbell", "dumbbell (ns-2 Fig. 5), testbed (Fig. 11), parkinglot, or crosstraffic")
		flows    = fs.Int("flows", 25, "number of victim TCP flows")
		rate     = fs.Float64("rate", 35e6, "pulse rate R_attack (bps)")
		extent   = fs.Duration("extent", 75*time.Millisecond, "pulse width T_extent")
		gamma    = fs.Float64("gamma", 0.5, "target normalized average attack rate")
		kappa    = fs.Float64("kappa", 1, "risk preference kappa")
		warmup   = fs.Duration("warmup", 10*time.Second, "warm-up before measurement")
		measure  = fs.Duration("measure", 30*time.Second, "measurement window")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		workers  = fs.Int("workers", 1, "shard the topology across N cores (results identical to -workers 1)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *config != "" {
		return runScenario(*config)
	}

	factory, err := environmentFactory(*topology, *flows, *seed, *workers)
	if err != nil {
		return err
	}

	// Both runs own a private kernel and environment, so the baseline and the
	// attacked scenario simulate concurrently with identical results to a
	// sequential execution.
	baseEnv, err := factory()
	if err != nil {
		return err
	}
	params := baseEnv.ModelParams()

	period := pulsedos.PeriodForGamma(*gamma, *rate, *extent, params.Bottleneck)
	if period < *extent {
		return fmt.Errorf("gamma %.2f unreachable at %.0f Mbps pulses: would need period %v < extent %v",
			*gamma, *rate/1e6, period, *extent)
	}
	pulses := int(*measure/period) + 2
	train, err := pulsedos.AIMDTrain(*extent, *rate, period, pulses)
	if err != nil {
		return err
	}
	env, err := factory()
	if err != nil {
		return err
	}

	var base, res *pulsedos.RunResult
	runs := []func() error{
		func() (err error) {
			base, err = pulsedos.Run(baseEnv, pulsedos.RunOptions{Warmup: *warmup, Measure: *measure})
			return err
		},
		func() (err error) {
			res, err = pulsedos.Run(env, pulsedos.RunOptions{Warmup: *warmup, Measure: *measure, Train: &train})
			return err
		},
	}
	runErr := experiments.RunTasks(2, len(runs), func(i int) error { return runs[i]() })
	closeEnv(baseEnv)
	closeEnv(env)
	if runErr != nil {
		return runErr
	}

	deg := 1 - float64(res.Delivered)/float64(base.Delivered)
	if deg < 0 {
		deg = 0
	}
	cPsi := params.CPsi(extent.Seconds(), *rate)
	fmt.Printf("topology                : %s (%d flows, bottleneck %.0f Mbps)\n",
		*topology, *flows, params.Bottleneck/1e6)
	fmt.Printf("attack                  : R=%.0f Mbps, Textent=%v, T_AIMD=%v, gamma=%.3f, %d pulses\n",
		*rate/1e6, *extent, period.Round(time.Millisecond), *gamma, pulses)
	fmt.Printf("baseline throughput     : %.3f Mbps\n", mbps(base.Delivered, *measure))
	fmt.Printf("attacked throughput     : %.3f Mbps\n", mbps(res.Delivered, *measure))
	fmt.Printf("measured degradation    : %.4f   (analytic %.4f)\n",
		deg, pulsedos.Degradation(cPsi, *gamma))
	fmt.Printf("measured attack gain    : %.4f   (analytic %.4f)\n",
		deg*pulsedos.RiskFactor(*gamma, *kappa), pulsedos.Gain(cPsi, *gamma, *kappa))
	fmt.Printf("victim TO / FR entries  : %d / %d  (baseline %d / %d)\n",
		res.Timeouts, res.FastRecoveries, base.Timeouts, base.FastRecoveries)
	fmt.Printf("attack packets sent     : %d (%.1f MB)\n",
		res.AttackStats.PacketsSent, float64(res.AttackStats.BytesSent)/1e6)
	return nil
}

// runScenario executes a JSON-defined scenario, point by point when it
// carries a sweep, each point against a matching no-attack baseline for the
// degradation comparison.
func runScenario(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	cfg, err := scenario.Load(f)
	closeErr := f.Close()
	if err != nil {
		return err
	}
	if closeErr != nil {
		return closeErr
	}
	points, err := cfg.Expand()
	if err != nil {
		return err
	}
	for i, pt := range points {
		if i > 0 {
			fmt.Println()
		}
		if err := runPoint(pt); err != nil {
			return err
		}
	}
	return nil
}

// runPoint runs one expanded scenario and its baseline and prints a block.
func runPoint(cfg scenario.Config) error {
	baselineCfg := cfg
	baselineCfg.Attack = nil
	base, err := baselineCfg.Run()
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	res, err := cfg.Run()
	if err != nil {
		return err
	}
	span := time.Duration(cfg.MeasureSec * float64(time.Second))
	fmt.Printf("scenario                : %s (%s, %d-ish flows)\n", cfg.Name, cfg.Topology.Kind, cfg.Topology.Flows)
	fmt.Printf("baseline throughput     : %.3f Mbps\n", mbps(base.Delivered, span))
	fmt.Printf("attacked throughput     : %.3f Mbps\n", mbps(res.Delivered, span))
	deg := 0.0
	if base.Delivered > 0 {
		deg = 1 - float64(res.Delivered)/float64(base.Delivered)
		if deg < 0 {
			deg = 0
		}
	}
	fmt.Printf("measured degradation    : %.4f\n", deg)
	fmt.Printf("victim TO / FR entries  : %d / %d  (baseline %d / %d)\n",
		res.Timeouts, res.FastRecoveries, base.Timeouts, base.FastRecoveries)
	fmt.Printf("attack packets sent     : %d\n", res.AttackStats.PacketsSent)
	if res.Jitter != nil {
		fmt.Printf("mean victim jitter      : %.4f s\n", res.Jitter.Mean())
	}
	return nil
}

// environmentFactory builds identically configured environments on demand.
// Every topology resolves to a declarative graph and builds through
// topo.Build; workers > 1 shards it across the conservative parallel engine
// with results bit-identical to the serial build at any worker count.
func environmentFactory(topology string, flows int, seed uint64, workers int) (func() (pulsedos.Environment, error), error) {
	var gen func() topo.Graph
	switch topology {
	case "dumbbell":
		gen = func() topo.Graph {
			cfg := topo.DefaultDumbbellConfig(flows)
			cfg.Seed = seed
			return topo.Dumbbell(cfg)
		}
	case "testbed":
		gen = func() topo.Graph {
			cfg := topo.DefaultTestbedConfig(flows)
			cfg.Seed = seed
			return topo.Testbed(cfg)
		}
	case "parkinglot":
		gen = func() topo.Graph {
			cfg := topo.DefaultParkingLotConfig()
			cfg.LongFlows = flows
			cfg.Seed = seed
			return topo.ParkingLot(cfg)
		}
	case "crosstraffic":
		gen = func() topo.Graph {
			cfg := topo.DefaultCrossTrafficConfig()
			cfg.Flows = flows
			cfg.Seed = seed
			return topo.CrossTraffic(cfg)
		}
	default:
		return nil, fmt.Errorf("unknown topology %q (want dumbbell, testbed, parkinglot, or crosstraffic)", topology)
	}
	return func() (pulsedos.Environment, error) {
		return topo.Build(gen(), topo.Options{Workers: workers})
	}, nil
}

// closeEnv joins any shard goroutines an environment may own.
func closeEnv(env pulsedos.Environment) {
	if c, ok := env.(interface{ Close() }); ok {
		c.Close()
	}
}

func mbps(bytes uint64, span time.Duration) float64 {
	return float64(bytes) * 8 / span.Seconds() / 1e6
}
