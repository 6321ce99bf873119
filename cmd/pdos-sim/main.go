// Command pdos-sim runs a single PDoS attack scenario on one of the
// evaluation topologies — the Fig. 5 ns-2 dumbbell, the Fig. 11 Dummynet
// test-bed, the parking-lot multi-bottleneck chain, or the dumbbell with
// cross-traffic — and reports throughput degradation, attack gain, and TCP
// state statistics. The flags compile to one scenario document, the same
// currency -config reads; each run is compared with the document's no-attack
// baseline.
//
// Example:
//
//	pdos-sim -topology dumbbell -flows 25 -rate 35e6 -extent 75ms -gamma 0.5
//	pdos-sim -topology parkinglot -workers 4
//	pdos-sim -config scenario.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pulsedos"
	"pulsedos/internal/experiments"
	"pulsedos/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pdos-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
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
		workers  = fs.Int("workers", 1, "shard the topology across N cores (an exact event tie at a shard boundary can make results differ from -workers 1)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *config != "" {
		return runScenario(*config, stdout)
	}
	if *flows < 1 || *seed == 0 {
		return errors.New("-flows must be at least 1 and -seed nonzero: a scenario document reads 0 as the kind default")
	}
	top, err := flagTopology(*topology, *flows, *workers)
	if err != nil {
		return err
	}
	doc := scenario.Config{
		Name:     "pdos-sim",
		Topology: top,
		Attack: &scenario.Attack{
			Kind:     "aimd",
			RateMbps: *rate / 1e6,
			ExtentMs: float64(*extent) / float64(time.Millisecond),
			Gamma:    *gamma,
		},
		WarmupSec:  warmup.Seconds(),
		MeasureSec: measure.Seconds(),
		Seed:       *seed,
	}

	// The analytic parameters do not depend on the worker count, so they
	// come from a serial build, which owns no goroutines to join.
	probe := doc
	probe.Topology.Workers = 0
	env, err := probe.Build()
	if err != nil {
		return err
	}
	params := env.ModelParams()
	period := pulsedos.PeriodForGamma(*gamma, *rate, *extent, params.Bottleneck)
	if period < *extent {
		return fmt.Errorf("gamma %.2f unreachable at %.0f Mbps pulses: would need period %v < extent %v",
			*gamma, *rate/1e6, period, *extent)
	}
	if err := doc.Validate(); err != nil {
		return err
	}

	// The baseline's measured SRTTs calibrate the model RTTs, as every gain
	// figure does.
	baseline := doc
	baseline.Attack = nil
	baseline.Measure = &scenario.Measure{Taps: []string{"srtt"}}
	base, res, err := runPair(baseline, doc)
	if err != nil {
		return err
	}
	params = params.CalibrateRTTs(base.SRTTs)

	deg := 1 - float64(res.Delivered)/float64(base.Delivered)
	if deg < 0 {
		deg = 0
	}
	cPsi := params.CPsi(extent.Seconds(), *rate)
	fmt.Fprintf(stdout, "topology                : %s (%d flows, bottleneck %.0f Mbps)\n",
		*topology, *flows, params.Bottleneck/1e6)
	fmt.Fprintf(stdout, "attack                  : R=%.0f Mbps, Textent=%v, T_AIMD=%v, gamma=%.3f, %d pulses\n",
		*rate/1e6, *extent, period.Round(time.Millisecond), *gamma, experiments.PulsesFor(*measure, period))
	fmt.Fprintf(stdout, "baseline throughput     : %.3f Mbps\n", mbps(base.Delivered, *measure))
	fmt.Fprintf(stdout, "attacked throughput     : %.3f Mbps\n", mbps(res.Delivered, *measure))
	fmt.Fprintf(stdout, "measured degradation    : %.4f   (analytic %.4f)\n",
		deg, pulsedos.Degradation(cPsi, *gamma))
	fmt.Fprintf(stdout, "measured attack gain    : %.4f   (analytic %.4f)\n",
		deg*pulsedos.RiskFactor(*gamma, *kappa), pulsedos.Gain(cPsi, *gamma, *kappa))
	fmt.Fprintf(stdout, "victim TO / FR entries  : %d / %d  (baseline %d / %d)\n",
		res.Timeouts, res.FastRecoveries, base.Timeouts, base.FastRecoveries)
	fmt.Fprintf(stdout, "attack packets sent     : %d (%.1f MB)\n",
		res.AttackStats.PacketsSent, float64(res.AttackStats.BytesSent)/1e6)
	return nil
}

// flagTopology states a -topology kind as a scenario document's topology.
func flagTopology(kind string, flows, workers int) (scenario.Topology, error) {
	switch kind {
	case "dumbbell", "testbed", "parkinglot":
		return scenario.Topology{Kind: kind, Flows: flows, Workers: workers}, nil
	case "crosstraffic":
		return scenario.Topology{Kind: "graph", Workers: workers, Graph: crossTraffic(flows)}, nil
	}
	return scenario.Topology{}, fmt.Errorf("unknown topology %q (want dumbbell, testbed, parkinglot, or crosstraffic)", kind)
}

// crossTraffic is the graph of scenarios/cross-traffic.json with the given
// number of main flows: main flows cross the 15 Mbps bottleneck S → M and an
// uncongested egress M → R, while five cross flows leave at M.
func crossTraffic(flows int) *scenario.GraphSpec {
	return &scenario.GraphSpec{
		Routers: []string{"S", "M", "R"},
		Trunks: []scenario.GraphTrunk{
			{Name: "bottleneck", From: 0, To: 1, RateMbps: 15, DelayMs: 5, QueuePackets: 150},
			{Name: "egress", From: 1, To: 2, RateMbps: 100, DelayMs: 5, QueuePackets: 1000, DropTail: true},
		},
		Groups: []scenario.GraphGroup{
			{Flows: flows, Ingress: 0, Egress: 2, AccessRateMbps: 50, RTTMinMs: 30, RTTMaxMs: 460},
			{Flows: 5, Ingress: 0, Egress: 1, AccessRateMbps: 50, RTTMinMs: 20, RTTMaxMs: 460},
		},
		Attacks: []scenario.GraphAttack{{Router: 0, RateMbps: 1000}},
		Sink:    2,
	}
}

// runPair runs the no-attack baseline and the attacked document
// concurrently. Each run owns a private kernel, so the results equal a
// sequential execution.
func runPair(baseline, attacked scenario.Config) (base, res *experiments.RunResult, err error) {
	docs := [2]scenario.Config{baseline, attacked}
	var out [2]*experiments.RunResult
	err = experiments.RunTasks(2, 2, func(i int) (err error) {
		if out[i], err = docs[i].Run(); err != nil && i == 0 {
			err = fmt.Errorf("baseline: %w", err)
		}
		return err
	})
	return out[0], out[1], err
}

// runScenario executes a JSON-defined scenario, point by point when it
// carries a sweep, each point against a matching no-attack baseline for the
// degradation comparison.
func runScenario(path string, stdout io.Writer) error {
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
			fmt.Fprintln(stdout)
		}
		if err := runPoint(pt, stdout); err != nil {
			return err
		}
	}
	return nil
}

// runPoint runs one expanded scenario and its baseline and prints a block.
func runPoint(cfg scenario.Config, stdout io.Writer) error {
	baseline := cfg
	baseline.Attack = nil
	base, res, err := runPair(baseline, cfg)
	if err != nil {
		return err
	}
	span := time.Duration(cfg.MeasureSec * float64(time.Second))
	fmt.Fprintf(stdout, "scenario                : %s (%s, %d-ish flows)\n", cfg.Name, cfg.Topology.Kind, cfg.Topology.Flows)
	fmt.Fprintf(stdout, "baseline throughput     : %.3f Mbps\n", mbps(base.Delivered, span))
	fmt.Fprintf(stdout, "attacked throughput     : %.3f Mbps\n", mbps(res.Delivered, span))
	deg := 0.0
	if base.Delivered > 0 {
		deg = 1 - float64(res.Delivered)/float64(base.Delivered)
		if deg < 0 {
			deg = 0
		}
	}
	fmt.Fprintf(stdout, "measured degradation    : %.4f\n", deg)
	fmt.Fprintf(stdout, "victim TO / FR entries  : %d / %d  (baseline %d / %d)\n",
		res.Timeouts, res.FastRecoveries, base.Timeouts, base.FastRecoveries)
	fmt.Fprintf(stdout, "attack packets sent     : %d\n", res.AttackStats.PacketsSent)
	if res.Jitter != nil {
		fmt.Fprintf(stdout, "mean victim jitter      : %.4f s\n", res.Jitter.Mean())
	}
	return nil
}

func mbps(bytes uint64, span time.Duration) float64 {
	return float64(bytes) * 8 / span.Seconds() / 1e6
}
