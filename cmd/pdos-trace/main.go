// Command pdos-trace runs one attacked scenario and emits an ns-2-style
// packet-event trace of the bottleneck link ('+' enqueue, 'd' drop, '-'
// dequeue), for downstream analysis with the same tooling people used on
// ns-2 trace files. Its flags compile to a dumbbell + aimd scenario document,
// whose target link the trace taps.
//
// Example:
//
//	pdos-trace -flows 5 -rate 35e6 -extent 75ms -gamma 0.5 -measure 5s > bottleneck.tr
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pulsedos/internal/experiments"
	"pulsedos/internal/scenario"
	"pulsedos/internal/sim"
	"pulsedos/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pdos-trace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pdos-trace", flag.ContinueOnError)
	var (
		flows   = fs.Int("flows", 5, "number of victim TCP flows")
		rate    = fs.Float64("rate", 35e6, "pulse rate R_attack (bps)")
		extent  = fs.Duration("extent", 75*time.Millisecond, "pulse width T_extent")
		gamma   = fs.Float64("gamma", 0.5, "target normalized average attack rate")
		warmup  = fs.Duration("warmup", 5*time.Second, "warm-up before the attack and trace")
		measure = fs.Duration("measure", 5*time.Second, "traced window")
		seed    = fs.Uint64("seed", 1, "simulation seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *flows < 1 || *seed == 0 {
		return errors.New("-flows must be at least 1 and -seed nonzero: a scenario document reads 0 as the kind default")
	}
	doc := scenario.Config{
		Name:     "pdos-trace",
		Topology: scenario.Topology{Kind: "dumbbell", Flows: *flows},
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
	if err := doc.Validate(); err != nil {
		return err
	}
	env, err := doc.Build()
	if err != nil {
		return err
	}
	train, err := doc.Train(env)
	if err != nil {
		return err
	}

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	tr := trace.NewEventTrace("bottleneck-fwd", out)
	tr.SetStart(sim.FromDuration(*warmup))
	env.Target().AddTap(tr)

	res, err := experiments.RunCtx(context.Background(), env,
		experiments.RunOptions{Warmup: *warmup, Measure: *measure, Train: train})
	if err != nil {
		return err
	}
	if tr.WriteErrors() > 0 {
		return fmt.Errorf("%d trace lines failed to write", tr.WriteErrors())
	}
	fmt.Fprintf(stderr, "pdos-trace: %d victim bytes delivered, %d drops at the bottleneck\n",
		res.Delivered, res.Drops.Total)
	return nil
}
