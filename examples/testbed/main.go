// Testbed: drive the paper's Dummynet test-bed emulation (§4.2, Figs. 11–12):
// 10 legitimate bulk TCP flows through a 10 Mbps / 150 ms RED pipe, attacked
// by 150 ms pulses at 20 Mbps (the paper's normal-gain setting), with the
// aggregate incoming rate reported per 2 s interval in the style of iperf -i.
//
// Run with: go run ./examples/testbed
package main

import (
	"fmt"
	"os"
	"time"

	"pulsedos"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "testbed:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := pulsedos.DefaultTestbedConfig(10)
	const (
		rate    = 20e6
		extent  = 150 * time.Millisecond
		warmup  = 10 * time.Second
		measure = 30 * time.Second
	)

	// Plan the risk-neutral optimum on this victim population.
	planner, err := pulsedos.BuildTestbed(cfg)
	if err != nil {
		return err
	}
	params := planner.ModelParams()
	plan, err := pulsedos.PlanAttack(params, extent.Seconds(), rate, 1)
	if err != nil {
		return err
	}
	fmt.Printf("test-bed: %d flows through %.0f Mbps / %v Dummynet pipe (RED)\n",
		cfg.Flows, cfg.BottleneckRate/1e6, cfg.PipeDelay)
	fmt.Printf("planned attack: gamma*=%.3f T_AIMD=%.0f ms predicted gain=%.3f\n\n",
		plan.Gamma, plan.Period*1000, plan.Gain)

	// Baseline run.
	base, err := pulsedos.Run(planner, pulsedos.RunOptions{Warmup: warmup, Measure: measure})
	if err != nil {
		return err
	}

	// Attacked run with the planned period.
	period := time.Duration(plan.Period * float64(time.Second))
	train, err := pulsedos.AIMDTrain(extent, rate, period, int(measure/period)+2)
	if err != nil {
		return err
	}
	env, err := pulsedos.BuildTestbed(cfg)
	if err != nil {
		return err
	}
	res, err := pulsedos.Run(env, pulsedos.RunOptions{
		Warmup:  warmup,
		Measure: measure,
		Train:   &train,
		RateBin: 500 * time.Millisecond,
	})
	if err != nil {
		return err
	}

	// iperf-style interval report of the aggregate incoming rate.
	fmt.Println("interval            aggregate rate")
	rates := res.Rate.Rates()
	const perRow = 4 // 2 s rows from 500 ms bins
	for i := 0; i+perRow <= len(rates); i += perRow {
		sum := 0.0
		for _, r := range rates[i : i+perRow] {
			sum += r
		}
		start := time.Duration(i) * 500 * time.Millisecond
		end := start + perRow*500*time.Millisecond
		fmt.Printf("%6.1fs - %6.1fs   %6.2f Mbps\n",
			start.Seconds(), end.Seconds(), sum/perRow/1e6)
	}

	deg := 1 - float64(res.Delivered)/float64(base.Delivered)
	fmt.Printf("\nbaseline %.2f Mbps -> attacked %.2f Mbps: degradation %.3f, gain %.3f\n",
		mbps(base.Delivered, measure), mbps(res.Delivered, measure),
		deg, deg*pulsedos.RiskFactor(plan.Gamma, 1))
	fmt.Printf("victim TO/FR entries: %d/%d (baseline %d/%d)\n",
		res.Timeouts, res.FastRecoveries, base.Timeouts, base.FastRecoveries)
	return nil
}

func mbps(bytes uint64, span time.Duration) float64 {
	return float64(bytes) * 8 / span.Seconds() / 1e6
}
