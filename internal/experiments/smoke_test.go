package experiments

import (
	"testing"
	"time"

	"pulsedos/internal/attack"
	"pulsedos/internal/sim"
	"pulsedos/internal/stats"
	"pulsedos/internal/topo"
)

// TestDumbbellBaselineSaturates checks Lemma 1's premise: absent an attack,
// the victim aggregate fills the bottleneck.
func TestDumbbellBaselineSaturates(t *testing.T) {
	env, err := topo.Build(topo.Dumbbell(topo.DefaultDumbbellConfig(15)), topo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(env, RunOptions{Warmup: 10 * time.Second, Measure: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	util := float64(res.Delivered) * 8 / 20 / env.ModelParams().Bottleneck
	t.Logf("delivered=%d bytes util=%.3f timeouts=%d FRs=%d retx=%d sent=%d",
		res.Delivered, util, res.Timeouts, res.FastRecoveries, res.Retransmits, res.SegmentsSent)
	if util < 0.75 {
		t.Errorf("baseline utilization %.3f below 0.75", util)
	}
	if util > 1.01 {
		t.Errorf("baseline utilization %.3f above capacity", util)
	}
}

// TestDumbbellAttackDegrades checks that a mid-γ pulse train produces
// substantial throughput degradation.
func TestDumbbellAttackDegrades(t *testing.T) {
	baselineEnv, err := topo.Build(topo.Dumbbell(topo.DefaultDumbbellConfig(15)), topo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(baselineEnv, RunOptions{Warmup: 10 * time.Second, Measure: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	env, err := topo.Build(topo.Dumbbell(topo.DefaultDumbbellConfig(15)), topo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	extent := 75 * time.Millisecond
	rate := 35e6
	gamma := 0.5
	period := PeriodForGamma(gamma, rate, extent, 15e6)
	train, err := attack.AIMDTrain(sim.FromDuration(extent), rate, sim.FromDuration(period),
		PulsesFor(20*time.Second, period))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(env, RunOptions{Warmup: 10 * time.Second, Measure: 20 * time.Second, Train: &train})
	if err != nil {
		t.Fatal(err)
	}
	deg := 1 - float64(res.Delivered)/float64(base.Delivered)
	t.Logf("period=%v baseline=%d attacked=%d degradation=%.3f timeouts=%d FRs=%d attackPkts=%d",
		period, base.Delivered, res.Delivered, deg, res.Timeouts, res.FastRecoveries,
		res.AttackStats.PacketsSent)
	if deg < 0.2 {
		t.Errorf("degradation %.3f too small for gamma=0.5", deg)
	}
}

// TestAttackIncreasesJitter verifies the §2.3 side effect: the periodic
// queue fill/drain cycle inflates the victims' packet inter-arrival jitter.
func TestAttackIncreasesJitter(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	measure := func(withAttack bool) float64 {
		env, err := topo.Build(topo.Dumbbell(topo.DefaultDumbbellConfig(15)), topo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opt := RunOptions{Warmup: 8 * time.Second, Measure: 12 * time.Second, MeasureJitter: true}
		if withAttack {
			train := quickTrain(t, 0.5, 35e6, 75*time.Millisecond, 15e6, opt.Measure)
			opt.Train = &train
		}
		res, err := Run(env, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res.Jitter.Mean()
	}
	calm := measure(false)
	attacked := measure(true)
	t.Logf("mean jitter: calm=%.4fs attacked=%.4fs", calm, attacked)
	if attacked <= calm {
		t.Errorf("attack did not increase jitter: %.5f vs %.5f", attacked, calm)
	}
}

// TestAttackSkewsFairness verifies a side effect the RTT-biased analysis
// implies: under attack, short-RTT flows recover between pulses far faster
// than long-RTT flows, so Jain's fairness over per-flow goodput drops.
func TestAttackSkewsFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	fairness := func(withAttack bool) float64 {
		env, err := topo.Build(topo.Dumbbell(topo.DefaultDumbbellConfig(15)), topo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opt := RunOptions{Warmup: 8 * time.Second, Measure: 12 * time.Second}
		if withAttack {
			train := quickTrain(t, 0.4, 30e6, 75*time.Millisecond, 15e6, opt.Measure)
			opt.Train = &train
		}
		res, err := Run(env, opt)
		if err != nil {
			t.Fatal(err)
		}
		shares := make([]float64, 0, len(res.PerFlow))
		for flow := 0; flow < 15; flow++ {
			shares = append(shares, float64(res.PerFlow[flow]))
		}
		j, err := stats.JainFairness(shares)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	calm := fairness(false)
	attacked := fairness(true)
	t.Logf("Jain fairness: calm=%.3f attacked=%.3f", calm, attacked)
	if attacked >= calm {
		t.Errorf("attack did not reduce fairness: %.3f vs %.3f", attacked, calm)
	}
}
