package experiments

import (
	"fmt"
	"testing"
	"time"

	"pulsedos/internal/attack"
	"pulsedos/internal/rng"
	"pulsedos/internal/sim"
	"pulsedos/internal/topo"
)

// fusionCase is one randomized topology instance for the fused-vs-golden
// equivalence contract (DESIGN.md §14): the same graph built with
// GoldenLinks (the verbatim two-event serialize→propagate schedule) and on
// the default fused path must produce byte-identical observables.
type fusionCase struct {
	name  string
	graph topo.Graph
	flows int
	opt   RunOptions
}

// fusionRunOptions draws a pulsed run window sized for the equivalence
// suite: long enough for slow-start, losses, and RTO churn on every
// topology, short enough to afford three topologies × four worker counts
// under -race.
func fusionRunOptions(r *rng.Source, bottleneck float64) RunOptions {
	opt := RunOptions{
		Warmup:  time.Second,
		Measure: 2 * time.Second,
		RateBin: 100 * time.Millisecond,
	}
	extent := time.Duration(40+r.Int63n(50)) * time.Millisecond
	period := time.Duration(400+r.Int63n(700)) * time.Millisecond
	rate := float64(2+r.Int63n(2)) * bottleneck
	train, err := attack.AIMDTrain(sim.FromDuration(extent), rate,
		sim.FromDuration(period), PulsesFor(opt.Measure, period))
	if err == nil {
		opt.Train = &train
	}
	return opt
}

// randomFusionCases derives one randomized instance of each supported
// topology family from the seed, the same spirit as randomShardedConfig.
func randomFusionCases(seed uint64) []fusionCase {
	var cases []fusionCase

	dcfg, dopt := randomShardedConfig(seed)
	dopt.Warmup, dopt.Measure = time.Second, 2*time.Second
	cases = append(cases, fusionCase{
		name:  fmt.Sprintf("dumbbell/seed=%d", seed),
		graph: topo.Dumbbell(dcfg),
		flows: dcfg.Flows,
		opt:   dopt,
	})

	r := rng.New(seed ^ 0x9e3779b97f4a7c15)
	pcfg := topo.DefaultParkingLotConfig()
	pcfg.Seed = seed
	pcfg.Hops = 2 + int(r.Int63n(3))
	pcfg.LongFlows = 3 + int(r.Int63n(4))
	pcfg.CrossFlows = int(r.Int63n(4))
	pcfg.BottleneckRate = float64(1+r.Int63n(4)) * 2e6
	pcfg.QueueLimit = 30 + int(r.Int63n(60))
	pcfg.DropTail = r.Int63n(3) == 0
	pcfg.StartSpread = 500 * time.Millisecond
	cases = append(cases, fusionCase{
		name:  fmt.Sprintf("parkinglot/seed=%d", seed),
		graph: topo.ParkingLot(pcfg),
		flows: pcfg.LongFlows + pcfg.Hops*pcfg.CrossFlows,
		opt:   fusionRunOptions(r, pcfg.BottleneckRate),
	})

	ccfg := topo.DefaultCrossTrafficConfig()
	ccfg.Seed = seed
	ccfg.Flows = 4 + int(r.Int63n(5))
	ccfg.CrossFlows = 2 + int(r.Int63n(3))
	ccfg.BottleneckRate = float64(1+r.Int63n(4)) * 2e6
	ccfg.QueueLimit = 30 + int(r.Int63n(60))
	ccfg.DropTail = r.Int63n(3) == 0
	ccfg.StartSpread = 500 * time.Millisecond
	cases = append(cases, fusionCase{
		name:  fmt.Sprintf("cross-traffic/seed=%d", seed),
		graph: topo.CrossTraffic(ccfg),
		flows: ccfg.Flows + ccfg.CrossFlows,
		opt:   fusionRunOptions(r, ccfg.BottleneckRate),
	})
	return cases
}

// runFusionScenario builds the graph on the requested link schedule and
// worker count and snapshots every observable the contract compares. A
// golden build must elide nothing; a fused build must elide something (the
// exact elision count is enforced indirectly: compareScenarios checks the
// normalized Processed totals, and the fused side's equals its raw kernel
// count plus SkippedEvents).
func runFusionScenario(t *testing.T, c fusionCase, golden bool, workers int) shardedScenario {
	t.Helper()
	g := c.graph
	g.GoldenLinks = golden
	env, err := topo.Build(g, topo.Options{Workers: workers})
	if err != nil {
		t.Fatalf("%s: build golden=%v workers=%d: %v", c.name, golden, workers, err)
	}
	defer env.Close()
	sc := collectScenario(t, env, c.flows, c.opt)
	sc.kernelEvents = env.KernelEvents()
	skipped := env.SkippedEvents()
	if golden && skipped != 0 {
		t.Errorf("%s: golden build workers=%d elided %d events", c.name, workers, skipped)
	}
	if !golden && skipped == 0 {
		t.Errorf("%s: fused build workers=%d elided no events", c.name, workers)
	}
	return sc
}

// TestFusionEquivalence is the event-fusion determinism contract: on
// randomized dumbbell, parking-lot, and cross-traffic scenarios, the default
// fused link schedule must reproduce the golden two-event reference
// byte-identically — delivered bytes, per-flow accounts, TCP state
// statistics, attack and drop counters, normalized processed-event totals,
// and the figure CSVs — at 1, 2, 4, and 8 workers, while firing strictly
// fewer kernel events.
func TestFusionEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second virtual scenarios")
	}
	for seed := uint64(1); seed <= 2; seed++ {
		for _, c := range randomFusionCases(seed) {
			ref := runFusionScenario(t, c, true, 1)
			for _, workers := range []int{1, 2, 4, 8} {
				golden := runFusionScenario(t, c, true, workers)
				fused := runFusionScenario(t, c, false, workers)
				compareScenarios(t, fmt.Sprintf("%s golden workers=%d", c.name, workers), ref, golden)
				compareScenarios(t, fmt.Sprintf("%s fused workers=%d", c.name, workers), ref, fused)
				if fused.kernelEvents >= golden.kernelEvents {
					t.Errorf("%s workers=%d: fused fired %d kernel events, golden %d — fusion saved nothing",
						c.name, workers, fused.kernelEvents, golden.kernelEvents)
				}
			}
			if t.Failed() {
				t.Fatalf("divergence in %s", c.name)
			}
		}
	}
}
