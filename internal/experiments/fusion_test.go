package experiments

import (
	"fmt"
	"slices"
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

// serialCaptures adds the captures only a serial run takes to a case's run
// options: the bottleneck queue-depth sampler, one victim's congestion-window
// trace and every victim's smoothed RTT. The queue sampler is the one capture
// that fires kernel events; runFusionScenario subtracts them from the
// processed total, so a captured serial leg still compares against the
// uncaptured sharded ones.
func serialCaptures(opt RunOptions) RunOptions {
	opt.QueueBin = 50 * time.Millisecond
	opt.CaptureCwnd = true
	opt.CaptureSRTT = true
	return opt
}

// runFusionScenario builds the graph on the requested link schedule and
// worker count, runs it under opt and snapshots every observable the
// contract compares. A golden build must elide nothing; a fused build must
// elide something (the exact elision count is enforced indirectly:
// compareScenarios checks the normalized Processed totals, and the fused
// side's equals its raw kernel count plus SkippedEvents).
func runFusionScenario(t *testing.T, c fusionCase, opt RunOptions, golden bool, workers int) shardedScenario {
	t.Helper()
	g := c.graph
	g.GoldenLinks = golden
	env, err := topo.Build(g, topo.Options{Workers: workers})
	if err != nil {
		t.Fatalf("%s: build golden=%v workers=%d: %v", c.name, golden, workers, err)
	}
	defer env.Close()
	sc := collectScenario(t, env, c.flows, opt)
	sc.processed -= uint64(len(sc.res.Queue))
	sc.kernelEvents = env.KernelEvents()
	sc.targetGolden = env.Target().GoldenPath()
	skipped := env.SkippedEvents()
	if golden && skipped != 0 {
		t.Errorf("%s: golden build workers=%d elided %d events", c.name, workers, skipped)
	}
	if !golden && skipped == 0 {
		t.Errorf("%s: fused build workers=%d elided no events", c.name, workers)
	}
	return sc
}

// compareCaptures requires two serial runs' captures to match exactly:
// queue-depth samples, the congestion-window trace and the per-flow SRTTs.
func compareCaptures(t *testing.T, label string, want, got *RunResult) {
	t.Helper()
	if !slices.Equal(want.Queue, got.Queue) {
		t.Errorf("%s: queue samples diverge from the reference (%d vs %d samples)", label, len(got.Queue), len(want.Queue))
	}
	if !slices.Equal(want.Cwnd, got.Cwnd) {
		t.Errorf("%s: cwnd trace diverges from the reference (%d vs %d samples)", label, len(got.Cwnd), len(want.Cwnd))
	}
	if !slices.Equal(want.SRTTs, got.SRTTs) {
		t.Errorf("%s: SRTTs %v, reference %v", label, got.SRTTs, want.SRTTs)
	}
}

// checkFused requires a fused leg to have fired strictly fewer kernel events
// than the golden leg of the same worker count.
func checkFused(t *testing.T, label string, golden, fused shardedScenario) {
	t.Helper()
	if fused.kernelEvents >= golden.kernelEvents {
		t.Errorf("%s: fused fired %d kernel events, golden %d — fusion saved nothing",
			label, fused.kernelEvents, golden.kernelEvents)
	}
}

// TestFusionEquivalence is the event-fusion determinism contract: on
// randomized dumbbell, parking-lot, and cross-traffic scenarios, the default
// fused link schedule must reproduce the golden two-event reference
// byte-identically — delivered bytes, per-flow accounts, TCP state
// statistics, attack and drop counters, normalized processed-event totals,
// and the figure CSVs — at 1, 2, 4, and 8 workers, while firing strictly
// fewer kernel events. The serial legs also take every serial capture
// (queue depth, cwnd, SRTT), which must match exactly, and their tapped
// bottleneck must run fused; a jitter meter, the one departure observer a
// document can attach, must pin it golden without changing any observable.
func TestFusionEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second virtual scenarios")
	}
	for seed := uint64(1); seed <= 2; seed++ {
		for _, c := range randomFusionCases(seed) {
			serial := serialCaptures(c.opt)
			ref := runFusionScenario(t, c, serial, true, 1)
			if r := ref.res; len(r.Queue) == 0 || len(r.Cwnd) == 0 || len(r.SRTTs) != c.flows {
				t.Fatalf("%s: reference captured %d queue samples, %d cwnd samples, %d SRTTs for %d flows",
					c.name, len(r.Queue), len(r.Cwnd), len(r.SRTTs), c.flows)
			}
			fused := runFusionScenario(t, c, serial, false, 1)
			label := c.name + " fused workers=1"
			compareScenarios(t, label, ref, fused)
			compareCaptures(t, label, ref.res, fused.res)
			checkFused(t, label, ref, fused)
			if fused.targetGolden {
				t.Errorf("%s: the tapped bottleneck ran the golden schedule", label)
			}

			jitterOpt := serial
			jitterOpt.MeasureJitter = true
			jitter := runFusionScenario(t, c, jitterOpt, false, 1)
			label = c.name + " fused workers=1 jitter"
			compareScenarios(t, label, ref, jitter)
			compareCaptures(t, label, ref.res, jitter.res)
			if !jitter.targetGolden {
				t.Errorf("%s: a departure tap left the bottleneck fused", label)
			}

			for _, workers := range []int{2, 4, 8} {
				golden := runFusionScenario(t, c, c.opt, true, workers)
				fused := runFusionScenario(t, c, c.opt, false, workers)
				compareScenarios(t, fmt.Sprintf("%s golden workers=%d", c.name, workers), ref, golden)
				compareScenarios(t, fmt.Sprintf("%s fused workers=%d", c.name, workers), ref, fused)
				checkFused(t, fmt.Sprintf("%s workers=%d", c.name, workers), golden, fused)
			}
			if t.Failed() {
				t.Fatalf("divergence in %s", c.name)
			}
		}
	}
}
