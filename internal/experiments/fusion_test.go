package experiments

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"pulsedos/internal/attack"
	"pulsedos/internal/rng"
	"pulsedos/internal/sim"
	"pulsedos/internal/tcp"
	"pulsedos/internal/topo"
	"pulsedos/internal/trace"
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

	// The dumbbell with cross-traffic: main flows S → M → R share the S → M
	// bottleneck with cross flows that leave at M over an uncongested egress.
	flows, cross := 4+int(r.Int63n(5)), 2+int(r.Int63n(3))
	bottleneck := float64(1+r.Int63n(4)) * 2e6
	queue := topo.QueueSpec{Kind: topo.QueueRED, Limit: 30 + int(r.Int63n(60))}
	if r.Int63n(3) == 0 {
		queue.Kind = topo.QueueDropTail
	}
	ack := topo.QueueSpec{Kind: topo.QueueDropTail, Limit: 4096}
	cases = append(cases, fusionCase{
		name: fmt.Sprintf("cross-traffic/seed=%d", seed),
		graph: topo.Graph{
			Name:    "cross-traffic",
			Routers: []string{"S", "M", "R"},
			Trunks: []topo.TrunkSpec{
				{Name: "bottleneck", From: 0, To: 1, Rate: bottleneck, Delay: 5 * time.Millisecond, Queue: queue, RevQueue: ack},
				{Name: "egress", From: 1, To: 2, Rate: 100e6, Delay: 5 * time.Millisecond,
					Queue: topo.QueueSpec{Kind: topo.QueueDropTail, Limit: 1000}, RevQueue: ack},
			},
			Groups: []topo.FlowGroup{
				{Flows: flows, Ingress: 0, Egress: 2, AccessRate: 50e6, RTTMin: 30 * time.Millisecond, RTTMax: 460 * time.Millisecond},
				{Flows: cross, Ingress: 0, Egress: 1, AccessRate: 50e6, RTTMin: 20 * time.Millisecond, RTTMax: 460 * time.Millisecond},
			},
			Attacks:          []topo.AttackPoint{{Router: 0, Rate: 1e9, Delay: 2 * time.Millisecond}},
			SinkRouter:       2,
			TCP:              tcp.DefaultConfig(),
			Seed:             seed,
			StartSpread:      500 * time.Millisecond,
			AttackPacketSize: 1000,
		},
		flows: flows + cross,
		opt:   fusionRunOptions(r, bottleneck),
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
	sc.skipped = env.SkippedEvents()
	sc.targetGolden = env.Target().GoldenPath()
	if golden && sc.skipped != 0 {
		t.Errorf("%s: golden build workers=%d elided %d events", c.name, workers, sc.skipped)
	}
	if !golden && sc.skipped == 0 {
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

// compareJitter requires two runs' jitter meters to agree on every flow's
// estimate and on the mean, and the reference to have measured some jitter.
func compareJitter(t *testing.T, label string, flows int, want, got *trace.JitterMeter) {
	t.Helper()
	if want.Mean() == 0 {
		t.Errorf("%s: the reference measured no jitter", label)
	}
	for i := 0; i < flows; i++ {
		if w, g := want.Flow(i), got.Flow(i); w != g {
			t.Errorf("%s: flow %d jitter %g s, reference %g s", label, i, g, w)
		}
	}
	if w, g := want.Mean(), got.Mean(); w != g {
		t.Errorf("%s: mean jitter %g s, reference %g s", label, g, w)
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

// checkShardedSchedule requires a sharded leg to run the serial leg's link
// schedule: a fused leg runs its bottleneck fused and elides exactly the
// events the serial fused leg elides — portal links and the cross-shard
// attacker included — so, with the normalized Processed totals equal
// (compareScenarios), its raw kernel count differs from the serial one only
// by the per-shard RTO heartbeat ticks. A golden leg sends through its
// portals on the two-event schedule.
func checkShardedSchedule(t *testing.T, label string, serial, sharded shardedScenario, golden bool) {
	t.Helper()
	if sharded.targetGolden != golden {
		t.Errorf("%s: bottleneck ran golden=%v, want %v", label, sharded.targetGolden, golden)
	}
	if !golden && sharded.skipped != serial.skipped {
		t.Errorf("%s: elided %d events, the serial fused leg %d", label, sharded.skipped, serial.skipped)
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
// bottleneck must run fused — also under a jitter meter, the one departure
// observer a document can attach, whose per-flow estimates must match a
// golden jitter leg's.
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
			goldenJitter := runFusionScenario(t, c, jitterOpt, true, 1)
			jitter := runFusionScenario(t, c, jitterOpt, false, 1)
			compareScenarios(t, c.name+" golden workers=1 jitter", ref, goldenJitter)
			label = c.name + " fused workers=1 jitter"
			compareScenarios(t, label, ref, jitter)
			compareCaptures(t, label, ref.res, jitter.res)
			compareJitter(t, label, c.flows, goldenJitter.res.Jitter, jitter.res.Jitter)
			if jitter.targetGolden {
				t.Errorf("%s: the departure-tapped bottleneck ran the golden schedule", label)
			}

			for _, workers := range []int{2, 4, 8} {
				golden := runFusionScenario(t, c, c.opt, true, workers)
				sharded := runFusionScenario(t, c, c.opt, false, workers)
				label := fmt.Sprintf("%s golden workers=%d", c.name, workers)
				compareScenarios(t, label, ref, golden)
				checkShardedSchedule(t, label, ref, golden, true)
				label = fmt.Sprintf("%s fused workers=%d", c.name, workers)
				compareScenarios(t, label, ref, sharded)
				checkShardedSchedule(t, label, fused, sharded, false)
				checkFused(t, fmt.Sprintf("%s workers=%d", c.name, workers), golden, sharded)
			}
			if t.Failed() {
				t.Fatalf("divergence in %s", c.name)
			}
		}
	}
}
