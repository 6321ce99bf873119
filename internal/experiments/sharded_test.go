package experiments

import (
	"bytes"
	"fmt"
	"maps"
	"strings"
	"testing"
	"time"

	"pulsedos/internal/attack"
	"pulsedos/internal/netem"
	"pulsedos/internal/pins"
	"pulsedos/internal/rng"
	"pulsedos/internal/sim"
	"pulsedos/internal/tcp"
	"pulsedos/internal/topo"
)

// TestPlanDumbbellTable pins the planner's dumbbell shard assignment (the
// shards of each flow's sender and receiver halves, clamping, lookahead)
// across a table of flow and worker counts. Sharded bytes of tie-prone
// documents depend on the plan, so the pin moves only with a deliberate
// plan change.
func TestPlanDumbbellTable(t *testing.T) {
	var table strings.Builder
	for _, flows := range []int{1, 2, 5, 17, 100} {
		for _, workers := range []int{1, 2, 3, 4, 8, 16} {
			plan, err := topo.Plan(topo.Dumbbell(topo.DefaultDumbbellConfig(flows)), workers)
			if err != nil {
				t.Fatalf("flows %d workers %d: %v", flows, workers, err)
			}
			fmt.Fprintf(&table, "flows=%d workers=%d shards=%d lookahead=%d send-shards=%v recv-shards=%v\n",
				flows, workers, plan.Workers, plan.Lookahead, plan.SendShard, plan.RecvShard)
		}
	}
	pins.Load(t, topoPinFile).Check(t, "plan/dumbbell", table.String())
}

// topoPinFile holds one committed SHA-256 per equivalence case below, over
// the case's canonical rendering. The digests were recorded from the
// hand-wired builders the graph layer replaced (all links on the golden
// two-event schedule), so the pins carry the same byte-identity contract
// those builders enforced as a live oracle.
const topoPinFile = "testdata/topo.sha256"

// shardedScenario holds everything observable from one run.
type shardedScenario struct {
	res          *RunResult
	processed    uint64
	kernelEvents uint64 // raw scheduler events, 0 unless the runner records it
	skipped      uint64 // events the fused schedule and paced sources elided; set with kernelEvents
	targetGolden bool   // the measured link ran the golden schedule; set with kernelEvents
	rateCSV      []byte
	flowCSV      []byte
	unrouted     uint64
}

// collectScenario runs one built environment and snapshots every observable
// the equivalence contract compares, including the figure CSV bytes exactly
// as the figure pipeline would emit them.
func collectScenario(t *testing.T, env *topo.Environment, flows int, opt RunOptions) shardedScenario {
	t.Helper()
	res, err := Run(env, opt)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := shardedScenario{res: res, processed: env.Processed(), unrouted: env.Unrouted()}

	if res.Rate != nil {
		s := Series{Label: "bottleneck-rate"}
		for i, y := range res.Rate.Rates() {
			s.Points = append(s.Points, Point{X: float64(i), Y: y})
		}
		var buf bytes.Buffer
		if err := WriteSeriesCSV(&buf, []Series{s}); err != nil {
			t.Fatal(err)
		}
		out.rateCSV = buf.Bytes()
	}
	flowSeries := Series{Label: "goodput-per-flow"}
	for i := 0; i < flows; i++ {
		flowSeries.Points = append(flowSeries.Points, Point{X: float64(i), Y: float64(res.PerFlow[i])})
	}
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, []Series{flowSeries}); err != nil {
		t.Fatal(err)
	}
	out.flowCSV = buf.Bytes()
	return out
}

// render is the canonical text of one run: every observable
// compareScenarios checks, in a fixed order. Its digest is the pinned form.
func (s shardedScenario) render() string {
	r := s.res
	var b strings.Builder
	fmt.Fprintf(&b, "delivered %d\n", r.Delivered)
	fmt.Fprintf(&b, "timeouts %d fast-recoveries %d\n", r.Timeouts, r.FastRecoveries)
	fmt.Fprintf(&b, "retransmits %d segments-sent %d\n", r.Retransmits, r.SegmentsSent)
	fmt.Fprintf(&b, "attack %+v\n", r.AttackStats)
	fmt.Fprintf(&b, "drops %d\n", r.Drops.Total)
	fmt.Fprintf(&b, "processed %d\n", s.processed)
	fmt.Fprintf(&b, "per-flow %v\n", r.PerFlow)
	b.Write(s.rateCSV)
	b.Write(s.flowCSV)
	return b.String()
}

// runScenario executes one dumbbell scenario on the graph layer: serial
// construction at 1 worker, the parallel engine above that.
func runScenario(t *testing.T, cfg topo.DumbbellConfig, workers int, opt RunOptions) shardedScenario {
	t.Helper()
	return runEnv(t, topo.Dumbbell(cfg), cfg.Flows, workers, opt)
}

// runEnv builds one graph over the given worker count and runs it.
func runEnv(t *testing.T, g topo.Graph, flows, workers int, opt RunOptions) shardedScenario {
	t.Helper()
	env, err := topo.Build(g, topo.Options{Workers: workers})
	if err != nil {
		t.Fatalf("build graph (%d workers): %v", workers, err)
	}
	defer env.Close()
	return collectScenario(t, env, flows, opt)
}

// checkWorkers runs one case at 1 worker, pins it, requires every other
// worker count to reproduce the 1-worker run exactly, and returns that run.
func checkWorkers(t *testing.T, set pins.Set, name string, workers []int,
	run func(workers int) shardedScenario) shardedScenario {
	t.Helper()
	ref := run(1)
	if ref.unrouted != 0 {
		t.Errorf("%s: %d unrouted packets", name, ref.unrouted)
	}
	set.Check(t, name, ref.render())
	for _, w := range workers {
		compareScenarios(t, fmt.Sprintf("%s workers %d", name, w), ref, run(w))
	}
	return ref
}

func compareScenarios(t *testing.T, label string, want, got shardedScenario) {
	t.Helper()
	w, g := want.res, got.res
	if w.Delivered != g.Delivered {
		t.Errorf("%s: delivered %d bytes, reference %d", label, g.Delivered, w.Delivered)
	}
	if w.Timeouts != g.Timeouts || w.FastRecoveries != g.FastRecoveries {
		t.Errorf("%s: TO/FR %d/%d, reference %d/%d", label, g.Timeouts, g.FastRecoveries, w.Timeouts, w.FastRecoveries)
	}
	if w.Retransmits != g.Retransmits || w.SegmentsSent != g.SegmentsSent {
		t.Errorf("%s: retx/sent %d/%d, reference %d/%d", label, g.Retransmits, g.SegmentsSent, w.Retransmits, w.SegmentsSent)
	}
	if w.AttackStats != g.AttackStats {
		t.Errorf("%s: attack stats %+v, reference %+v", label, g.AttackStats, w.AttackStats)
	}
	if w.Drops.Total != g.Drops.Total || !maps.Equal(w.Drops.ByClass, g.Drops.ByClass) {
		t.Errorf("%s: drops %d %v, reference %d %v", label, g.Drops.Total, g.Drops.ByClass, w.Drops.Total, w.Drops.ByClass)
	}
	if want.processed != got.processed {
		t.Errorf("%s: processed %d events, reference %d", label, got.processed, want.processed)
	}
	if got.unrouted != 0 {
		t.Errorf("%s: %d unrouted packets", label, got.unrouted)
	}
	if !bytes.Equal(want.rateCSV, got.rateCSV) {
		t.Errorf("%s: rate-series CSV diverges from reference", label)
	}
	if !bytes.Equal(want.flowCSV, got.flowCSV) {
		t.Errorf("%s: per-flow goodput CSV diverges from reference", label)
	}
	for f, b := range w.PerFlow {
		if g.PerFlow[f] != b {
			t.Errorf("%s: flow %d delivered %d, reference %d", label, f, g.PerFlow[f], b)
			break
		}
	}
}

// randomShardedConfig derives a randomized-but-valid dumbbell + attack from
// the seed, the same spirit as wheel_test.go's randomized programs.
func randomShardedConfig(seed uint64) (topo.DumbbellConfig, RunOptions) {
	r := rng.New(seed)
	flows := 3 + int(r.Int63n(9))
	cfg := topo.DefaultDumbbellConfig(flows)
	cfg.Seed = seed
	cfg.BottleneckRate = float64(1+r.Int63n(4)) * 2e6
	cfg.QueueLimit = 30 + int(r.Int63n(60))
	cfg.BottleneckOWD = time.Duration(3+r.Int63n(4)) * time.Millisecond
	cfg.RTTMin = 2*cfg.BottleneckOWD + time.Duration(8+r.Int63n(20))*time.Millisecond
	cfg.RTTMax = cfg.RTTMin + time.Duration(50+r.Int63n(300))*time.Millisecond
	cfg.DropTail = r.Int63n(3) == 0
	cfg.AttackAccessRate = 100e6

	extent := time.Duration(40+r.Int63n(50)) * time.Millisecond
	period := time.Duration(400+r.Int63n(1100)) * time.Millisecond
	rate := float64(2+r.Int63n(2)) * cfg.BottleneckRate
	opt := RunOptions{
		Warmup:  2 * time.Second,
		Measure: 3 * time.Second,
		RateBin: 100 * time.Millisecond,
	}
	train, err := attack.AIMDTrain(sim.FromDuration(extent), rate, sim.FromDuration(period), PulsesFor(opt.Measure, period))
	if err == nil {
		opt.Train = &train
	}
	return cfg, opt
}

// TestShardedDumbbellEquivalence is the topology-level determinism contract:
// pulsed dumbbell scenarios must produce identical results — delivered
// bytes, per-flow accounts, TCP state statistics, drop counts, processed
// event totals, and byte-identical figure CSVs — on the graph layer at 1, 2,
// 4, and 8 workers, and the 1-worker run must match its pinned digest. The
// same serial run on the heap-only kernel must match it too: the wheel ≡
// heap ordering contract, end to end.
func TestShardedDumbbellEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second virtual scenarios")
	}
	set := pins.Load(t, topoPinFile)
	for seed := uint64(1); seed <= 6; seed++ {
		cfg, opt := randomShardedConfig(seed)
		name := fmt.Sprintf("dumbbell/seed=%d", seed)
		ref := checkWorkers(t, set, name, []int{2, 4, 8},
			func(workers int) shardedScenario { return runScenario(t, cfg, workers, opt) })
		heap := topo.Dumbbell(cfg)
		heap.HeapKernel = true
		compareScenarios(t, name+" heap kernel", ref, runEnv(t, heap, cfg.Flows, 1, opt))
		if t.Failed() {
			t.Fatalf("divergence at seed %d (cfg %+v)", seed, cfg)
		}
	}
}

// TestShardedDumbbellBaselineEquivalence covers the no-attack path (the
// baseline runs of every figure) at a single representative seed.
func TestShardedDumbbellBaselineEquivalence(t *testing.T) {
	cfg, opt := randomShardedConfig(42)
	opt.Train = nil
	checkWorkers(t, pins.Load(t, topoPinFile), "dumbbell-baseline/seed=42", []int{2, 4},
		func(workers int) shardedScenario { return runScenario(t, cfg, workers, opt) })
}

// TestTestbedEquivalence extends the contract to the Fig. 11 test-bed,
// including the quirk that the original Dummynet pipe constructor consumed
// one rng split even for DropTail queues (the DropTail case exercises
// QueueSpec.ReserveRand).
func TestTestbedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second virtual scenarios")
	}
	set := pins.Load(t, topoPinFile)
	for _, dropTail := range []bool{false, true} {
		cfg := topo.DefaultTestbedConfig(5)
		cfg.Seed = 7
		cfg.DropTail = dropTail
		cfg.StartSpread = 500 * time.Millisecond
		opt := RunOptions{
			Warmup:  2 * time.Second,
			Measure: 3 * time.Second,
			RateBin: 100 * time.Millisecond,
		}
		train, err := attack.AIMDTrain(sim.FromDuration(60*time.Millisecond), 2*cfg.BottleneckRate,
			sim.FromDuration(600*time.Millisecond), PulsesFor(opt.Measure, 600*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		opt.Train = &train

		checkWorkers(t, set, fmt.Sprintf("testbed/droptail=%v", dropTail), []int{2, 4},
			func(workers int) shardedScenario { return runEnv(t, topo.Testbed(cfg), cfg.Flows, workers, opt) })
		if t.Failed() {
			t.Fatalf("divergence at dropTail=%v", dropTail)
		}
	}
}

// attackShapedGraph is the benchmark's attack-10k document at n flows: one
// RED trunk S → R of 1 Mbps per flow with 5 ms delay and a 10-packet-per-flow
// queue, flows with 50 Mbps access and 20–460 ms RTTs, and an attacker at S
// with 4x the trunk's rate as access.
func attackShapedGraph(n int) topo.Graph {
	trunk := float64(n) * 1e6
	return topo.Graph{
		Routers: []string{"S", "R"},
		Trunks: []topo.TrunkSpec{{
			Name: "trunk", From: 0, To: 1, Rate: trunk, Delay: 5 * time.Millisecond,
			Queue:    topo.QueueSpec{Kind: topo.QueueRED, Limit: 10 * n},
			RevQueue: topo.QueueSpec{Kind: topo.QueueDropTail, Limit: 4096},
		}},
		Groups: []topo.FlowGroup{{Flows: n, Ingress: 0, Egress: 1, AccessRate: 50e6,
			RTTMin: 20 * time.Millisecond, RTTMax: 460 * time.Millisecond}},
		Attacks:          []topo.AttackPoint{{Router: 0, Rate: 4 * trunk, Delay: 2 * time.Millisecond}},
		SinkRouter:       1,
		TCP:              tcp.DefaultConfig(),
		Seed:             1,
		StartSpread:      500 * time.Millisecond,
		AttackPacketSize: 1000,
	}
}

// attackShapedOptions is the benchmark's attack-10k run shape, shortened:
// 1 s of warm-up, then 2 s of aimd pulses at twice the trunk rate for 75 ms
// at γ 0.5.
func attackShapedOptions(t *testing.T, g topo.Graph) RunOptions {
	t.Helper()
	trunk := g.Trunks[0].Rate
	opt := RunOptions{Warmup: time.Second, Measure: 2 * time.Second}
	period := PeriodForGamma(0.5, 2*trunk, 75*time.Millisecond, trunk)
	train, err := attack.AIMDTrain(sim.FromDuration(75*time.Millisecond), 2*trunk,
		sim.FromDuration(period), PulsesFor(opt.Measure, period))
	if err != nil {
		t.Fatal(err)
	}
	opt.Train = &train
	return opt
}

// generatorCapture runs an environment through Run unchanged while keeping
// the attack generator Run attaches.
type generatorCapture struct {
	*topo.Environment
	gen *attack.Generator
}

func (e *generatorCapture) Attach(train attack.Train) (*attack.Generator, error) {
	g, err := e.Environment.Attach(train)
	e.gen = g
	return g, err
}

// sinkShardTap checks that every arrival on the attack sink's link runs on
// one shard's kernel: a link hands its taps its own kernel's clock, which
// another shard's clock matches only by chance (and under -race a read of it
// from another shard's goroutine is reported).
type sinkShardTap struct {
	k         *sim.Kernel
	arrivals  uint64
	elsewhere uint64
}

func (s *sinkShardTap) OnArrive(_ *netem.Packet, now sim.Time) {
	s.arrivals++
	if now != s.k.Now() {
		s.elsewhere++
	}
}

func (s *sinkShardTap) OnDrop(*netem.Packet, sim.Time) {}

// TestShardedAttackerPacesAcrossPortal covers the attacker of the
// benchmark's attack-10k-2w plan: at 2 workers the attacker shares the
// forward core with the trunk, so it paces (DESIGN.md §14.4) on a local
// ingress link, and its packets cross the trunk's boundary to the sink on
// the reverse core. An attack-10k-shaped run at 200 flows must run no link
// golden, elide generator events, deliver every sink arrival on shard 1,
// and match the serial run's delivered bytes, per-flow accounts, normalized
// event count and attack packets at the sink.
func TestShardedAttackerPacesAcrossPortal(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second virtual scenario")
	}
	g := attackShapedGraph(200)
	opt := attackShapedOptions(t, g)

	type outcome struct {
		res       *RunResult
		processed uint64
		sink      uint64
	}
	run := func(workers int) outcome {
		env, err := topo.Build(g, topo.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		var tap *sinkShardTap
		if workers > 1 {
			tap = &sinkShardTap{k: env.Engine().Shard(1).Kernel()}
			for _, l := range env.Links() {
				switch l.Name() {
				case "attacker":
					if l.Pool() != env.Pools[0] {
						t.Errorf("workers %d: the attacker is not on the forward core", workers)
					}
				case "attack-sink":
					l.AddTap(tap)
				}
			}
		}
		ec := &generatorCapture{Environment: env}
		res, err := Run(ec, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range env.Links() {
			if l.GoldenPath() {
				t.Errorf("workers %d: link %s runs golden", workers, l.Name())
			}
		}
		if n := ec.gen.SkippedEvents(); n == 0 {
			t.Errorf("workers %d: the attack generator elided no events", workers)
		}
		if tap != nil && (tap.arrivals != env.Sink.Packets || tap.elsewhere != 0) {
			t.Errorf("workers %d: %d of %d sink arrivals ran off shard 1 (sink counted %d)",
				workers, tap.elsewhere, tap.arrivals, env.Sink.Packets)
		}
		return outcome{res: res, processed: env.Processed(), sink: env.Sink.Packets}
	}
	want, got := run(1), run(2)
	if got.res.Delivered != want.res.Delivered {
		t.Errorf("delivered %d bytes, serial %d", got.res.Delivered, want.res.Delivered)
	}
	if !maps.Equal(got.res.PerFlow, want.res.PerFlow) {
		t.Error("per-flow accounts differ from the serial run")
	}
	if got.processed != want.processed {
		t.Errorf("processed %d events, serial %d", got.processed, want.processed)
	}
	if got.sink != want.sink || want.sink == 0 {
		t.Errorf("sink received %d attack packets, serial %d", got.sink, want.sink)
	}
}

// TestShardedCriticalPath bounds the 2-worker plan's critical path on an
// attack-10k-shaped run at 200 flows: the events of each window's busiest
// shard, summed over the windows, are at most 0.62 of all events. Cut at
// the trunks, every packet fires events on both shards within one trunk
// delay, so each window's work splits between them; a plan that keeps
// whole flows together leaves about 0.72 on one shard.
func TestShardedCriticalPath(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second virtual scenario")
	}
	g := attackShapedGraph(200)
	opt := attackShapedOptions(t, g)
	env, err := topo.Build(g, topo.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if _, err := Run(env, opt); err != nil {
		t.Fatal(err)
	}
	eng := env.Engine()
	crit, all := eng.CriticalPath(), eng.Processed()
	if crit == 0 || float64(crit) > 0.62*float64(all) {
		t.Errorf("critical path %d of %d events (%.3f), want at most 0.62", crit, all, float64(crit)/float64(all))
	}
	t.Logf("critical path %d of %d events (%.3f) over %d windows", crit, all, float64(crit)/float64(all), eng.Windows())
}
