package topo_test

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"pulsedos/internal/attack"
	"pulsedos/internal/netem"
	"pulsedos/internal/scenario"
	"pulsedos/internal/sim"
	"pulsedos/internal/topo"
)

// snapshot is everything one run observes for the serial-vs-sharded
// equivalence checks on the new multi-bottleneck generators.
type snapshot struct {
	delivered uint64
	perFlow   map[int]uint64
	processed uint64
	bottle    netem.LinkStats
	sink      uint64
	timeouts  uint64
	retx      uint64
	sent      uint64
}

// runGraph builds the graph at the given worker count, drives a pulsed
// scenario (1 s warmup, 2 s measurement) and snapshots the observables.
func runGraph(t *testing.T, g topo.Graph, workers int) snapshot {
	t.Helper()
	env, err := topo.Build(g, topo.Options{Workers: workers})
	if err != nil {
		t.Fatalf("build (%d workers): %v", workers, err)
	}
	defer env.Close()

	warmup := sim.FromDuration(time.Second)
	end := warmup + sim.FromDuration(2*time.Second)
	env.Goodput().SetStart(warmup)

	period := 500 * time.Millisecond
	train, err := attack.AIMDTrain(sim.FromDuration(50*time.Millisecond),
		2*g.Trunks[g.Target].Rate, sim.FromDuration(period), 6)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := env.Attach(train)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Start(warmup); err != nil {
		t.Fatal(err)
	}
	if err := env.StartFlows(); err != nil {
		t.Fatal(err)
	}
	if err := env.RunUntil(end); err != nil {
		t.Fatalf("run (%d workers): %v", workers, err)
	}
	env.StopFlows()
	gen.Stop()

	if n := env.Unrouted(); n != 0 {
		t.Errorf("%d workers: %d unrouted packets", workers, n)
	}
	snap := snapshot{
		delivered: env.Goodput().Total(),
		perFlow:   env.Goodput().PerFlow(),
		processed: env.Processed(),
		bottle:    env.BottleStats(),
		sink:      env.Sink.Packets,
	}
	for _, s := range env.Senders {
		st := s.Stats()
		snap.timeouts += st.Timeouts
		snap.retx += st.Retransmits
		snap.sent += st.SegmentsSent
	}
	return snap
}

func compareSnapshots(t *testing.T, label string, want, got snapshot) {
	t.Helper()
	if want.delivered != got.delivered {
		t.Errorf("%s: delivered %d, serial %d", label, got.delivered, want.delivered)
	}
	if want.processed != got.processed {
		t.Errorf("%s: processed %d events, serial %d", label, got.processed, want.processed)
	}
	if want.bottle != got.bottle {
		t.Errorf("%s: bottleneck stats %+v, serial %+v", label, got.bottle, want.bottle)
	}
	if want.sink != got.sink {
		t.Errorf("%s: %d attack packets sunk, serial %d", label, got.sink, want.sink)
	}
	if want.timeouts != got.timeouts || want.retx != got.retx || want.sent != got.sent {
		t.Errorf("%s: TO/retx/sent %d/%d/%d, serial %d/%d/%d", label,
			got.timeouts, got.retx, got.sent, want.timeouts, want.retx, want.sent)
	}
	for f, b := range want.perFlow {
		if got.perFlow[f] != b {
			t.Errorf("%s: flow %d delivered %d, serial %d", label, f, got.perFlow[f], b)
			break
		}
	}
}

// TestParkingLotEquivalence: the multi-bottleneck chain — the first topology
// the original hand-wired builders could not express — must itself hold the serial ≡
// sharded contract at every worker count.
func TestParkingLotEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second virtual scenarios")
	}
	cfg := topo.DefaultParkingLotConfig()
	cfg.Seed = 11
	g := topo.ParkingLot(cfg)
	serial := runGraph(t, g, 1)
	if serial.delivered == 0 {
		t.Fatal("parking lot delivered nothing")
	}
	if serial.sink == 0 {
		t.Fatal("no attack packets crossed the chain to the sink")
	}
	for _, workers := range []int{2, 4, 8} {
		got := runGraph(t, g, workers)
		compareSnapshots(t, "parkinglot", serial, got)
	}
}

// TestCrossTrafficEquivalence: same contract for the dumbbell with an
// uncongested egress trunk and cross flows leaving at the middle router, the
// graph of the shipped scenarios/cross-traffic.json.
func TestCrossTrafficEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second virtual scenarios")
	}
	f, err := os.Open("../../scenarios/cross-traffic.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg, err := scenario.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Graph()
	if err != nil {
		t.Fatal(err)
	}
	g.Seed = 13
	serial := runGraph(t, g, 1)
	if serial.delivered == 0 {
		t.Fatal("cross-traffic graph delivered nothing")
	}
	for _, workers := range []int{2, 4, 8} {
		got := runGraph(t, g, workers)
		compareSnapshots(t, "cross-traffic", serial, got)
	}
}

// TestBuildValidation: every malformed graph is rejected with a diagnostic,
// not a panic or a silently wrong topology.
func TestBuildValidation(t *testing.T) {
	base := func() topo.Graph { return twoRouterGraph(2) }
	cases := []struct {
		name string
		got  func() topo.Graph
		opts topo.Options
		want string
	}{
		{"one router", func() topo.Graph {
			g := base()
			g.Routers = g.Routers[:1]
			return g
		}, topo.Options{}, "routers"},
		{"no trunks", func() topo.Graph {
			g := base()
			g.Trunks = nil
			return g
		}, topo.Options{}, "trunk"},
		{"sink not a leaf", func() topo.Graph {
			g := base()
			g.SinkRouter = 0
			return g
		}, topo.Options{}, "leaf"},
		{"no forward path", func() topo.Graph {
			g := base()
			g.Groups[0].Ingress, g.Groups[0].Egress = 1, 0
			return g
		}, topo.Options{}, "path"},
		{"zero flows", func() topo.Graph {
			g := base()
			g.Groups[0].Flows = 0
			return g
		}, topo.Options{}, "flow"},
		{"queue limit", func() topo.Graph {
			g := base()
			g.Trunks[0].Queue.Limit = 0
			return g
		}, topo.Options{}, "queue"},
		{"rtt below propagation", func() topo.Graph {
			g := base()
			g.Groups[0].AccessOWD = 0
			g.Groups[0].RTTMin = 2 * time.Millisecond // < 2 * 5 ms trunk delay
			g.Groups[0].RTTMax = 4 * time.Millisecond
			return g
		}, topo.Options{}, "RTT"},
		{"attacker at sink", func() topo.Graph {
			g := base()
			g.Attacks[0].Router = g.SinkRouter
			return g
		}, topo.Options{}, "sink"},
		{"heap kernel sharded", func() topo.Graph {
			g := base()
			g.HeapKernel = true
			return g
		}, topo.Options{Workers: 2}, "heap"},
		{"tcp config", func() topo.Graph {
			g := base()
			g.TCP.MSS = 0
			return g
		}, topo.Options{}, "MSS"},
	}
	for _, tc := range cases {
		_, err := topo.Build(tc.got(), tc.opts)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tc.want)) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		// AnalyticModel builds nothing, so only the graph errors reach it.
		if tc.opts.Workers != 0 {
			continue
		}
		if _, _, aerr := topo.AnalyticModel(tc.got()); aerr == nil || aerr.Error() != err.Error() {
			t.Errorf("%s: AnalyticModel error %v, Build error %v", tc.name, aerr, err)
		}
	}
}

// TestAnalyticModelMatchesBuild: the analytic parameters read off a graph
// equal what a build of it reports, on every generator and with a fluid
// carve-out of the target trunk.
func TestAnalyticModelMatchesBuild(t *testing.T) {
	fluid := twoRouterGraph(3)
	fluidGroup := fluid.Groups[0]
	fluidGroup.Flows, fluidGroup.Model = 5, topo.ModelFluid
	fluid.Groups = append(fluid.Groups, fluidGroup)
	graphs := map[string]topo.Graph{
		"dumbbell":   topo.Dumbbell(topo.DefaultDumbbellConfig(5)),
		"testbed":    topo.Testbed(topo.DefaultTestbedConfig(4)),
		"parkinglot": topo.ParkingLot(topo.DefaultParkingLotConfig()),
		"fluid":      fluid,
	}
	for name, g := range graphs {
		params, toCfg, err := topo.AnalyticModel(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		env, err := topo.Build(g, topo.Options{})
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		if want := env.ModelParams(); !reflect.DeepEqual(params, want) {
			t.Errorf("%s: params %+v, build reports %+v", name, params, want)
		}
		if want := env.TimeoutModel(); toCfg != want {
			t.Errorf("%s: timeout model %+v, build reports %+v", name, toCfg, want)
		}
	}
	if params, _, _ := topo.AnalyticModel(fluid); params.Bottleneck >= fluid.Trunks[0].Rate {
		t.Errorf("fluid: bottleneck %g not carved below the trunk's %g", params.Bottleneck, fluid.Trunks[0].Rate)
	}
}
