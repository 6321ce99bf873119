package topo

import (
	"errors"

	"pulsedos/internal/attack"
	"pulsedos/internal/model"
	"pulsedos/internal/netem"
	"pulsedos/internal/rng"
	"pulsedos/internal/sim"
	"pulsedos/internal/tcp"
	"pulsedos/internal/trace"
)

// Environment is a running instance of a Graph — the one implementation
// behind every topology, serial or sharded. It satisfies the experiments
// package's Environment interface structurally.
type Environment struct {
	// Kernel is the forward core's kernel, owning every forward trunk link
	// and attack point (the only kernel when serial). Taps, generators, and
	// probes attached to the target run here.
	Kernel  *sim.Kernel
	Graph   Graph
	Plan    ShardPlan
	Senders []*tcp.Sender
	Recvs   []*tcp.Receiver
	Account *trace.FlowAccount
	RTTs    []float64   // propagation RTT per flow, seconds
	Bottle  *netem.Link // forward link of the target trunk
	Sink    *netem.Sink // attack traffic terminus
	Pools   []*netem.PacketPool

	eng      *sim.Engine   // nil when serial
	links    []*netem.Link // every link Build wired, for event normalization
	routers  [][]*netem.Router
	attackIn []*netem.Link
	gens     []*attack.Generator // every attached generator, for event normalization
	rand     *rng.Source
	tables   []*tcp.FlowTable // one per shard holding flow halves (for TimerTicks)
	macros   []*tcp.Macroflow // fluid-tier aggregates, in group order
	effRate  []float64        // per trunk: forward rate minus the fluid carve-out
}

// Sim exposes the target-shard event kernel.
func (e *Environment) Sim() *sim.Kernel { return e.Kernel }

// Goodput exposes the shared per-flow delivery account.
func (e *Environment) Goodput() *trace.FlowAccount { return e.Account }

// Target exposes the bottleneck link the attack pulses congest.
func (e *Environment) Target() *netem.Link { return e.Bottle }

// Flows exposes the victim TCP senders.
func (e *Environment) Flows() []*tcp.Sender { return e.Senders }

// Engine exposes the parallel engine, nil when the build is serial. Callers
// probing for it through an interface must nil-check the result.
func (e *Environment) Engine() *sim.Engine { return e.eng }

// Rand exposes the environment's rng stream (consumed by builds layering
// extra workload on top, e.g. the mice/web traffic of the test-bed runs).
func (e *Environment) Rand() *rng.Source { return e.rand }

// StartFlows schedules every victim flow to begin within the configured
// start spread, deterministically from the topology seed: one draw per flow
// in global flow-id order. Fluid macroflows start at the origin and consume
// no draws, so adding a fluid tier never shifts the packet flows' jitter.
func (e *Environment) StartFlows() error {
	spread := sim.FromDuration(e.Graph.StartSpread)
	for _, s := range e.Senders {
		at := sim.Time(0)
		if spread > 0 {
			at = sim.Time(e.rand.Int63n(int64(spread)))
		}
		if err := s.Start(at); err != nil {
			return err
		}
	}
	for _, m := range e.macros {
		if err := m.Start(0); err != nil {
			return err
		}
	}
	return nil
}

// StopFlows halts every victim sender and fluid macroflow (teardown for
// finite experiments).
func (e *Environment) StopFlows() {
	for _, s := range e.Senders {
		s.Stop()
	}
	for _, m := range e.macros {
		m.Stop()
	}
}

// Macroflows exposes the fluid-tier aggregates (empty when every group is
// packet-accurate), in flow-group declaration order.
func (e *Environment) Macroflows() []*tcp.Macroflow { return e.macros }

// Attach builds an attack generator feeding the first attack point's ingress
// link, on the forward core's kernel, where every attack point lives.
func (e *Environment) Attach(train attack.Train) (*attack.Generator, error) {
	if len(e.attackIn) == 0 {
		return nil, errors.New("topo: attack point 0 out of range (0 points)")
	}
	g, err := attack.NewGenerator(e.Kernel, e.attackIn[0], train, e.Graph.AttackPacketSize)
	if err != nil {
		return nil, err
	}
	e.gens = append(e.gens, g)
	return g, nil
}

// RunUntil advances the simulation to t through whichever executor the build
// produced — the serial kernel or the conservative parallel engine.
func (e *Environment) RunUntil(t sim.Time) error {
	if e.eng != nil {
		return e.eng.RunUntil(t)
	}
	return e.Kernel.RunUntil(t)
}

// Processed reports total model events fired across all shards, excluding
// the RTO wheel's per-table heartbeat ticks and adding back the events the
// fused link path elided. A sharded build splits one flow population across
// per-shard tables, each holding senders running its own heartbeat chain, so
// the raw kernel counts differ between serial and sharded builds by exactly
// the tick total;
// fused links fire one kernel event where the golden two-event reference
// fires two, paced attack sources fire one kernel event per emission batch
// where the reference fires one per packet, and each link and generator
// reports its elisions (netem.Link.SkippedEvents,
// attack.Generator.SkippedEvents) so the normalized count stays the
// reference-model event count — identical
// across serial/sharded/golden/fused builds of the same graph. KernelEvents
// reports the raw count the scheduler actually paid for.
func (e *Environment) Processed() uint64 {
	var ticks uint64
	for _, t := range e.tables {
		ticks += t.TimerTicks()
	}
	return e.KernelEvents() - ticks + e.SkippedEvents()
}

// KernelEvents reports the raw number of kernel events fired across all
// shards — the scheduler work actually performed, which is what the fusion
// benchmark meters (events/packet, events/sec).
func (e *Environment) KernelEvents() uint64 {
	if e.eng != nil {
		return e.eng.Processed()
	}
	return e.Kernel.Processed()
}

// SkippedEvents reports the number of reference-model events elided by fused
// links and by paced attack sources, summed over every link and attached
// generator in the build, each as of its own shard kernel's position (zero
// on a GoldenLinks build) — see netem.Link.SkippedEvents and
// attack.Generator.SkippedEvents.
func (e *Environment) SkippedEvents() uint64 {
	var n uint64
	for _, l := range e.links {
		n += l.SkippedEvents()
	}
	for _, g := range e.gens {
		n += g.SkippedEvents()
	}
	return n
}

// Links exposes every link Build wired, in wiring order, for inspection.
func (e *Environment) Links() []*netem.Link { return e.links }

// BottleStats snapshots the target trunk's forward-link counters.
func (e *Environment) BottleStats() netem.LinkStats { return e.Bottle.Stats() }

// Unrouted sums the unrouted-packet counters over every router replica.
func (e *Environment) Unrouted() uint64 {
	var n uint64
	for s := range e.routers {
		for r := range e.routers[s] {
			n += e.routers[s][r].Unrouted()
		}
	}
	return n
}

// Close releases the engine's worker goroutines; a no-op when serial.
func (e *Environment) Close() {
	if e.eng != nil {
		e.eng.Close()
	}
}

// TimeoutModel assembles the TO-state model configuration from the target
// trunk's buffer and the victims' RTO floor.
func (e *Environment) TimeoutModel() model.TimeoutModelConfig { return timeoutModel(&e.Graph) }

// EffectiveRate reports a trunk's forward rate after the fluid tier's
// carve-out — the capacity the packet-accurate traffic actually contends
// for. Identical to the declared rate when no fluid group crosses the trunk.
func (e *Environment) EffectiveRate(trunk int) float64 { return e.effRate[trunk] }

// ModelParams assembles the analytic-model parameters corresponding to this
// topology instance; the bottleneck is the target trunk's effective forward
// rate (the declared rate minus any fluid-tier carve-out), since the model
// describes the packet-accurate flows contending there.
func (e *Environment) ModelParams() model.Params { return modelParams(&e.Graph, e.effRate, e.RTTs) }

// AnalyticModel reports the graph's analytic-model parameters and TO-state
// model configuration — what ModelParams and TimeoutModel report on any
// build of it — without building the network. It runs the validation Build
// runs first.
func AnalyticModel(g Graph) (model.Params, model.TimeoutModelConfig, error) {
	info, err := analyze(&g)
	if err == nil {
		err = g.TCP.Validate()
	}
	if err != nil {
		return model.Params{}, model.TimeoutModelConfig{}, err
	}
	rtts := make([]float64, len(info.flows))
	for i := range info.flows {
		rtts[i] = info.flows[i].rttSec
	}
	return modelParams(&g, info.effRate, rtts), timeoutModel(&g), nil
}

func modelParams(g *Graph, effRate, rtts []float64) model.Params {
	return model.Params{
		AIMD:       model.AIMD{A: g.TCP.IncreaseA, B: g.TCP.DecreaseB},
		AckRatio:   float64(g.TCP.AckEvery),
		PacketSize: float64(g.TCP.MSS + g.TCP.HeaderSize),
		Bottleneck: effRate[g.Target],
		RTTs:       append([]float64(nil), rtts...),
	}
}

func timeoutModel(g *Graph) model.TimeoutModelConfig {
	return model.TimeoutModelConfig{
		MinRTO:           g.TCP.RTOMin.Seconds(),
		BufferPackets:    g.Trunks[g.Target].Queue.Limit,
		AttackPacketSize: g.AttackPacketSize,
	}
}
