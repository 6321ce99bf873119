package pulsedos

import (
	"runtime"
	"testing"
	"time"

	"pulsedos/internal/attack"
	"pulsedos/internal/experiments"
	"pulsedos/internal/sim"
	"pulsedos/internal/topo"
)

// TestTCPFlowAllocRegression guards the per-packet allocation budget of a
// full TCP flow through the dumbbell. Before the kernel/packet overhaul the
// simulator allocated ~6 heap objects per forwarded packet (packet literal,
// two events, two timers, closures); with the event free list and packet
// pool the steady state is well under one.
func TestTCPFlowAllocRegression(t *testing.T) {
	cfg := DefaultDumbbellConfig(1)
	cfg.RTTMin = 100 * time.Millisecond
	cfg.RTTMax = 100 * time.Millisecond
	d, err := BuildDumbbell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.StartFlows(); err != nil {
		t.Fatal(err)
	}
	// Warm up: slow start, pool and free-list growth.
	if err := d.Kernel.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	arrivals0 := d.Bottle.Stats().Arrivals

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := d.Kernel.RunFor(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)

	packets := d.Bottle.Stats().Arrivals - arrivals0
	if packets == 0 {
		t.Fatal("no packets crossed the bottleneck")
	}
	allocs := float64(m1.Mallocs - m0.Mallocs)
	perPacket := allocs / float64(packets)
	t.Logf("%d packets, %.0f allocs, %.3f allocs/packet", packets, allocs, perPacket)
	// The budget is zero: the wheel kernel's event free list, the packet
	// pool, the FlowTable's flat per-flow state, and the receiver's ring
	// bitset leave nothing to allocate per packet. The epsilon only absorbs
	// incidental runtime allocations (GC bookkeeping) outside the model.
	if perPacket > 0.01 {
		t.Errorf("steady-state TCP flow allocates %.3f objects/packet, want 0", perPacket)
	}
}

// TestManyFlowAllocRegression guards the same zero budget at population
// scale: 200 flows through one bottleneck, unpulsed and pulsed, must stay
// allocation-free per packet once established — the property that lets
// many-flow runs go without GC pressure. The pulses (2x the bottleneck for
// 75 ms every 300 ms) start halfway through the 30 s warm-up, so every
// capacity high-water mark they provoke is reached before counting starts.
func TestManyFlowAllocRegression(t *testing.T) {
	for _, name := range []string{"unpulsed", "pulsed"} {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultDumbbellConfig(200)
			d, err := BuildDumbbell(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if name == "pulsed" {
				period := 300 * time.Millisecond
				train, err := attack.AIMDTrain(sim.FromDuration(75*time.Millisecond), 2*cfg.BottleneckRate,
					sim.FromDuration(period), experiments.PulsesFor(20*time.Second, period))
				if err != nil {
					t.Fatal(err)
				}
				gen, err := d.Attach(train)
				if err != nil {
					t.Fatal(err)
				}
				if err := gen.Start(sim.FromDuration(15 * time.Second)); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.StartFlows(); err != nil {
				t.Fatal(err)
			}
			if err := d.Kernel.RunFor(30 * time.Second); err != nil {
				t.Fatal(err)
			}
			arrivals0 := d.Bottle.Stats().Arrivals

			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if err := d.Kernel.RunFor(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)

			packets := d.Bottle.Stats().Arrivals - arrivals0
			if packets == 0 {
				t.Fatal("no packets crossed the bottleneck")
			}
			perPacket := float64(m1.Mallocs-m0.Mallocs) / float64(packets)
			t.Logf("%d packets, %.3f allocs/packet", packets, perPacket)
			if perPacket > 0.01 {
				t.Errorf("steady-state %s 200-flow dumbbell allocates %.3f objects/packet, want 0", name, perPacket)
			}
		})
	}
}

// TestMillionFlowAllocRegression guards the zero budget at the million-flow
// mixed-fidelity scale: a million flows total — a packet-accurate foreground of
// 500 beside a fluid-aggregated background of 999,500 — through one
// bottleneck. The fluid tier is O(1) in both memory and events (one
// aggregate ODE per group, ticked at RTT/2), so the steady state must stay
// allocation-free per forwarded packet exactly like the small populations:
// the macroflow tick reads link counters and credits a byte account, and
// neither path touches the heap.
func TestMillionFlowAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("million-flow steady-state run in -short mode")
	}
	const (
		packetFlows = 500
		totalFlows  = 1_000_000
	)
	cfg := topo.DefaultDumbbellConfig(packetFlows)
	// Match the scale figure's regime: 1 Mbps of carved residual per packet
	// flow (rate x 500/1e6 per flow) and a 10-packets-per-flow trunk buffer,
	// so queue high-water marks settle inside the warm-up instead of creeping
	// through the measurement window.
	cfg.BottleneckRate = 1e6 * totalFlows
	cfg.QueueLimit = 10 * packetFlows
	// The background shares the packet foreground's path and RTT band as one
	// fluid macroflow aggregate; the foreground keeps supplying the loss
	// signal.
	g := topo.Dumbbell(cfg)
	fluid := g.Groups[0]
	fluid.Flows, fluid.Model = totalFlows-packetFlows, topo.ModelFluid
	g.Groups = append(g.Groups, fluid)
	d, err := topo.Build(g, topo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.StartFlows(); err != nil {
		t.Fatal(err)
	}
	if err := d.Kernel.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	arrivals0 := d.Bottle.Stats().Arrivals

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := d.Kernel.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)

	packets := d.Bottle.Stats().Arrivals - arrivals0
	if packets == 0 {
		t.Fatal("no packets crossed the bottleneck")
	}
	perPacket := float64(m1.Mallocs-m0.Mallocs) / float64(packets)
	t.Logf("%d packets, %.3f allocs/packet", packets, perPacket)
	if perPacket > 0.01 {
		t.Errorf("steady-state million-flow dumbbell allocates %.3f objects/packet, want 0", perPacket)
	}
	if got := d.Goodput().Flow(packetFlows); got == 0 {
		t.Error("fluid background delivered nothing — the million-flow claim is vacuous")
	}
}

// TestShardedAllocRegression guards the zero budget across the parallel
// engine's 4-worker path: boundary crossings hand packets between shard-local
// pools (release at the source, pool get at the destination), outboxes and
// the merge scratch are reused across barriers, and the sort comparator is a
// top-level function — so the sharded steady state must allocate nothing per
// packet, same as serial.
func TestShardedAllocRegression(t *testing.T) {
	cfg := DefaultDumbbellConfig(100)
	sd, err := topo.Build(topo.Dumbbell(cfg), topo.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	if err := sd.StartFlows(); err != nil {
		t.Fatal(err)
	}
	warm := sim.FromDuration(15 * time.Second)
	if err := sd.RunUntil(warm); err != nil {
		t.Fatal(err)
	}
	arrivals0 := sd.BottleStats().Arrivals

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := sd.RunUntil(warm + sim.FromDuration(5*time.Second)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)

	packets := sd.BottleStats().Arrivals - arrivals0
	if packets == 0 {
		t.Fatal("no packets crossed the bottleneck")
	}
	perPacket := float64(m1.Mallocs-m0.Mallocs) / float64(packets)
	t.Logf("%d packets, %.3f allocs/packet", packets, perPacket)
	if perPacket > 0.01 {
		t.Errorf("steady-state 4-worker sharded dumbbell allocates %.3f objects/packet, want 0", perPacket)
	}
}
