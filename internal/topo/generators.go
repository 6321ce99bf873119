package topo

import (
	"strconv"
	"time"

	"pulsedos/internal/netem"
	"pulsedos/internal/tcp"
)

// This file is the generator catalog: each generator is a pure function from
// a config struct to a Graph. The first two reproduce the paper's
// evaluation environments (Fig. 5 ns-2 dumbbell, Fig. 11 Dummynet test-bed)
// under the equivalence contract; the last two are topologies the paper
// could not run — a parking-lot multi-bottleneck chain and a dumbbell with
// cross-traffic.

// DumbbellConfig parameterizes the Fig. 5 topology: M TCP sender/receiver
// pairs over 50 Mbps access links joined by a 15 Mbps RED bottleneck between
// routers S and R, RTTs spread across 20–460 ms, with the attacker injecting
// pulses at router S.
type DumbbellConfig struct {
	Flows          int
	BottleneckRate float64       // bps; paper: 15 Mbps
	AccessRate     float64       // bps; paper: 50 Mbps
	BottleneckOWD  time.Duration // bottleneck one-way propagation delay
	RTTMin         time.Duration // paper: 20 ms
	RTTMax         time.Duration // paper: 460 ms
	QueueLimit     int           // bottleneck queue capacity, packets
	DropTail       bool          // true = tail-drop bottleneck (RED ablation)
	AdaptiveRED    bool          // true = Adaptive-RED max_p self-tuning
	RED            *netem.REDConfig

	TCP tcp.Config

	Seed             uint64
	StartSpread      time.Duration // flow start times jittered over [0, spread)
	AttackAccessRate float64       // attacker's ingress link rate, bps
	AttackPacketSize int           // attack packet wire size, bytes

	// FluidBackgroundFlows adds a second flow group of this size modeled as
	// a fluid macroflow aggregate (Model: ModelFluid) sharing the bottleneck:
	// background load at million-flow scale without per-packet cost. The
	// packet-accurate foreground (Flows) keeps supplying the loss signal.
	FluidBackgroundFlows int
}

// DefaultDumbbellConfig returns the paper's ns-2 settings for the given
// number of victim flows.
func DefaultDumbbellConfig(flows int) DumbbellConfig {
	return DumbbellConfig{
		Flows:          flows,
		BottleneckRate: 15 * netem.Mbps,
		AccessRate:     50 * netem.Mbps,
		BottleneckOWD:  5 * time.Millisecond,
		RTTMin:         20 * time.Millisecond,
		RTTMax:         460 * time.Millisecond,
		// 150 packets keeps the no-attack aggregate near full utilization
		// (Lemma 1's premise) while remaining small enough that a 50 ms
		// pulse at the paper's attack rates overflows the buffer — the
		// mechanism behind both the FR-state cuts and the shrew resonances.
		QueueLimit:       150,
		TCP:              tcp.DefaultConfig(),
		Seed:             1,
		StartSpread:      time.Second,
		AttackAccessRate: 1 * netem.Gbps,
		AttackPacketSize: 1000,
	}
}

// Dumbbell generates the Fig. 5 graph: one RED trunk between routers S and
// R, one RTT-spread flow group across it, the attacker at S.
func Dumbbell(cfg DumbbellConfig) Graph {
	kind := QueueRED
	switch {
	case cfg.DropTail:
		kind = QueueDropTail
	case cfg.AdaptiveRED:
		kind = QueueARED
	}
	groups := []FlowGroup{{
		Flows:      cfg.Flows,
		Ingress:    0,
		Egress:     1,
		AccessRate: cfg.AccessRate,
		RTTMin:     cfg.RTTMin,
		RTTMax:     cfg.RTTMax,
	}}
	if cfg.FluidBackgroundFlows > 0 {
		groups = append(groups, FlowGroup{
			Flows:      cfg.FluidBackgroundFlows,
			Ingress:    0,
			Egress:     1,
			AccessRate: cfg.AccessRate,
			RTTMin:     cfg.RTTMin,
			RTTMax:     cfg.RTTMax,
			Model:      ModelFluid,
		})
	}
	return Graph{
		Name:    "dumbbell",
		Routers: []string{"S", "R"},
		Trunks: []TrunkSpec{{
			Name:  "bottleneck",
			From:  0,
			To:    1,
			Rate:  cfg.BottleneckRate,
			Delay: cfg.BottleneckOWD,
			Queue: QueueSpec{Kind: kind, Limit: cfg.QueueLimit, RED: cfg.RED},
			// The reverse direction carries ACKs; generously buffered tail drop.
			RevQueue: QueueSpec{Kind: QueueDropTail, Limit: 4096},
		}},
		Groups:           groups,
		Attacks:          []AttackPoint{{Router: 0, Rate: cfg.AttackAccessRate, Delay: 2 * time.Millisecond}},
		SinkRouter:       1,
		Target:           0,
		TCP:              cfg.TCP,
		Seed:             cfg.Seed,
		StartSpread:      cfg.StartSpread,
		AttackPacketSize: cfg.AttackPacketSize,
	}
}

// TestbedConfig parameterizes the Fig. 11 test-bed: legitimate users and the
// attacker reach a Dummynet box over 100 Mbps links; Dummynet shapes traffic
// to a 10 Mbps, 150 ms pipe with RED (min_th = 0.2B, max_th = 0.8B,
// w_q = 0.002, max_p = 0.1, gentle) and B = RTT·R_bottle; the victims run a
// Linux 2.6.5-flavoured TCP with RTO_min = 200 ms.
type TestbedConfig struct {
	Flows          int
	BottleneckRate float64       // bps; paper: 10 Mbps
	PipeDelay      time.Duration // one-way Dummynet delay; paper: 150 ms
	AccessRate     float64       // bps; paper: 100 Mbps
	AccessOWD      time.Duration // host access-link delay; must be positive
	QueueLen       int           // pipe queue, packets; 0 = B = RTT·R_bottle
	DropTail       bool          // tail-drop pipe (ablation; paper uses RED)

	TCP tcp.Config

	Seed             uint64
	StartSpread      time.Duration
	AttackPacketSize int
}

// DefaultTestbedConfig returns the paper's test-bed settings.
func DefaultTestbedConfig(flows int) TestbedConfig {
	return TestbedConfig{
		Flows:            flows,
		BottleneckRate:   10 * netem.Mbps,
		PipeDelay:        150 * time.Millisecond,
		AccessRate:       100 * netem.Mbps,
		AccessOWD:        time.Millisecond,
		TCP:              tcp.LinuxConfig(),
		Seed:             1,
		StartSpread:      time.Second,
		AttackPacketSize: 1000,
	}
}

// TestbedQueueLen resolves the pipe queue capacity a config implies: the
// configured value, or the paper's rule of thumb B = RTT·R_bottle.
func TestbedQueueLen(cfg TestbedConfig) int {
	if cfg.QueueLen != 0 {
		return cfg.QueueLen
	}
	rtt := 2 * (cfg.PipeDelay + 2*cfg.AccessOWD)
	return ruleOfThumbQueueLen(rtt, cfg.BottleneckRate, cfg.TCP.MSS+cfg.TCP.HeaderSize)
}

// ruleOfThumbQueueLen sizes the §4.2 test-bed's Dummynet buffer by the
// paper's rule of thumb: it holds a bandwidth-delay product, B = RTT ×
// R_bottle, in packets of the given size, and at least one.
func ruleOfThumbQueueLen(rtt time.Duration, bandwidth float64, packetSize int) int {
	if packetSize <= 0 || bandwidth <= 0 {
		return 1
	}
	b := int(rtt.Seconds() * bandwidth / 8 / float64(packetSize))
	if b < 1 {
		b = 1
	}
	return b
}

// Testbed generates the Fig. 11 graph: one asymmetric trunk standing in for
// the duplex Dummynet pipes (10 Mbps RED forward, uncongested reverse), a
// fixed-delay flow group, and the attacker on the user side. ReserveRand
// mirrors the Dummynet pipe API's unconditional rng seeding, so the
// tail-drop ablation stays draw-for-draw identical to the legacy builder.
func Testbed(cfg TestbedConfig) Graph {
	queueLen := TestbedQueueLen(cfg)
	kind := QueueRED
	if cfg.DropTail {
		kind = QueueDropTail
	}
	return Graph{
		Name:    "testbed",
		Routers: []string{"users", "victim"},
		Trunks: []TrunkSpec{{
			Name:     "dummynet",
			From:     0,
			To:       1,
			Rate:     cfg.BottleneckRate,
			RevRate:  cfg.AccessRate,
			Delay:    cfg.PipeDelay,
			Queue:    QueueSpec{Kind: kind, Limit: queueLen, ReserveRand: true},
			RevQueue: QueueSpec{Kind: QueueDropTail, Limit: 4096},
		}},
		Groups: []FlowGroup{{
			Flows:      cfg.Flows,
			Ingress:    0,
			Egress:     1,
			AccessRate: cfg.AccessRate,
			AccessOWD:  cfg.AccessOWD,
		}},
		Attacks:          []AttackPoint{{Router: 0, Rate: cfg.AccessRate, Delay: cfg.AccessOWD}},
		SinkRouter:       1,
		Target:           0,
		TCP:              cfg.TCP,
		Seed:             cfg.Seed,
		StartSpread:      cfg.StartSpread,
		AttackPacketSize: cfg.AttackPacketSize,
	}
}

// ParkingLotConfig parameterizes the multi-bottleneck chain: Hops identical
// bottleneck trunks in series R0 → R1 → … → R_Hops, a group of long flows
// end to end, a group of cross flows per hop, and the attacker pulsing at R0
// so its bursts traverse (and can congest) every hop.
type ParkingLotConfig struct {
	Hops           int // bottleneck trunks in the chain; >= 1
	LongFlows      int // end-to-end flows crossing every hop
	CrossFlows     int // per-hop single-bottleneck flows (0 = none)
	BottleneckRate float64
	AccessRate     float64
	HopDelay       time.Duration
	QueueLimit     int
	DropTail       bool

	TCP tcp.Config

	Seed             uint64
	StartSpread      time.Duration
	AttackRate       float64
	AttackPacketSize int
}

// DefaultParkingLotConfig returns a 3-hop chain with the dumbbell's per-hop
// parameters.
func DefaultParkingLotConfig() ParkingLotConfig {
	return ParkingLotConfig{
		Hops:             3,
		LongFlows:        6,
		CrossFlows:       3,
		BottleneckRate:   15 * netem.Mbps,
		AccessRate:       50 * netem.Mbps,
		HopDelay:         5 * time.Millisecond,
		QueueLimit:       150,
		TCP:              tcp.DefaultConfig(),
		Seed:             1,
		StartSpread:      time.Second,
		AttackRate:       1 * netem.Gbps,
		AttackPacketSize: 1000,
	}
}

// ParkingLot generates the chain graph. The long flows' RTT spread starts
// just above twice the chain propagation so every access delay stays
// positive (a sharding precondition); cross flows reuse the dumbbell's
// 20–460 ms band.
func ParkingLot(cfg ParkingLotConfig) Graph {
	if cfg.Hops < 1 {
		cfg.Hops = 1
	}
	kind := QueueRED
	if cfg.DropTail {
		kind = QueueDropTail
	}
	routers := make([]string, cfg.Hops+1)
	trunks := make([]TrunkSpec, cfg.Hops)
	for h := 0; h <= cfg.Hops; h++ {
		routers[h] = "R" + strconv.Itoa(h)
	}
	for h := 0; h < cfg.Hops; h++ {
		trunks[h] = TrunkSpec{
			Name:     "hop" + strconv.Itoa(h),
			From:     h,
			To:       h + 1,
			Rate:     cfg.BottleneckRate,
			Delay:    cfg.HopDelay,
			Queue:    QueueSpec{Kind: kind, Limit: cfg.QueueLimit},
			RevQueue: QueueSpec{Kind: QueueDropTail, Limit: 4096},
		}
	}
	chainProp := time.Duration(cfg.Hops) * cfg.HopDelay
	groups := []FlowGroup{{
		Flows:      cfg.LongFlows,
		Ingress:    0,
		Egress:     cfg.Hops,
		AccessRate: cfg.AccessRate,
		RTTMin:     2*chainProp + 20*time.Millisecond,
		RTTMax:     2*chainProp + 460*time.Millisecond,
	}}
	if cfg.CrossFlows > 0 {
		for h := 0; h < cfg.Hops; h++ {
			groups = append(groups, FlowGroup{
				Flows:      cfg.CrossFlows,
				Ingress:    h,
				Egress:     h + 1,
				AccessRate: cfg.AccessRate,
				RTTMin:     20 * time.Millisecond,
				RTTMax:     460 * time.Millisecond,
			})
		}
	}
	return Graph{
		Name:             "parkinglot",
		Routers:          routers,
		Trunks:           trunks,
		Groups:           groups,
		Attacks:          []AttackPoint{{Router: 0, Rate: cfg.AttackRate, Delay: 2 * time.Millisecond}},
		SinkRouter:       cfg.Hops,
		Target:           0,
		TCP:              cfg.TCP,
		Seed:             cfg.Seed,
		StartSpread:      cfg.StartSpread,
		AttackPacketSize: cfg.AttackPacketSize,
	}
}

// CrossTrafficConfig parameterizes a dumbbell whose bottleneck also carries
// traffic that exits before the far end: main flows S → M → R share the
// S → M bottleneck with cross flows S → M, decoupling the population the
// attack punishes from the population that measures it.
type CrossTrafficConfig struct {
	Flows          int // main flows, S -> R across both trunks
	CrossFlows     int // cross flows, S -> M across the bottleneck only
	BottleneckRate float64
	EgressRate     float64 // second trunk M -> R, uncongested
	AccessRate     float64
	HopDelay       time.Duration
	QueueLimit     int
	DropTail       bool

	TCP tcp.Config

	Seed             uint64
	StartSpread      time.Duration
	AttackRate       float64
	AttackPacketSize int
}

// DefaultCrossTrafficConfig returns the dumbbell's parameters with a third
// of the population re-homed as cross traffic.
func DefaultCrossTrafficConfig() CrossTrafficConfig {
	return CrossTrafficConfig{
		Flows:            10,
		CrossFlows:       5,
		BottleneckRate:   15 * netem.Mbps,
		EgressRate:       100 * netem.Mbps,
		AccessRate:       50 * netem.Mbps,
		HopDelay:         5 * time.Millisecond,
		QueueLimit:       150,
		TCP:              tcp.DefaultConfig(),
		Seed:             1,
		StartSpread:      time.Second,
		AttackRate:       1 * netem.Gbps,
		AttackPacketSize: 1000,
	}
}

// CrossTraffic generates the three-router graph: trunk 0 (the target) is the
// congestible bottleneck, trunk 1 an uncongested egress.
func CrossTraffic(cfg CrossTrafficConfig) Graph {
	kind := QueueRED
	if cfg.DropTail {
		kind = QueueDropTail
	}
	return Graph{
		Name:    "cross-traffic",
		Routers: []string{"S", "M", "R"},
		Trunks: []TrunkSpec{
			{
				Name:     "bottleneck",
				From:     0,
				To:       1,
				Rate:     cfg.BottleneckRate,
				Delay:    cfg.HopDelay,
				Queue:    QueueSpec{Kind: kind, Limit: cfg.QueueLimit},
				RevQueue: QueueSpec{Kind: QueueDropTail, Limit: 4096},
			},
			{
				Name:     "egress",
				From:     1,
				To:       2,
				Rate:     cfg.EgressRate,
				Delay:    cfg.HopDelay,
				Queue:    QueueSpec{Kind: QueueDropTail, Limit: 1000},
				RevQueue: QueueSpec{Kind: QueueDropTail, Limit: 4096},
			},
		},
		Groups: []FlowGroup{
			{
				Flows:      cfg.Flows,
				Ingress:    0,
				Egress:     2,
				AccessRate: cfg.AccessRate,
				RTTMin:     30 * time.Millisecond,
				RTTMax:     460 * time.Millisecond,
			},
			{
				Flows:      cfg.CrossFlows,
				Ingress:    0,
				Egress:     1,
				AccessRate: cfg.AccessRate,
				RTTMin:     20 * time.Millisecond,
				RTTMax:     460 * time.Millisecond,
			},
		},
		Attacks:          []AttackPoint{{Router: 0, Rate: cfg.AttackRate, Delay: 2 * time.Millisecond}},
		SinkRouter:       2,
		Target:           0,
		TCP:              cfg.TCP,
		Seed:             cfg.Seed,
		StartSpread:      cfg.StartSpread,
		AttackPacketSize: cfg.AttackPacketSize,
	}
}
