// Package scenario provides a JSON configuration front-end to the
// experiment harness, so scenarios can be defined, versioned, and replayed
// without writing Go — the role ns-2's Tcl scripts played for the paper.
//
// A scenario file names a topology (dumbbell, testbed, parkinglot, or a
// fully declarative graph, with optional overrides), an optional attack (by
// explicit period or by target γ — setting both is a validation error), and
// the measurement windows:
//
//	{
//	  "name": "fig8-style",
//	  "topology": {"kind": "dumbbell", "flows": 15},
//	  "attack":   {"kind": "aimd", "rateMbps": 35, "extentMs": 75, "gamma": 0.5},
//	  "warmupSec": 8, "measureSec": 20, "seed": 1
//	}
//
// Every topology builds through the graph layer (internal/topo), so any kind
// can run sharded by setting "workers" > 1. The "graph" kind spells out the
// topology inline:
//
//	"topology": {"kind": "graph", "workers": 4, "graph": {
//	  "routers": ["S", "M", "R"],
//	  "trunks": [{"from": 0, "to": 1, "rateMbps": 15, "delayMs": 5, "queuePackets": 150},
//	             {"from": 1, "to": 2, "rateMbps": 100, "delayMs": 5, "queuePackets": 1000, "dropTail": true}],
//	  "groups": [{"flows": 10, "ingress": 0, "egress": 2, "accessRateMbps": 50,
//	              "rttMinMs": 30, "rttMaxMs": 460}],
//	  "attacks": [{"router": 0, "rateMbps": 1000}],
//	  "sink": 2
//	}}
package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"pulsedos/internal/attack"
	"pulsedos/internal/experiments"
	"pulsedos/internal/rng"
	"pulsedos/internal/sim"
	"pulsedos/internal/tcp"
	"pulsedos/internal/topo"
)

// Topology selects and overrides one of the evaluation environments.
type Topology struct {
	Kind  string `json:"kind"`  // "dumbbell", "testbed", "parkinglot", or "graph"
	Flows int    `json:"flows"` // victim population; 0 = kind default

	// Workers shards the topology over the conservative parallel engine;
	// 0 or 1 builds serial. A sharded run can break an exact event tie at a
	// shard boundary differently (DESIGN.md §9), so keys carry it above 1.
	Workers int `json:"workers,omitempty"`

	// Bottleneck overrides (zero = default); ignored by "graph".
	BottleneckMbps float64 `json:"bottleneckMbps,omitempty"`
	QueuePackets   int     `json:"queuePackets,omitempty"`
	DropTail       bool    `json:"dropTail,omitempty"`
	AdaptiveRED    bool    `json:"adaptiveRed,omitempty"`

	// Parkinglot-only overrides (zero = default).
	Hops       int `json:"hops,omitempty"`       // bottleneck trunks in the chain
	CrossFlows int `json:"crossFlows,omitempty"` // per-hop cross flows

	// Graph spells out the topology for kind "graph".
	Graph *GraphSpec `json:"graph,omitempty"`

	// TCP overrides (zero = default).
	RTOMinMs        float64 `json:"rtoMinMs,omitempty"`
	AckEvery        int     `json:"ackEvery,omitempty"`
	RTOJitter       float64 `json:"rtoJitter,omitempty"`
	LimitedTransmit bool    `json:"limitedTransmit,omitempty"`

	// AIMD parameter overrides (zero = default: a=1, b=0.5).
	AIMDIncreaseA float64 `json:"aimdIncreaseA,omitempty"`
	AIMDDecreaseB float64 `json:"aimdDecreaseB,omitempty"`

	// RTT band overrides in ms (zero = default); dumbbell only.
	RTTMinMs float64 `json:"rttMinMs,omitempty"`
	RTTMaxMs float64 `json:"rttMaxMs,omitempty"`

	// AttackPacketBytes overrides the attack packet wire size (0 = 1000 B);
	// ignored by "graph".
	AttackPacketBytes int `json:"attackPacketBytes,omitempty"`
}

// GraphSpec is the JSON shape of a declarative topo.Graph: routers by name,
// trunks and flow groups by router index. Deep structural validation
// (connectivity, delay positivity, sink leafness) happens in topo.Build.
type GraphSpec struct {
	Routers []string      `json:"routers"`
	Trunks  []GraphTrunk  `json:"trunks"`
	Groups  []GraphGroup  `json:"groups"`
	Attacks []GraphAttack `json:"attacks,omitempty"`
	Sink    int           `json:"sink"`
	Target  int           `json:"target,omitempty"` // measured trunk index
}

// GraphTrunk is one duplex inter-router link. The forward queue defaults to
// RED; DropTail and AdaptiveRED select the other disciplines.
type GraphTrunk struct {
	Name         string  `json:"name,omitempty"`
	From         int     `json:"from"`
	To           int     `json:"to"`
	RateMbps     float64 `json:"rateMbps"`
	RevRateMbps  float64 `json:"revRateMbps,omitempty"`
	DelayMs      float64 `json:"delayMs"`
	QueuePackets int     `json:"queuePackets"`
	DropTail     bool    `json:"dropTail,omitempty"`
	AdaptiveRED  bool    `json:"adaptiveRed,omitempty"`
}

// GraphGroup places TCP flows between two routers. Give either an RTT band
// (rttMinMs/rttMaxMs, the dumbbell model) or a fixed access delay
// (accessOwdMs, the test-bed model). Model selects the simulation fidelity:
// "packet" (the default) simulates every segment; "fluid" aggregates the
// group into a deterministic rate process (tcp.Macroflow) — background
// traffic at million-flow scale — and requires at least one packet group
// sharing its bottleneck to supply the loss signal.
type GraphGroup struct {
	Flows          int     `json:"flows"`
	Ingress        int     `json:"ingress"`
	Egress         int     `json:"egress"`
	AccessRateMbps float64 `json:"accessRateMbps"`
	RTTMinMs       float64 `json:"rttMinMs,omitempty"`
	RTTMaxMs       float64 `json:"rttMaxMs,omitempty"`
	AccessOWDMs    float64 `json:"accessOwdMs,omitempty"`
	Model          string  `json:"model,omitempty"` // "packet" (default) or "fluid"
}

// GraphAttack is an attacker ingress point. DelayMs defaults to 2 ms.
type GraphAttack struct {
	Router   int     `json:"router"`
	RateMbps float64 `json:"rateMbps"`
	DelayMs  float64 `json:"delayMs,omitempty"`
}

// Attack describes the pulse train. Exactly one of Gamma or PeriodMs selects
// the period; setting both is a validation error (earlier versions silently
// let Gamma win, which hid typos in hand-edited scenarios). Flood ignores
// both.
type Attack struct {
	Kind     string  `json:"kind"` // "aimd", "shrew", "flood", "jittered"
	RateMbps float64 `json:"rateMbps"`
	ExtentMs float64 `json:"extentMs,omitempty"`

	Gamma    float64 `json:"gamma,omitempty"`    // target normalized rate
	PeriodMs float64 `json:"periodMs,omitempty"` // explicit T_AIMD

	Harmonic   int     `json:"harmonic,omitempty"`   // shrew: minRTO/n
	JitterFrac float64 `json:"jitterFrac,omitempty"` // jittered trains
}

// Config is a complete scenario.
type Config struct {
	Name     string    `json:"name"`
	Topology Topology  `json:"topology"`
	Attack   *Attack   `json:"attack,omitempty"`
	Workload *Workload `json:"workload,omitempty"`
	Measure  *Measure  `json:"measure,omitempty"`

	WarmupSec  float64 `json:"warmupSec"`
	MeasureSec float64 `json:"measureSec"`
	RateBinMs  float64 `json:"rateBinMs,omitempty"`
	Jitter     bool    `json:"measureJitter,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
}

// Load parses and validates a scenario.
func Load(r io.Reader) (Config, error) {
	var cfg Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch c.Topology.Kind {
	case "dumbbell", "testbed", "parkinglot":
	case "graph":
		if c.Topology.Graph == nil {
			return errors.New(`scenario: topology kind "graph" needs a graph spec`)
		}
		for i, grp := range c.Topology.Graph.Groups {
			switch grp.Model {
			case "", topo.ModelPacket, topo.ModelFluid:
			default:
				return fmt.Errorf("scenario: group %d model %q (want %q or %q)",
					i, grp.Model, topo.ModelPacket, topo.ModelFluid)
			}
		}
	default:
		return fmt.Errorf("scenario: topology kind %q (want dumbbell, testbed, parkinglot, or graph)", c.Topology.Kind)
	}
	if c.Topology.Flows < 0 {
		return errors.New("scenario: negative flows")
	}
	if c.Topology.Workers < 0 {
		return errors.New("scenario: negative workers")
	}
	if c.MeasureSec <= 0 {
		return errors.New("scenario: measureSec must be positive")
	}
	if c.Topology.Kind != "dumbbell" && (c.Topology.RTTMinMs > 0 || c.Topology.RTTMaxMs > 0) {
		return errors.New("scenario: rttMinMs/rttMaxMs apply to the dumbbell only")
	}
	if c.Topology.RTTMinMs > 0 && c.Topology.RTTMaxMs > 0 && c.Topology.RTTMaxMs < c.Topology.RTTMinMs {
		return errors.New("scenario: rttMaxMs below rttMinMs")
	}
	if c.Topology.AIMDIncreaseA < 0 || c.Topology.AIMDDecreaseB < 0 || c.Topology.AIMDDecreaseB >= 1 {
		return errors.New("scenario: aimdIncreaseA must be >= 0 and aimdDecreaseB in [0,1)")
	}
	if c.Topology.AttackPacketBytes < 0 {
		return errors.New("scenario: negative attackPacketBytes")
	}
	if err := c.validateRates(); err != nil {
		return err
	}
	if err := c.validateDurations(); err != nil {
		return err
	}
	// A sweep may own the axis the attack would otherwise be required to
	// set: the carrier document leaves the swept field zero and Expand
	// substitutes it per point.
	sweepAxis := ""
	if c.Sweeps() {
		sweepAxis = c.Measure.Sweep.Axis
	}
	if c.Attack != nil {
		a := c.Attack
		switch a.Kind {
		case "aimd", "jittered":
			if a.ExtentMs <= 0 {
				return fmt.Errorf("scenario: %s attack needs extentMs", a.Kind)
			}
			if a.Gamma == 0 && a.PeriodMs == 0 && sweepAxis != "gamma" {
				return fmt.Errorf("scenario: %s attack needs gamma or periodMs", a.Kind)
			}
			if a.Gamma != 0 && a.PeriodMs != 0 {
				return fmt.Errorf("scenario: %s attack sets both gamma and periodMs — pick one", a.Kind)
			}
			if a.Gamma < 0 || a.Gamma >= 1 {
				if a.Gamma != 0 {
					return fmt.Errorf("scenario: gamma %g outside (0,1)", a.Gamma)
				}
			}
		case "shrew":
			if a.ExtentMs <= 0 {
				return errors.New("scenario: shrew attack needs extentMs")
			}
			if a.Harmonic < 0 {
				return fmt.Errorf("scenario: shrew harmonic %d is negative (0 selects 1)", a.Harmonic)
			}
		case "flood":
		default:
			return fmt.Errorf("scenario: attack kind %q", a.Kind)
		}
		if a.RateMbps <= 0 && sweepAxis != "attackRateMbps" {
			return errors.New("scenario: attack needs rateMbps")
		}
		if a.RateMbps < 0 {
			return errors.New("scenario: attack needs rateMbps")
		}
		if a.Kind == "jittered" && (a.JitterFrac <= 0 || a.JitterFrac > 1) {
			return errors.New("scenario: jittered attack needs jitterFrac in (0,1]")
		}
	}
	if err := c.validateWorkload(); err != nil {
		return err
	}
	if err := c.validateMeasure(); err != nil {
		return err
	}
	return c.validateSeries()
}

// validateRates rejects every Mbps field whose bits-per-second value — the
// field times 1e6, as Graph and Train scale it — is not finite. Such a rate
// would resolve to ±Inf, which the canonical encoding cannot represent, so
// the document would load and still have no key.
func (c Config) validateRates() error {
	if err := checkMbps(c.Topology.BottleneckMbps, "bottleneckMbps"); err != nil {
		return err
	}
	if g := c.Topology.Graph; g != nil {
		for i, t := range g.Trunks {
			if err := checkMbps(t.RateMbps, "trunk %d rateMbps", i); err != nil {
				return err
			}
			if err := checkMbps(t.RevRateMbps, "trunk %d revRateMbps", i); err != nil {
				return err
			}
		}
		for i, grp := range g.Groups {
			if err := checkMbps(grp.AccessRateMbps, "group %d accessRateMbps", i); err != nil {
				return err
			}
		}
		for i, a := range g.Attacks {
			if err := checkMbps(a.RateMbps, "graph attack %d rateMbps", i); err != nil {
				return err
			}
		}
	}
	if c.Attack != nil {
		return checkMbps(c.Attack.RateMbps, "attack rateMbps")
	}
	return nil
}

// checkMbps reports an error naming the field (a format with its args)
// when mbps is not finite once scaled to bits per second.
func checkMbps(mbps float64, field string, args ...any) error {
	if bps := mbps * 1e6; !math.IsInf(bps, 0) && !math.IsNaN(bps) {
		return nil
	}
	return fmt.Errorf("scenario: %s %g is not finite in bits per second", fmt.Sprintf(field, args...), mbps)
}

// maxTimeNs is the first nanosecond count sim.Time cannot hold: MaxInt64
// rounds up to 2^63 as a float64.
const maxTimeNs = float64(sim.MaxTime)

// validateDurations rejects every seconds or milliseconds field that is
// negative or whose nanosecond value does not fit in sim.Time. Such a value
// wraps negative when converted, so the document would load and key and
// then fail at run time — or, for rateBinMs, silently run without its
// series.
func (c Config) validateDurations() error {
	var err error
	check := func(v float64, unit time.Duration, field string, args ...any) {
		if err == nil {
			err = checkDuration(v, unit, field, args...)
		}
	}
	ms := time.Millisecond
	check(c.WarmupSec, time.Second, "warmupSec")
	check(c.MeasureSec, time.Second, "measureSec")
	// The run ends at the sum of the two windows converted to nanoseconds.
	check(c.WarmupSec*1e9+c.MeasureSec*1e9, time.Nanosecond, "warmupSec + measureSec in ns")
	check(c.RateBinMs, ms, "rateBinMs")
	top := c.Topology
	check(top.RTOMinMs, ms, "rtoMinMs")
	check(top.RTTMinMs, ms, "rttMinMs")
	check(top.RTTMaxMs, ms, "rttMaxMs")
	if a := c.Attack; a != nil {
		check(a.ExtentMs, ms, "attack extentMs")
		check(a.PeriodMs, ms, "attack periodMs")
	}
	if g := top.Graph; g != nil {
		for i, t := range g.Trunks {
			check(t.DelayMs, ms, "trunk %d delayMs", i)
		}
		for i, grp := range g.Groups {
			check(grp.RTTMinMs, ms, "group %d rttMinMs", i)
			check(grp.RTTMaxMs, ms, "group %d rttMaxMs", i)
			check(grp.AccessOWDMs, ms, "group %d accessOwdMs", i)
		}
		for i, a := range g.Attacks {
			check(a.DelayMs, ms, "graph attack %d delayMs", i)
		}
	}
	if m := c.Measure; m != nil {
		check(m.QueueBinMs, ms, "queueBinMs")
	}
	if w := c.Workload; w != nil {
		check(w.ArrivalSpanSec, time.Second, "arrivalSpanSec")
	}
	return err
}

// checkDuration reports an error naming the field (a format with its args)
// when v units is negative or too long for sim.Time in nanoseconds.
func checkDuration(v float64, unit time.Duration, field string, args ...any) error {
	switch ns := v * float64(unit); {
	case ns < 0:
		return fmt.Errorf("scenario: %s %g is negative", fmt.Sprintf(field, args...), v)
	case ns >= maxTimeNs:
		return fmt.Errorf("scenario: %s %g does not fit in virtual time", fmt.Sprintf(field, args...), v)
	}
	return nil
}

// maxSeriesBins caps each binned series over the measurement window: the
// rate series grows one bin per rateBinMs and the queue sampler schedules one
// event per queueBinMs, so memory grows with the count (a 60 s Fig. 3
// snapshot at 50 ms needs 1,200).
const maxSeriesBins = 1_000_000

// validateSeries rejects a requested series whose bin, converted as
// runOptions converts it, is 0 ns (the series would silently be empty) or
// cuts the measurement window into more than maxSeriesBins.
func (c Config) validateSeries() error {
	opt := c.runOptions()
	check := func(ms float64, bin time.Duration, field string) error {
		switch {
		case bin <= 0:
			return fmt.Errorf("scenario: %s %g rounds to 0 ns", field, ms)
		case opt.Measure/bin > maxSeriesBins:
			return fmt.Errorf("scenario: %s %g cuts measureSec into %d bins, more than %d", field, ms, opt.Measure/bin, maxSeriesBins)
		}
		return nil
	}
	if c.RateBinMs > 0 {
		if err := check(c.RateBinMs, opt.RateBin, "rateBinMs"); err != nil {
			return err
		}
	}
	if c.Measure.HasTap("queue") {
		return check(c.Measure.queueBinMs(), opt.QueueBin, "queueBinMs")
	}
	return nil
}

// Build wires the environment the scenario describes: every kind resolves to
// a topo.Graph and goes through the one topo.Build path, serial or sharded
// per Topology.Workers.
func (c Config) Build() (experiments.Environment, error) {
	g, err := c.Graph()
	if err != nil {
		return nil, err
	}
	return topo.Build(g, topo.Options{Workers: c.Topology.Workers})
}

// Graph resolves the scenario's topology to the declarative graph it builds.
func (c Config) Graph() (topo.Graph, error) {
	top := c.Topology
	flows := top.Flows
	switch top.Kind {
	case "dumbbell":
		if flows == 0 {
			flows = 15
		}
		dc := topo.DefaultDumbbellConfig(flows)
		if c.Seed != 0 {
			dc.Seed = c.Seed
		}
		if top.BottleneckMbps > 0 {
			dc.BottleneckRate = top.BottleneckMbps * 1e6
		}
		if top.QueuePackets > 0 {
			dc.QueueLimit = top.QueuePackets
		}
		dc.DropTail = top.DropTail
		dc.AdaptiveRED = top.AdaptiveRED
		if top.RTTMinMs > 0 {
			dc.RTTMin = time.Duration(top.RTTMinMs * float64(time.Millisecond))
		}
		if top.RTTMaxMs > 0 {
			dc.RTTMax = time.Duration(top.RTTMaxMs * float64(time.Millisecond))
		}
		if top.AttackPacketBytes > 0 {
			dc.AttackPacketSize = top.AttackPacketBytes
		}
		applyTCP(&dc.TCP, top)
		return topo.Dumbbell(dc), nil
	case "testbed":
		if flows == 0 {
			flows = 10
		}
		tc := topo.DefaultTestbedConfig(flows)
		if c.Seed != 0 {
			tc.Seed = c.Seed
		}
		if top.BottleneckMbps > 0 {
			tc.BottleneckRate = top.BottleneckMbps * 1e6
		}
		if top.QueuePackets > 0 {
			tc.QueueLen = top.QueuePackets
		}
		tc.DropTail = top.DropTail
		if top.AttackPacketBytes > 0 {
			tc.AttackPacketSize = top.AttackPacketBytes
		}
		applyTCP(&tc.TCP, top)
		return topo.Testbed(tc), nil
	case "parkinglot":
		pc := topo.DefaultParkingLotConfig()
		if flows > 0 {
			pc.LongFlows = flows
		}
		if top.Hops > 0 {
			pc.Hops = top.Hops
		}
		if top.CrossFlows > 0 {
			pc.CrossFlows = top.CrossFlows
		}
		if c.Seed != 0 {
			pc.Seed = c.Seed
		}
		if top.BottleneckMbps > 0 {
			pc.BottleneckRate = top.BottleneckMbps * 1e6
		}
		if top.QueuePackets > 0 {
			pc.QueueLimit = top.QueuePackets
		}
		pc.DropTail = top.DropTail
		if top.AttackPacketBytes > 0 {
			pc.AttackPacketSize = top.AttackPacketBytes
		}
		applyTCP(&pc.TCP, top)
		return topo.ParkingLot(pc), nil
	case "graph":
		if top.Graph == nil {
			return topo.Graph{}, errors.New(`scenario: topology kind "graph" needs a graph spec`)
		}
		return c.declaredGraph()
	default:
		return topo.Graph{}, fmt.Errorf("scenario: topology kind %q", top.Kind)
	}
}

// declaredGraph converts the JSON graph spec into a topo.Graph.
func (c Config) declaredGraph() (topo.Graph, error) {
	spec := c.Topology.Graph
	g := topo.Graph{
		Name:             c.Name,
		Routers:          spec.Routers,
		SinkRouter:       spec.Sink,
		Target:           spec.Target,
		TCP:              tcp.DefaultConfig(),
		Seed:             1,
		StartSpread:      time.Second,
		AttackPacketSize: 1000,
	}
	if c.Seed != 0 {
		g.Seed = c.Seed
	}
	applyTCP(&g.TCP, c.Topology)
	for i, t := range spec.Trunks {
		kind := topo.QueueRED
		switch {
		case t.DropTail:
			kind = topo.QueueDropTail
		case t.AdaptiveRED:
			kind = topo.QueueARED
		}
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("trunk%d", i)
		}
		g.Trunks = append(g.Trunks, topo.TrunkSpec{
			Name:     name,
			From:     t.From,
			To:       t.To,
			Rate:     t.RateMbps * 1e6,
			RevRate:  t.RevRateMbps * 1e6,
			Delay:    time.Duration(t.DelayMs * float64(time.Millisecond)),
			Queue:    topo.QueueSpec{Kind: kind, Limit: t.QueuePackets},
			RevQueue: topo.QueueSpec{Kind: topo.QueueDropTail, Limit: 4096},
		})
	}
	for _, grp := range spec.Groups {
		g.Groups = append(g.Groups, topo.FlowGroup{
			Flows:      grp.Flows,
			Ingress:    grp.Ingress,
			Egress:     grp.Egress,
			AccessRate: grp.AccessRateMbps * 1e6,
			RTTMin:     time.Duration(grp.RTTMinMs * float64(time.Millisecond)),
			RTTMax:     time.Duration(grp.RTTMaxMs * float64(time.Millisecond)),
			AccessOWD:  time.Duration(grp.AccessOWDMs * float64(time.Millisecond)),
			Model:      grp.Model,
		})
	}
	for _, a := range spec.Attacks {
		delay := time.Duration(a.DelayMs * float64(time.Millisecond))
		if delay == 0 {
			delay = 2 * time.Millisecond
		}
		g.Attacks = append(g.Attacks, topo.AttackPoint{
			Router: a.Router,
			Rate:   a.RateMbps * 1e6,
			Delay:  delay,
		})
	}
	return g, nil
}

// applyTCP folds the TCP overrides into a config.
func applyTCP(cfg *tcp.Config, top Topology) {
	if top.RTOMinMs > 0 {
		cfg.RTOMin = time.Duration(top.RTOMinMs * float64(time.Millisecond))
	}
	if top.AckEvery > 0 {
		cfg.AckEvery = top.AckEvery
	}
	if top.RTOJitter > 0 {
		cfg.RTOJitter = top.RTOJitter
	}
	if top.LimitedTransmit {
		cfg.LimitedTransmit = true
	}
	if top.AIMDIncreaseA > 0 {
		cfg.IncreaseA = top.AIMDIncreaseA
	}
	if top.AIMDDecreaseB > 0 {
		cfg.DecreaseB = top.AIMDDecreaseB
	}
}

// Train builds the scenario's pulse train against the environment's
// bottleneck and RTO floor. Returns nil when the scenario has no attack.
func (c Config) Train(env experiments.Environment) (*attack.Train, error) {
	if c.Attack == nil {
		return nil, nil
	}
	a := c.Attack
	rate := a.RateMbps * 1e6
	extent := time.Duration(a.ExtentMs * float64(time.Millisecond))
	measure := time.Duration(c.MeasureSec * float64(time.Second))

	switch a.Kind {
	case "flood":
		warmup := time.Duration(c.WarmupSec * float64(time.Second))
		tr := attack.FloodTrain(rate, sim.FromDuration(measure+warmup))
		return &tr, nil
	case "shrew":
		harmonic := a.Harmonic
		if harmonic == 0 {
			harmonic = 1
		}
		minRTO := time.Duration(env.TimeoutModel().MinRTO * float64(time.Second))
		period := minRTO / time.Duration(harmonic)
		tr, err := attack.ShrewTrain(sim.FromDuration(extent), rate, sim.FromDuration(minRTO),
			harmonic, experiments.PulsesFor(measure, period))
		if err != nil {
			return nil, err
		}
		return &tr, nil
	}

	period := time.Duration(a.PeriodMs * float64(time.Millisecond))
	if a.Gamma > 0 {
		period = experiments.PeriodForGamma(a.Gamma, rate, extent, env.ModelParams().Bottleneck)
	}
	if period < extent {
		return nil, fmt.Errorf("scenario: period %v shorter than extent %v (gamma unreachable)", period, extent)
	}
	n := experiments.PulsesFor(measure, period)
	switch a.Kind {
	case "aimd":
		tr, err := attack.AIMDTrain(sim.FromDuration(extent), rate, sim.FromDuration(period), n)
		if err != nil {
			return nil, err
		}
		return &tr, nil
	case "jittered":
		seed := c.Seed
		if seed == 0 {
			seed = 1
		}
		tr, err := attack.JitteredTrain(sim.FromDuration(extent), rate,
			sim.FromDuration(period-extent), n, a.JitterFrac, rng.New(seed^0xa5a5))
		if err != nil {
			return nil, err
		}
		return &tr, nil
	default:
		return nil, fmt.Errorf("scenario: attack kind %q", a.Kind)
	}
}

// Run executes the scenario end to end.
func (c Config) Run() (*experiments.RunResult, error) {
	return c.RunContext(context.Background(), nil)
}

// RunContext executes the scenario end to end under a context: the timeline
// runs in slices (experiments.RunCtx), so cancellation — an aborted HTTP
// request, an exceeded wall budget — aborts mid-run instead of running the
// scenario to completion. progress, when non-nil, receives the completed
// fraction of the virtual timeline after each slice. Results are
// byte-identical to Run.
func (c Config) RunContext(ctx context.Context, progress func(frac float64)) (*experiments.RunResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Sweeps() {
		return nil, errors.New("scenario: sweep document must be expanded (Expand) before running")
	}
	env, err := c.Build()
	if err != nil {
		return nil, err
	}
	if cl, ok := env.(interface{ Close() }); ok {
		defer cl.Close()
	}
	train, err := c.Train(env)
	if err != nil {
		return nil, err
	}
	if c.Workload != nil {
		return c.runWorkload(ctx, env, train, progress)
	}
	opt := c.runOptions()
	opt.Train, opt.Progress = train, progress
	return experiments.RunCtx(ctx, env, opt)
}

// runOptions converts the document's windows and taps to the options RunCtx
// takes; the caller adds the train and the progress callback.
func (c Config) runOptions() experiments.RunOptions {
	opt := experiments.RunOptions{
		Warmup:        time.Duration(c.WarmupSec * float64(time.Second)),
		Measure:       time.Duration(c.MeasureSec * float64(time.Second)),
		MeasureJitter: c.Jitter,
	}
	if c.RateBinMs > 0 {
		opt.RateBin = time.Duration(c.RateBinMs * float64(time.Millisecond))
	}
	if m := c.Measure; m != nil {
		opt.CaptureSRTT = m.HasTap("srtt")
		if m.HasTap("cwnd") {
			opt.CaptureCwnd = true
			opt.CwndFlow = m.CwndFlow
		}
		if m.HasTap("queue") {
			opt.QueueBin = time.Duration(m.queueBinMs() * float64(time.Millisecond))
		}
	}
	return opt
}

// runWorkload executes the structured-workload branch: the mice study runs
// its own flow schedule (Poisson short-flow arrivals over elephants), so it
// bypasses RunCtx's start/stop choreography but reports progress the same
// way.
func (c Config) runWorkload(ctx context.Context, env experiments.Environment, train *attack.Train, progress func(frac float64)) (*experiments.RunResult, error) {
	denv, ok := env.(*topo.Environment)
	if !ok {
		return nil, errors.New("scenario: mice workload needs a serial dumbbell environment")
	}
	w := c.Workload
	mice, err := experiments.RunMiceCtx(ctx, denv, experiments.MiceConfig{
		Elephants:    w.Elephants,
		Mice:         w.Mice,
		MiceSegments: w.MiceSegments,
		ArrivalSpan:  time.Duration(w.ArrivalSpanSec * float64(time.Second)),
		Warmup:       time.Duration(c.WarmupSec * float64(time.Second)),
		Measure:      time.Duration(c.MeasureSec * float64(time.Second)),
		Train:        train,
	}, progress)
	if err != nil {
		return nil, err
	}
	return &experiments.RunResult{
		Delivered: denv.Account.Total(),
		Mice:      mice,
	}, nil
}
