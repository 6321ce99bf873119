package experiments

import (
	"fmt"
	"runtime"
	"time"

	"pulsedos/internal/attack"
	"pulsedos/internal/model"
	"pulsedos/internal/netem"
	"pulsedos/internal/perf/clock"
	"pulsedos/internal/sim"
	"pulsedos/internal/topo"
)

// ScaleSweepConfig parameterizes the many-flow scaling study: the same pulsed
// dumbbell at growing victim populations, with the bottleneck scaled so every
// population sees the paper's per-flow regime (15 flows over 15 Mbps ≈
// 1 Mbps/flow). Each point measures both the attack physics (does the
// aggregate degradation still match Eq. 1 / Prop. 2 at scale?) and the
// simulator's cost of delivering them (events/sec, ns per flow per virtual
// second, allocs/packet), with every attacked point replayed on the heap
// kernel as the ordering-equivalence and speed baseline.
type ScaleSweepConfig struct {
	FlowCounts  []int         // victim populations to sweep
	PerFlowRate float64       // bottleneck bps per flow; default 1 Mbps
	Gamma       float64       // target throughput-degradation point; default 0.5
	Extent      time.Duration // pulse width T_extent; default 75 ms
	RateFactor  float64       // attack rate as a multiple of the bottleneck; default 2

	Warmup         time.Duration // per-run warm-up; pulses begin mid-warm-up
	Measure        time.Duration // measurement window for Flows <= LongMeasureMax
	ShortMeasure   time.Duration // measurement window above LongMeasureMax
	LongMeasureMax int

	Seed uint64
}

// DefaultScaleSweepConfig returns the full many-flow sweep: 100 → 50k flows,
// 60 virtual seconds of pulsed steady state up to 10k flows (10 s at 50k).
func DefaultScaleSweepConfig() ScaleSweepConfig {
	return ScaleSweepConfig{
		FlowCounts:     []int{100, 1000, 10000, 50000},
		PerFlowRate:    1 * netem.Mbps,
		Gamma:          0.5,
		Extent:         75 * time.Millisecond,
		RateFactor:     2,
		Warmup:         15 * time.Second,
		Measure:        60 * time.Second,
		ShortMeasure:   10 * time.Second,
		LongMeasureMax: 10000,
		Seed:           1,
	}
}

func (c ScaleSweepConfig) measureFor(flows int) time.Duration {
	if flows > c.LongMeasureMax && c.ShortMeasure > 0 {
		return c.ShortMeasure
	}
	return c.Measure
}

// ScalePoint is one measured population of the scaling sweep.
type ScalePoint struct {
	Flows          int
	BottleneckBps  float64
	VirtualSeconds float64

	// Simulator cost of the attacked run, measured over the post-warm-up
	// window only (capacity growth — queue rings, event free list, packet
	// pool — has converged by then).
	Events          uint64
	WallSeconds     float64
	EventsPerSec    float64
	NsPerFlowPerSec float64
	Packets         uint64
	AllocsPerPacket float64

	// Heap-kernel baseline: the identical attacked scenario scheduled by the
	// pure 4-ary-heap kernel. DeliveredMatch asserts the two kernels produced
	// byte-identical goodput (the ordering-equivalence contract, end to end).
	HeapEventsPerSec float64
	HeapWallSeconds  float64
	SpeedupVsHeap    float64
	DeliveredMatch   bool

	// Attack physics at this scale, against the Eq. 1 / Prop. 2 predictions.
	BaselineBytes       uint64
	AttackedBytes       uint64
	MeasuredDegradation float64
	AnalyticDegradation float64
	MeanConvergedWindow float64 // Eq. 1, averaged over flows
	LossRate            float64 // bottleneck drops/arrivals in the window
}

// Per-flow footprint estimates for pdos-serve's MaxHeapBytes guard, in
// bytes. A packet flow owns four access links whose 1024-slot queue rings
// dominate its cost; a fluid flow is only a population count inside its
// group's aggregate, so its marginal footprint is nominal. The constant tail
// covers the shared topology (routers, bottleneck rings, packet pool).
const (
	packetFlowFootprint = 64 << 10
	fluidFlowFootprint  = 16
	sweepBaseFootprint  = 64 << 20
)

// ProjectedHeapBytes estimates the build footprint of a run with the given
// packet-accurate and fluid-aggregated flow populations, for pdos-serve's
// MaxHeapBytes admission guard.
func ProjectedHeapBytes(packet, fluid int) uint64 {
	return uint64(packet)*packetFlowFootprint + uint64(fluid)*fluidFlowFootprint + sweepBaseFootprint
}

// scaleDumbbellConfig scales the Fig. 5 topology to the given population,
// holding the per-flow regime fixed: bottleneck bandwidth grows linearly
// with the population (the paper's 15 flows / 15 Mbps ratio), RTTs keep
// their 20–460 ms spread; the queue and the attacker's access rate grow with
// the population too.
func scaleDumbbellConfig(cfg ScaleSweepConfig, flows int) DumbbellConfig {
	d := DefaultDumbbellConfig(flows)
	d.Seed = cfg.Seed
	d.BottleneckRate = cfg.PerFlowRate * float64(flows)
	d.QueueLimit = 10 * flows
	if r := 4 * d.BottleneckRate; r > d.AttackAccessRate {
		d.AttackAccessRate = r
	}
	return d
}

// ScaleSweep runs every population sequentially (each point times wall-clock
// and reads allocator counters, so points must not share the process with
// concurrent work) and returns one record per population.
func ScaleSweep(cfg ScaleSweepConfig, progress func(string)) ([]ScalePoint, error) {
	if cfg.Gamma <= 0 || cfg.Gamma >= 1 {
		return nil, fmt.Errorf("experiments: scale gamma %g outside (0,1)", cfg.Gamma)
	}
	say := func(format string, args ...any) {
		if progress != nil {
			progress(fmt.Sprintf(format, args...))
		}
	}
	points := make([]ScalePoint, 0, len(cfg.FlowCounts))
	for _, flows := range cfg.FlowCounts {
		say("scale: %d flows (%.0f Mbps bottleneck, %v measured)...",
			flows, cfg.PerFlowRate*float64(flows)/1e6, cfg.measureFor(flows))
		p, err := measureScalePoint(cfg, flows)
		if err != nil {
			return nil, fmt.Errorf("experiments: scale point %d flows: %w", flows, err)
		}
		say("scale: %d flows done: %.1fs wall, %.2fM events/sec, %.1f ns/flow/vsec, %.4f allocs/packet, degradation %.3f (model %.3f)",
			flows, p.WallSeconds, p.EventsPerSec/1e6, p.NsPerFlowPerSec, p.AllocsPerPacket,
			p.MeasuredDegradation, p.AnalyticDegradation)
		points = append(points, p)
	}
	return points, nil
}

func measureScalePoint(cfg ScaleSweepConfig, flows int) (ScalePoint, error) {
	dcfg := scaleDumbbellConfig(cfg, flows)
	attackRate := cfg.RateFactor * dcfg.BottleneckRate
	period := PeriodForGamma(cfg.Gamma, attackRate, cfg.Extent, dcfg.BottleneckRate)
	if period < cfg.Extent {
		return ScalePoint{}, fmt.Errorf("gamma %g unreachable at rate factor %g", cfg.Gamma, cfg.RateFactor)
	}
	measure := cfg.measureFor(flows)

	// Ψ_normal: the no-attack baseline, and the operative (queued) RTTs the
	// analytic model paces on.
	baseEnv, err := BuildDumbbell(dcfg)
	if err != nil {
		return ScalePoint{}, err
	}
	params := baseEnv.ModelParams()
	baseRes, err := Run(baseEnv, RunOptions{Warmup: cfg.Warmup, Measure: measure, CaptureSRTT: true})
	if err != nil {
		return ScalePoint{}, err
	}
	params = params.CalibrateRTTs(baseRes.SRTTs)
	cPsi := params.CPsi(cfg.Extent.Seconds(), attackRate)

	meanW1 := 0.0
	for _, rtt := range params.RTTs {
		meanW1 += params.ConvergedWindow(period.Seconds(), rtt)
	}
	meanW1 /= float64(len(params.RTTs))

	p := ScalePoint{
		Flows:               flows,
		BottleneckBps:       dcfg.BottleneckRate,
		VirtualSeconds:      measure.Seconds(),
		BaselineBytes:       baseRes.Delivered,
		AnalyticDegradation: model.Degradation(cPsi, cfg.Gamma),
		MeanConvergedWindow: meanW1,
	}
	baseEnv = nil

	// The attacked wheel run, instrumented over the measurement window.
	att, err := runAttackedScale(dcfg, cfg, attackRate, period, measure)
	if err != nil {
		return ScalePoint{}, err
	}
	p.Events = att.events
	p.WallSeconds = att.wall.Seconds()
	if p.WallSeconds > 0 {
		p.EventsPerSec = float64(att.events) / p.WallSeconds
		p.NsPerFlowPerSec = float64(att.wall.Nanoseconds()) / (float64(flows) * measure.Seconds())
	}
	p.Packets = att.packets
	if att.packets > 0 {
		p.AllocsPerPacket = float64(att.mallocs) / float64(att.packets)
		p.LossRate = float64(att.drops) / float64(att.packets)
	}
	p.AttackedBytes = att.delivered
	if p.BaselineBytes > 0 {
		p.MeasuredDegradation = 1 - float64(att.delivered)/float64(p.BaselineBytes)
		if p.MeasuredDegradation < 0 {
			p.MeasuredDegradation = 0
		}
	}

	hcfg := dcfg
	hcfg.HeapKernel = true
	heap, err := runAttackedScale(hcfg, cfg, attackRate, period, measure)
	if err != nil {
		return ScalePoint{}, err
	}
	p.HeapWallSeconds = heap.wall.Seconds()
	if heap.wall > 0 {
		p.HeapEventsPerSec = float64(heap.events) / heap.wall.Seconds()
	}
	if p.HeapEventsPerSec > 0 {
		p.SpeedupVsHeap = p.EventsPerSec / p.HeapEventsPerSec
	}
	p.DeliveredMatch = heap.delivered == att.delivered && heap.events == att.events
	return p, nil
}

// attackedScale holds the raw counters of one instrumented attacked run.
type attackedScale struct {
	events    uint64
	packets   uint64
	drops     uint64
	mallocs   uint64
	wall      time.Duration
	delivered uint64
}

// runAttackedScale executes one pulsed run and instruments the measurement
// window only. The pulse train starts halfway through the warm-up — not at
// its end as Run does — so every capacity high-water mark the attack provokes
// (queue rings, event free list, packet pool) is reached before counters
// start, leaving the window itself allocation-free.
func runAttackedScale(dcfg DumbbellConfig, cfg ScaleSweepConfig, attackRate float64, period time.Duration, measure time.Duration) (attackedScale, error) {
	env, err := topo.Build(topo.Dumbbell(dcfg), topo.Options{})
	if err != nil {
		return attackedScale{}, err
	}
	defer env.Close()
	warmup := sim.FromDuration(cfg.Warmup)
	attackStart := warmup / 2
	end := warmup + sim.FromDuration(measure)
	pulses := PulsesFor(measure+cfg.Warmup/2, period)
	train, err := attack.AIMDTrain(sim.FromDuration(cfg.Extent), attackRate, sim.FromDuration(period), pulses)
	if err != nil {
		return attackedScale{}, err
	}
	gen, err := env.Attach(train)
	if err != nil {
		return attackedScale{}, err
	}
	if err := gen.Start(attackStart); err != nil {
		return attackedScale{}, err
	}
	env.Goodput().SetStart(warmup)
	if err := env.StartFlows(); err != nil {
		return attackedScale{}, err
	}
	if err := env.RunUntil(warmup); err != nil {
		return attackedScale{}, err
	}

	stats0 := env.BottleStats()
	events0 := env.Processed()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wall0 := clock.Wall.Now() //pdos:wallclock — events/sec measurement, not simulation state
	if err := env.RunUntil(end); err != nil {
		return attackedScale{}, err
	}
	wall := clock.Wall.Since(wall0) //pdos:wallclock — events/sec measurement, not simulation state
	runtime.ReadMemStats(&m1)
	stats1 := env.BottleStats()

	env.StopFlows()
	gen.Stop()
	return attackedScale{
		events:    env.Processed() - events0,
		packets:   stats1.Arrivals - stats0.Arrivals,
		drops:     stats1.Drops - stats0.Drops,
		mallocs:   m1.Mallocs - m0.Mallocs,
		wall:      wall,
		delivered: env.Goodput().Total(),
	}, nil
}

// ScaleFigure is the "scale" figure: the sweep restricted to the figure
// scale's populations and windows (so quick regression runs stay quick),
// rendered as flows-vs-metric curves. The full sweep (DefaultScaleSweepConfig:
// 60 virtual seconds at up to 50k flows) is ScaleSweep's default.
func ScaleFigure(scale Scale) (*FigureResult, error) {
	cfg := DefaultScaleSweepConfig()
	cfg.Seed = scale.Seed
	if len(scale.ScaleFlows) > 0 {
		cfg.FlowCounts = scale.ScaleFlows
	}
	cfg.Warmup = scale.Warmup
	cfg.Measure = scale.Measure
	cfg.ShortMeasure = scale.Measure / 3
	points, err := ScaleSweep(cfg, nil)
	if err != nil {
		return nil, err
	}
	fig := &FigureResult{
		ID:    "scale",
		Title: "Many-flow scaling: simulator throughput and model convergence vs population",
	}
	curves := []struct {
		label string
		get   func(ScalePoint) float64
	}{
		{"events/sec (wheel)", func(p ScalePoint) float64 { return p.EventsPerSec }},
		{"events/sec (heap)", func(p ScalePoint) float64 { return p.HeapEventsPerSec }},
		{"ns/flow/virtual-second", func(p ScalePoint) float64 { return p.NsPerFlowPerSec }},
		{"measured degradation", func(p ScalePoint) float64 { return p.MeasuredDegradation }},
		{"analytic degradation (Prop. 2)", func(p ScalePoint) float64 { return p.AnalyticDegradation }},
	}
	for _, c := range curves {
		s := Series{Label: c.label}
		for _, p := range points {
			s.Points = append(s.Points, Point{X: float64(p.Flows), Y: c.get(p)})
		}
		fig.Series = append(fig.Series, s)
	}
	for _, p := range points {
		fig.Notes = append(fig.Notes, fmt.Sprintf("flows=%d: %.2fM events/sec (heap %.2fM, %.2fx), %.1f ns/flow/vsec, %.4f allocs/packet, degradation %.3f vs model %.3f, identical-goodput=%v",
			p.Flows, p.EventsPerSec/1e6, p.HeapEventsPerSec/1e6, p.SpeedupVsHeap,
			p.NsPerFlowPerSec, p.AllocsPerPacket, p.MeasuredDegradation, p.AnalyticDegradation,
			p.DeliveredMatch))
	}
	return fig, nil
}
