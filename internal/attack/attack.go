// Package attack implements the paper's pulsing denial-of-service traffic
// sources. A pulse train A(Textent(n), Rattack(n), Tspace(n), N) — the
// formal attack model of §2.1 — is a sequence of short, high-rate bursts
// injected toward a bottleneck router. Constructors cover the three attack
// archetypes the paper discusses: the AIMD-based PDoS attack with a fixed
// period T_AIMD, the timeout-based shrew attack whose period resonates with
// the victims' minimum RTO, and the traditional flooding attack (Tspace = 0)
// used as the baseline the PDoS attack is smarter than.
package attack

import (
	"errors"
	"fmt"

	"pulsedos/internal/netem"
	"pulsedos/internal/rng"
	"pulsedos/internal/sim"
)

// FlowID is the packet flow identifier used for attack traffic. Attack flows
// are negative so they can never collide with victim TCP flows.
const FlowID = -1

// Pulse describes one burst in a train: transmit at Rate bps for Extent,
// then stay silent for Space before the next pulse begins.
type Pulse struct {
	Extent sim.Time // pulse width, the paper's Textent(n)
	Rate   float64  // sending rate in bps, the paper's Rattack(n)
	Space  sim.Time // gap to the next pulse, the paper's Tspace(n)
}

// Period reports Extent + Space, the paper's T_AIMD for uniform trains.
func (p Pulse) Period() sim.Time { return p.Extent + p.Space }

// Train is a finite sequence of pulses.
type Train struct {
	Pulses []Pulse
}

// Uniform builds the identical-pulse train the paper's analysis assumes:
// N pulses of the given width and rate separated by space.
func Uniform(extent sim.Time, rate float64, space sim.Time, n int) Train {
	pulses := make([]Pulse, n)
	for i := range pulses {
		pulses[i] = Pulse{Extent: extent, Rate: rate, Space: space}
	}
	return Train{Pulses: pulses}
}

// AIMDTrain builds a uniform train parameterized by the attack period
// T_AIMD = Textent + Tspace, the natural knob of the AIMD-based attack.
func AIMDTrain(extent sim.Time, rate float64, period sim.Time, n int) (Train, error) {
	if period < extent {
		return Train{}, fmt.Errorf("attack: period %v shorter than pulse extent %v", period, extent)
	}
	return Uniform(extent, rate, period-extent, n), nil
}

// ShrewTrain builds a timeout-based (shrew) attack: the period is minRTO/k
// for the chosen harmonic k ≥ 1, so that pulses land exactly when victims'
// retransmission timers expire (Kuzmanovic & Knightly; paper §4.1.3).
func ShrewTrain(extent sim.Time, rate float64, minRTO sim.Time, harmonic, n int) (Train, error) {
	if harmonic < 1 {
		return Train{}, fmt.Errorf("attack: shrew harmonic must be >= 1, got %d", harmonic)
	}
	period := minRTO / sim.Time(harmonic)
	return AIMDTrain(extent, rate, period, n)
}

// FloodTrain builds the traditional flooding baseline: one continuous burst
// (Tspace = 0) lasting the given duration.
func FloodTrain(rate float64, duration sim.Time) Train {
	return Train{Pulses: []Pulse{{Extent: duration, Rate: rate}}}
}

// JitteredTrain builds a train whose inter-pulse gaps are uniformly jittered
// by ±jitterFrac·space, keeping the mean period (and hence γ) unchanged.
// The paper's analysis assumes identical pulses; jitter is the natural
// counter-move against pulse-shape detectors such as the DTW scheme of
// §1.1 [8], and the ablation benches quantify what it costs in attack gain.
func JitteredTrain(extent sim.Time, rate float64, space sim.Time, n int, jitterFrac float64, rand *rng.Source) (Train, error) {
	if jitterFrac < 0 || jitterFrac > 1 {
		return Train{}, fmt.Errorf("attack: jitter fraction %g outside [0,1]", jitterFrac)
	}
	if rand == nil {
		return Train{}, errors.New("attack: jittered train requires a random source")
	}
	pulses := make([]Pulse, n)
	for i := range pulses {
		jitter := sim.Time(0)
		if space > 0 && jitterFrac > 0 {
			span := int64(jitterFrac * float64(space))
			if span > 0 {
				jitter = sim.Time(rand.Int63n(2*span+1) - span)
			}
		}
		pulses[i] = Pulse{Extent: extent, Rate: rate, Space: space + jitter}
	}
	return Train{Pulses: pulses}, nil
}

// Duration reports the span from the first pulse's start to the last pulse's
// end (the paper's (N-1)·T_AIMD + Textent for uniform trains).
func (t Train) Duration() sim.Time {
	var d sim.Time
	for i, p := range t.Pulses {
		d += p.Extent
		if i < len(t.Pulses)-1 {
			d += p.Space
		}
	}
	return d
}

// MeanGamma reports the normalized average attack rate γ =
// Rattack·Textent / (Rbottle·T_AIMD) averaged across the train (Eq. 4).
func (t Train) MeanGamma(bottleneckRate float64) float64 {
	if bottleneckRate <= 0 || len(t.Pulses) == 0 {
		return 0
	}
	var sent, span float64
	for i, p := range t.Pulses {
		sent += p.Rate * p.Extent.Seconds()
		span += p.Extent.Seconds()
		if i < len(t.Pulses)-1 {
			span += p.Space.Seconds()
		}
	}
	if span <= 0 {
		return 0
	}
	return sent / span / bottleneckRate
}

// GeneratorStats aggregates attack-source counters.
type GeneratorStats struct {
	PulsesSent  int
	PacketsSent uint64
	BytesSent   uint64
}

// pacedBatch is the number of emissions a paced generator commits per kernel
// event (see emitBatch): large enough that the source-side event cost per
// packet becomes negligible, small enough that the committed-but-future
// window stays a handful of wire-times deep.
const pacedBatch = 64

// Generator replays a pulse train onto a link. Within a pulse, packets of
// PacketSize bytes are emitted back-to-back at the pulse rate; between
// pulses the source is silent. Attack packets are UDP-like: no
// acknowledgments, no congestion response.
//
// On a fused link the generator owns outright, emission is paced (DESIGN.md
// §14): when a pulse's emission gap strictly exceeds the packet
// serialization time, one kernel event commits a batch of pacedBatch future
// packets via netem.Link.SendPaced, with every per-packet timestamp kept
// exactly on the reference grid. Golden links, tapped links (a tap observes
// each arrival at its Send instant), shared links, and pulses too fast for
// the link fall back to the per-packet Send chain, which is the reference
// schedule itself.
type Generator struct {
	k          *sim.Kernel
	out        *netem.Link
	train      Train
	packetSize int
	flow       int

	pulseIdx int
	started  bool
	stopped  bool
	next     sim.Timer
	stats    GeneratorStats

	// Current pulse state plus prebuilt emission callbacks, so the
	// per-packet and batch chains reschedule without allocating a closure
	// per packet.
	curPulse Pulse
	curEnd   sim.Time
	emitFn   func()
	batchFn  func()

	// Emission-grid accounting. Within a pulse beginning at pulseT0, the
	// reference schedule emits at pulseT0 + j·gap for j < pulseN (the first
	// inline with beginPulse, the rest via one kernel event each) and fires
	// one closing event at pulseT0 + pulseN·gap. Batched emission fires the
	// identical closing event but only ceil(pulseN/pacedBatch) emission
	// events; eventsFired counts scheduled source events actually fired and
	// gridDone folds completed pulses' reference counts, so SkippedEvents —
	// the grid count minus eventsFired — is exact at any horizon, and Stats
	// derives emission totals from the same grid once pacing has engaged.
	gap         sim.Time
	pulseT0     sim.Time
	pulseN      uint64
	pulseActive bool
	pacedUsed   bool
	gridDone    uint64
	eventsFired uint64
	stopAt      sim.Time
}

// NewGenerator builds an attack source that emits packets of packetSize
// bytes (wire size) into out.
func NewGenerator(k *sim.Kernel, out *netem.Link, train Train, packetSize int) (*Generator, error) {
	if k == nil || out == nil {
		return nil, errors.New("attack: nil kernel or link")
	}
	if packetSize <= 0 {
		return nil, fmt.Errorf("attack: packet size must be positive, got %d", packetSize)
	}
	for i, p := range train.Pulses {
		if p.Rate <= 0 {
			return nil, fmt.Errorf("attack: pulse %d has non-positive rate %g", i, p.Rate)
		}
		if p.Extent <= 0 {
			return nil, fmt.Errorf("attack: pulse %d has non-positive extent %v", i, p.Extent)
		}
		if p.Space < 0 {
			return nil, fmt.Errorf("attack: pulse %d has negative space %v", i, p.Space)
		}
	}
	g := &Generator{
		k:          k,
		out:        out,
		train:      train,
		packetSize: packetSize,
		flow:       FlowID,
	}
	g.emitFn = g.emitEvent
	g.batchFn = g.batchEvent
	return g, nil
}

// Stats returns a snapshot of the generator counters. Once paced emission
// has engaged, the emission totals are derived from the reference grid at
// the current virtual instant, so they match per-packet operation exactly
// even while a batch's later emissions are still in the virtual future.
func (g *Generator) Stats() GeneratorStats {
	s := g.stats
	if g.pacedUsed {
		n := g.emissions(g.k.Now())
		s.PacketsSent = n
		s.BytesSent = n * uint64(g.packetSize)
	}
	return s
}

// SkippedEvents reports how many source-side kernel events paced emission
// has elided relative to the per-packet reference schedule, exact as of the
// generator kernel's current instant. A generator that never paced reports
// zero; the sum with the link-side elisions normalizes a fused run back to
// reference event counts (topo.Environment.Processed).
func (g *Generator) SkippedEvents() uint64 {
	now := g.k.Now()
	if g.stopped && now > g.stopAt {
		now = g.stopAt
	}
	return g.gridEvents(now) - g.eventsFired
}

// gridEvents counts the scheduled source events the reference per-packet
// chain would have fired by now: one per grid point pulseT0 + j·gap for
// 1 <= j <= pulseN of the active pulse (the j = 0 emission rides the
// beginPulse event in both modes, and j = pulseN is the closing event both
// modes fire at the identical instant), plus the folded totals of completed
// pulses.
//
//pdos:counter emission-grid fold — the reference event count is derived analytically from the grid geometry
func (g *Generator) gridEvents(now sim.Time) uint64 {
	n := g.gridDone
	if g.pulseActive && now > g.pulseT0 {
		e := uint64((now - g.pulseT0) / g.gap)
		if e > g.pulseN {
			e = g.pulseN
		}
		n += e
	}
	return n
}

// emissions counts the packets emitted by now on the reference grid: grid
// points pulseT0 + j·gap for 0 <= j < pulseN of the active pulse, plus
// completed pulses' totals.
func (g *Generator) emissions(now sim.Time) uint64 {
	if g.stopped && now > g.stopAt {
		now = g.stopAt
	}
	n := g.gridDone
	if g.pulseActive && now >= g.pulseT0 {
		e := uint64((now-g.pulseT0)/g.gap) + 1
		if e > g.pulseN {
			e = g.pulseN
		}
		n += e
	}
	return n
}

// Train exposes the generator's pulse train.
func (g *Generator) Train() Train { return g.train }

// Start schedules the train's first pulse at the given virtual instant.
func (g *Generator) Start(at sim.Time) error {
	if g.started {
		return errors.New("attack: generator already started")
	}
	g.started = true
	if len(g.train.Pulses) == 0 {
		return nil
	}
	t, err := g.k.At(at, g.beginPulse)
	if err != nil {
		return fmt.Errorf("attack: start: %w", err)
	}
	g.next = t
	return nil
}

// Stop cancels any pending transmission; in-flight packets still arrive. A
// paced generator may already have committed up to pacedBatch-1 emissions
// beyond the current instant — those, like in-flight packets, still arrive
// (Stop is terminal teardown, called once the measured run has ended).
func (g *Generator) Stop() {
	if !g.stopped {
		g.stopped = true
		g.stopAt = g.k.Now()
	}
	g.next.Cancel()
}

// beginPulse starts emitting the current pulse's packets, choosing between
// the per-packet reference chain and batched paced emission: pacing engages
// only when the outbound link accepts paced commitments (fused, untapped,
// idle, exclusively ours — netem.Link.CanPace) and the emission gap strictly
// exceeds the packet serialization time, so the reference schedule would
// find the transmitter idle at every emission. A tie (gap equal to the
// serialization time) must stay per-packet: the reference enqueues there.
//
//pdos:hotpath
func (g *Generator) beginPulse() {
	if g.stopped || g.pulseIdx >= len(g.train.Pulses) {
		return
	}
	g.curPulse = g.train.Pulses[g.pulseIdx]
	g.stats.PulsesSent++
	now := g.k.Now()
	g.curEnd = now.Add(g.curPulse.Extent)
	gap := sim.FromSeconds(float64(g.packetSize) * 8 / g.curPulse.Rate)
	if gap < 1 {
		gap = 1 // at least one nanosecond between emissions
	}
	g.gap = gap
	g.pulseT0 = now
	n := uint64(g.curPulse.Extent / gap)
	if g.curPulse.Extent%gap != 0 {
		n++
	}
	g.pulseN = n
	g.pulseActive = true
	if g.out.TxTime(g.packetSize) < gap && g.out.CanPace(now) {
		g.pacedUsed = true
		g.emitBatch()
		return
	}
	g.emit()
}

// emitEvent is the scheduled entry point of the per-packet emission chain;
// the inline call from beginPulse bypasses it so eventsFired counts kernel
// events only.
//
//pdos:hotpath
func (g *Generator) emitEvent() {
	if g.stopped {
		return
	}
	g.eventsFired++ //pdos:counter emission-grid inc — one reference grid point consumed by a fired event
	g.emit()
}

// batchEvent is the scheduled entry point of the batched emission chain. It
// re-checks CanPace so that any interleaved traffic on the link demotes the
// rest of the pulse to the per-packet chain — emission instants stay on the
// same grid either way, so the grid accounting is unaffected.
//
//pdos:hotpath
func (g *Generator) batchEvent() {
	if g.stopped {
		return
	}
	g.eventsFired++ //pdos:counter emission-grid inc — a batch event covers one grid point too
	if !g.out.CanPace(g.k.Now()) {
		g.emit()
		return
	}
	g.emitBatch()
}

// emit sends one attack packet and chains the next emission, spacing packets
// at the pulse's line rate until the pulse window closes.
//
//pdos:hotpath
func (g *Generator) emit() {
	now := g.k.Now()
	if now >= g.curEnd {
		g.finishPulse()
		return
	}
	g.stats.PacketsSent++
	g.stats.BytesSent += uint64(g.packetSize)
	p := g.out.NewPacket()
	p.Flow = g.flow
	p.Class = netem.ClassAttack
	p.Dir = netem.DirForward
	p.Size = g.packetSize
	p.SentAt = now
	g.out.Send(p)
	g.next = g.k.AfterTicks(g.gap, g.emitFn)
}

// emitBatch commits up to pacedBatch emissions at their exact grid instants
// in one kernel event, then schedules the next batch at the following grid
// point. The loop stops at the first grid point at or past the pulse close,
// so the chain's final event fires at pulseT0 + pulseN·gap — the identical
// instant (and schedule stamp) at which the per-packet chain's closing
// event runs finishPulse.
//
//pdos:hotpath
func (g *Generator) emitBatch() {
	now := g.k.Now()
	if now >= g.curEnd {
		g.finishPulse()
		return
	}
	t := now
	for i := 0; i < pacedBatch && t < g.curEnd; i++ {
		p := g.out.NewPacket()
		p.Flow = g.flow
		p.Class = netem.ClassAttack
		p.Dir = netem.DirForward
		p.Size = g.packetSize
		p.SentAt = t
		g.out.SendPaced(p, t, g.gap)
		t += g.gap
	}
	g.next = g.k.AfterTicks(t-now, g.batchFn)
}

// finishPulse folds the completed pulse's reference-grid totals and
// schedules the next pulse after the inter-pulse gap.
//
//pdos:hotpath
//pdos:counter emission-grid fold — completed pulses' grid totals folded into gridDone
func (g *Generator) finishPulse() {
	g.gridDone += g.pulseN
	g.pulseActive = false
	g.pulseIdx++
	if g.pulseIdx >= len(g.train.Pulses) {
		return
	}
	startNext := g.curEnd.Add(g.curPulse.Space)
	delta := startNext.Sub(g.k.Now())
	g.next = g.k.AfterTicks(delta, g.beginPulse)
}
