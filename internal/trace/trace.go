// Package trace collects measurements from a running scenario: binned
// traffic-rate time series (the paper's "incoming traffic" signal of Figs. 2
// and 3), per-flow delivery statistics, and event counters. It is the
// pulsedos analogue of ns-2 trace files, except that aggregation happens
// online instead of via post-processing.
package trace

import (
	"sort"

	"pulsedos/internal/netem"
	"pulsedos/internal/sim"
)

// RateSeries bins the byte arrivals observed on a link into fixed-width
// intervals, producing the incoming-traffic signal the paper normalizes and
// PAA-transforms to exhibit quasi-global synchronization. It implements
// netem.Tap; attach it to the bottleneck link.
type RateSeries struct {
	binWidth sim.Time
	start    sim.Time
	bins     []float64 // bytes per bin
}

var _ netem.Tap = (*RateSeries)(nil)

// NewRateSeries creates a series with the given bin width starting at the
// virtual origin. Every packet class is counted.
func NewRateSeries(binWidth sim.Time) *RateSeries {
	return &RateSeries{binWidth: binWidth}
}

// SetStart discards everything before t; arrivals earlier than the start are
// ignored. Use it to trim warm-up transients.
func (rs *RateSeries) SetStart(t sim.Time) { rs.start = t }

// OnArrive implements netem.Tap: count the packet's bytes into its bin.
func (rs *RateSeries) OnArrive(p *netem.Packet, now sim.Time) {
	if now < rs.start || rs.binWidth <= 0 {
		return
	}
	idx := int(now.Sub(rs.start) / rs.binWidth)
	for len(rs.bins) <= idx {
		rs.bins = append(rs.bins, 0)
	}
	rs.bins[idx] += float64(p.Size)
}

// OnDrop implements netem.Tap (no-op: arrivals were already counted).
func (rs *RateSeries) OnDrop(*netem.Packet, sim.Time) {}

// BinWidth reports the series resolution.
func (rs *RateSeries) BinWidth() sim.Time { return rs.binWidth }

// Bytes returns a copy of the per-bin byte counts.
func (rs *RateSeries) Bytes() []float64 {
	out := make([]float64, len(rs.bins))
	copy(out, rs.bins)
	return out
}

// Rates returns the per-bin average rates in bits per second.
func (rs *RateSeries) Rates() []float64 {
	out := make([]float64, len(rs.bins))
	w := rs.binWidth.Seconds()
	if w <= 0 {
		return out
	}
	for i, b := range rs.bins {
		out[i] = b * 8 / w
	}
	return out
}

// DropCounter tallies drops on a link, split by packet class. It implements
// netem.Tap.
type DropCounter struct {
	ByClass map[netem.Class]uint64
	Total   uint64
}

var _ netem.Tap = (*DropCounter)(nil)

// NewDropCounter returns an empty counter.
func NewDropCounter() *DropCounter {
	return &DropCounter{ByClass: make(map[netem.Class]uint64, 3)}
}

// OnArrive implements netem.Tap (no-op).
func (dc *DropCounter) OnArrive(*netem.Packet, sim.Time) {}

// OnDrop implements netem.Tap.
func (dc *DropCounter) OnDrop(p *netem.Packet, _ sim.Time) {
	dc.ByClass[p.Class]++
	dc.Total++
}

// FlowAccount accumulates goodput per flow. TCP receivers report in-order
// delivered segments to it, giving the Ψ_attack / Ψ_normal numerators of the
// paper's throughput-degradation metric Γ.
//
// Environments number their victim flows densely from 0, so the per-packet
// Deliver path indexes a flat slice; flows outside the dense range (negative
// ids, sparse numbering) spill to a lazily created map.
type FlowAccount struct {
	start    sim.Time
	dense    []uint64       // flow → bytes, for 0 <= flow < len(dense)
	overflow map[int]uint64 // everything else
}

// maxDenseFlow bounds how far Deliver will grow the dense slice for an
// unexpected large flow id before treating it as sparse.
const maxDenseFlow = 1 << 20

// NewFlowAccount returns an empty account.
func NewFlowAccount() *FlowAccount {
	return &FlowAccount{}
}

// NewFlowAccountSized returns an account with the dense range presized for
// flows 0..n-1, so a many-flow run never grows it on the delivery path.
func NewFlowAccountSized(n int) *FlowAccount {
	if n < 0 {
		n = 0
	}
	return &FlowAccount{dense: make([]uint64, n)}
}

// SetStart discards deliveries before t (warm-up trimming).
func (fa *FlowAccount) SetStart(t sim.Time) { fa.start = t }

// Deliver credits bytes of in-order payload to the flow at the given instant.
func (fa *FlowAccount) Deliver(flow int, bytes int, now sim.Time) {
	if now < fa.start {
		return
	}
	if uint(flow) < uint(len(fa.dense)) {
		fa.dense[flow] += uint64(bytes)
		return
	}
	fa.deliverSlow(flow, bytes)
}

func (fa *FlowAccount) deliverSlow(flow, bytes int) {
	if flow >= 0 && flow < maxDenseFlow {
		grown := make([]uint64, flow+1)
		copy(grown, fa.dense)
		fa.dense = grown
		fa.dense[flow] += uint64(bytes)
		return
	}
	if fa.overflow == nil {
		fa.overflow = make(map[int]uint64)
	}
	fa.overflow[flow] += uint64(bytes)
}

// Flow reports bytes delivered for one flow.
func (fa *FlowAccount) Flow(flow int) uint64 {
	if uint(flow) < uint(len(fa.dense)) {
		return fa.dense[flow]
	}
	return fa.overflow[flow]
}

// Total reports bytes delivered across all flows.
func (fa *FlowAccount) Total() uint64 {
	var sum uint64
	for _, b := range fa.dense {
		sum += b
	}
	for _, b := range fa.overflow { //pdos:nondeterministic-ok — integer sum; order cannot change the total
		sum += b
	}
	return sum
}

// PerFlow returns the per-flow deliveries as a map holding every flow that
// received bytes (a presized dense range contributes no zero entries).
func (fa *FlowAccount) PerFlow() map[int]uint64 {
	out := make(map[int]uint64, len(fa.overflow)+16)
	for flow, b := range fa.dense {
		if b > 0 {
			out[flow] = b
		}
	}
	for flow, b := range fa.overflow { //pdos:nondeterministic-ok — keys land in a map; iteration order never escapes
		out[flow] = b
	}
	return out
}

// JitterMeter estimates per-flow inter-arrival jitter of data packets
// crossing a link, using the RFC 3550 running estimator
// J ← J + (|D| - J)/16 over consecutive inter-arrival deviations. The paper
// (§2.3) names increased jitter, alongside throughput loss, as the
// quasi-global synchronization's impact on TCP performance. It observes
// departures, so it is a netem.DepartureTap; the link keeps its fused
// schedule and reports each departure from its chain event.
type JitterMeter struct {
	start   sim.Time
	last    map[int]sim.Time // flow → previous arrival
	gap     map[int]sim.Time // flow → previous inter-arrival gap
	jitter  map[int]float64  // flow → running jitter, seconds
	samples map[int]int      // flow → deviation samples folded in
}

var _ netem.DepartureTap = (*JitterMeter)(nil)

// NewJitterMeter creates a meter of data-packet departures.
func NewJitterMeter() *JitterMeter {
	return &JitterMeter{
		last:    make(map[int]sim.Time),
		gap:     make(map[int]sim.Time),
		jitter:  make(map[int]float64),
		samples: make(map[int]int),
	}
}

// SetStart discards arrivals before t.
func (jm *JitterMeter) SetStart(t sim.Time) { jm.start = t }

// OnArrive implements netem.Tap (no-op: jitter is measured on departures,
// after queueing).
func (jm *JitterMeter) OnArrive(*netem.Packet, sim.Time) {}

// OnDrop implements netem.Tap (no-op).
func (jm *JitterMeter) OnDrop(*netem.Packet, sim.Time) {}

// OnDepart implements netem.DepartureTap: fold one inter-arrival deviation.
func (jm *JitterMeter) OnDepart(p *netem.Packet, now sim.Time) {
	if now < jm.start || p.Class != netem.ClassData {
		return
	}
	prev, ok := jm.last[p.Flow]
	jm.last[p.Flow] = now
	if !ok {
		return
	}
	gap := now.Sub(prev)
	prevGap, ok := jm.gap[p.Flow]
	jm.gap[p.Flow] = gap
	if !ok {
		return
	}
	dev := (gap - prevGap).Seconds()
	if dev < 0 {
		dev = -dev
	}
	jm.jitter[p.Flow] += (dev - jm.jitter[p.Flow]) / 16
	jm.samples[p.Flow]++
}

// Flow reports a flow's running jitter estimate in seconds (0 before three
// arrivals).
func (jm *JitterMeter) Flow(flow int) float64 { return jm.jitter[flow] }

// Mean reports the average jitter across flows that produced samples. Flows
// are folded in ascending id order: float addition is not associative, so a
// map-order sum would differ in the last ulp from run to run — enough to
// break the byte-identity the content-addressed run cache stores under.
func (jm *JitterMeter) Mean() float64 {
	flows := make([]int, 0, len(jm.jitter))
	for flow := range jm.jitter { //pdos:nondeterministic-ok — keys sorted before the order-sensitive sum below
		flows = append(flows, flow)
	}
	sort.Ints(flows)
	sum, n := 0.0, 0
	for _, flow := range flows {
		if jm.samples[flow] > 0 {
			sum += jm.jitter[flow]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
