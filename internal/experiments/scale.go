package experiments

// Per-flow footprint estimates for pdos-serve's MaxHeapBytes guard, in
// bytes. A packet flow's build is small, about 3.2 KB (its TCP endpoints,
// access links and routes); queues grow on demand, so the heap then grows
// with the run's in-flight packets and events. Sampled after every timeline
// slice (Go 1.24, amd64), the peak heap grows by about 10.0 KB per flow on
// the benchmark's attack-10k document (1 s warm-up, 1 s measured; 1,000 and
// 10,000 flows) and by 14.1 KB per flow on the same shape with 8 s + 20 s
// windows (500 and 2,000 flows). packetFlowFootprint, 32 KiB, is about
// twice the larger slope, a margin for GC timing and for longer runs. A
// fluid flow is only a population count inside its group's aggregate, so
// its marginal footprint is nominal. The constant base covers the runtime
// and the shared topology, which measured under 1 MiB at those populations.
const (
	packetFlowFootprint = 32 << 10
	fluidFlowFootprint  = 16
	sweepBaseFootprint  = 64 << 20
)

// ProjectedHeapBytes estimates the peak heap of a run with the given
// packet-accurate and fluid-aggregated flow populations, for pdos-serve's
// MaxHeapBytes admission guard.
func ProjectedHeapBytes(packet, fluid int) uint64 {
	return uint64(packet)*packetFlowFootprint + uint64(fluid)*fluidFlowFootprint + sweepBaseFootprint
}
