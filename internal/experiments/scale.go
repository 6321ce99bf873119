package experiments

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
