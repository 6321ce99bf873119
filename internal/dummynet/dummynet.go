// Package dummynet holds the sizing rule of the paper's §4.2 test-bed
// substrate: a physical FreeBSD Dummynet box (Rizzo, CCR 1997) between the
// attackers/legitimate users and the victim, shaping traffic to a 10 Mbps
// bottleneck with 150 ms delay and a RED buffer of B = RTT·R_bottle. The
// test-bed itself is built from the topology graph (internal/topo); this
// package supplies its buffer rule.
package dummynet

import "time"

// Rule of thumb from the paper: the buffer holds a bandwidth-delay product,
// B = RTT × R_bottle, expressed in packets of the given size.
func RuleOfThumbQueueLen(rtt time.Duration, bandwidth float64, packetSize int) int {
	if packetSize <= 0 || bandwidth <= 0 {
		return 1
	}
	b := int(rtt.Seconds() * bandwidth / 8 / float64(packetSize))
	if b < 1 {
		b = 1
	}
	return b
}
