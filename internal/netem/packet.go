// Package netem is the network substrate of pulsedos: packets, simplex links
// with finite bandwidth and propagation delay, queue disciplines (drop-tail
// and RED with the gentle extension), and routers. Together with the
// internal/sim kernel it plays the role ns-2 plays for the paper: a
// deterministic packet-level network model through which TCP flows and attack
// pulse trains contend for a bottleneck.
package netem

import "pulsedos/internal/sim"

// Class identifies what a packet carries. Queue disciplines are agnostic to
// it; routers and monitors use it for demultiplexing and accounting.
type Class uint8

// Packet classes.
const (
	ClassData   Class = iota + 1 // TCP data segment
	ClassAck                     // TCP acknowledgment
	ClassAttack                  // attack pulse traffic
)

// String implements fmt.Stringer for diagnostics.
func (c Class) String() string {
	switch c {
	case ClassData:
		return "data"
	case ClassAck:
		return "ack"
	case ClassAttack:
		return "attack"
	default:
		return "unknown"
	}
}

// Dir is the direction a packet travels through the topology. Forward is
// sender→receiver (data and attack pulses); Reverse is receiver→sender
// (acknowledgments).
type Dir uint8

// Packet directions.
const (
	DirForward Dir = iota + 1
	DirReverse
)

// String implements fmt.Stringer for diagnostics.
func (d Dir) String() string {
	if d == DirForward {
		return "fwd"
	}
	return "rev"
}

// Packet is the unit of transmission. TCP sequence numbers are counted in
// segments rather than bytes: every data packet carries exactly one MSS of
// payload, which matches how ns-2's one-way TCP agents are modelled and how
// the paper's analysis counts packets.
//
// The struct is 64 bytes, one cache line of its size class: the word-sized
// fields come first and the byte-sized ones share the last word, so the
// router's Dir and Flow loads and the link's Size load touch one line
// (DESIGN.md §7). A byte-sized field between word-sized ones would be
// padded to a word and push the struct to the 80-byte size class.
type Packet struct {
	Flow int // flow identifier; attack generators use negative ids
	Size int // bytes on the wire, headers included

	Seq int64 // data: segment sequence number (0-based)
	Ack int64 // ack: next expected segment (cumulative)

	// SentAt is stamped by the TCP sender when the segment leaves; the
	// receiver echoes it into EchoSentAt on the corresponding ACK so the
	// sender can take an RTT sample without keeping a retransmission map.
	SentAt     sim.Time
	EchoSentAt sim.Time

	// pool, when non-nil, is the free list this packet returns to on
	// Release. Packets built as plain literals carry no pool and Release is
	// a no-op for them.
	pool *PacketPool

	// asserts is the pdosassert ownership state: zero-size in normal builds,
	// double-release tracking under -tags pdosassert (see assert.go). A
	// zero-size last field would be padded, so it sits before the bytes.
	asserts packetAsserts

	Class Class // data / ack / attack
	Dir   Dir   // forward (data) or reverse (ack)

	// Retx marks retransmitted segments so Karn's algorithm can refuse RTT
	// samples from echoes of ambiguous segments.
	Retx bool
}
