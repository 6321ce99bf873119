package tcp

import (
	"fmt"
	"math"

	"pulsedos/internal/netem"
	"pulsedos/internal/rng"
	"pulsedos/internal/sim"
	"pulsedos/internal/trace"
)

// Per-flow state flags packed into flowHot.flags.
const (
	flagStarted uint8 = 1 << iota
	flagClosed
	flagDone
	flagInRecovery
	flagHadLoss
	flagRTTSampled  // the RFC 6298 estimator has folded at least one sample
	flagLimited     // finite transfer: FlowTable.limit[i] caps the segment budget
	flagRTOEnrolled // slot sits in an RTO-wheel bucket (rto.go)
)

// flowHot is the per-flow state touched on every ACK and every send, packed
// into exactly one 64-byte cache line so the per-event working set of a
// million-flow population stays cache-resident. Quantities that fit narrower
// ranges are narrowed:
//
//   - Sequence counters are uint32 segment indices. At MSS=1000 that caps a
//     single flow at ~4.3 TB of payload before wraparound — far beyond any
//     scenario this simulator models (a 1 Mbps flow needs ~1 virtual year to
//     get there). Packet headers stay int64; conversion happens at the table
//     boundary.
//   - dupAcks saturates at 65535 instead of counting unboundedly; only the
//     comparison against DupThresh (single digits) is ever observed.
//   - rtoBackoff counts consecutive timeouts and is clamped to 12 doublings.
//
// The estimator floats (cwnd, ssthresh, srtt, rttvar) stay float64: the
// congestion-avoidance increment a/W and the RTT fold are numerically
// sensitive and frozen by the cross-build equivalence contract.
type flowHot struct {
	cwnd     float64 // congestion window, segments
	ssthresh float64 // slow-start threshold, segments
	srtt     float64 // RFC 6298 smoothed RTT, seconds
	rttvar   float64 // RFC 6298 RTT variance, seconds

	rtoBase     sim.Time // clamped srtt + 4·rttvar
	rtoDeadline sim.Time // current timeout target; 0 = disarmed

	hiAck   uint32 // all segments < hiAck are acknowledged
	nextSeq uint32 // next segment to put on the wire
	maxSent uint32 // highest segment ever sent + 1 (for Retx marking)

	dupAcks    uint16 // duplicate-ACK run length (saturating)
	rtoBackoff uint8  // consecutive timeouts; RTO doubles per timeout
	flags      uint8
}

// FlowTable owns the per-flow TCP state that is touched on every packet.
// The hot column is an array of 64-byte flowHot records — one cache line per
// flow — while rarely touched quantities (recovery points, finite-transfer
// budgets, counters, the RTO-wheel links, and the Sender/Receiver wiring
// structs) live in separate cold columns. A million-flow environment walks
// contiguous memory on its ACK path instead of chasing a million individually
// allocated connection objects, and the whole population costs a handful of
// allocations at build time rather than several per flow.
//
// The table also owns the Sender and Receiver structs themselves (links,
// callbacks), handed out as pointers into two contiguous slices. Slots are
// indexed 0..n-1 and are distinct from flow ids: single-connection helpers
// like NewSender wrap a one-slot table with an arbitrary flow id.
//
// The table also owns the epoch-batched RTO wheel (rto.go): instead of one
// pending kernel timer per flow, due deadlines are bucketed by coarse epoch
// and a single self-chaining heartbeat per table walks the due bucket,
// keeping pending kernel timers O(buckets) instead of O(flows).
//
// Ownership rule: the environment that builds the table owns it for the
// lifetime of the simulation; Senders and Receivers are views into it and
// never outlive it. The table is single-goroutine, like the kernel.
type FlowTable struct {
	k   *sim.Kernel
	cfg Config

	// RTO bounds derived from cfg once (sim.Time, not time.Duration).
	rtoMin, rtoMax sim.Time

	hot []flowHot

	// Cold columns: touched on loss events, finite-transfer bookkeeping, or
	// wheel maintenance — not on the common ACK path.
	recoverSeq []uint32 // recovery point: recovery ends when hiAck >= recoverSeq
	limit      []int64  // finite-transfer segment budget (valid when flagLimited)
	stats      []SenderStats

	// RTO wheel (rto.go): per-slot doubly linked bucket membership plus the
	// bucket ring. rtoEpoch records which epoch a slot was enrolled under.
	rtoNext   []int32
	rtoPrev   []int32
	rtoEpoch  []uint32
	rtoBucket []int32 // epoch & rtoMask → head slot, -1 when empty
	rtoMask   uint32
	rtoLive   int      // slots currently enrolled in a bucket
	tickAt    sim.Time // next heartbeat instant; 0 = chain stopped
	tickFires uint64   // heartbeat events fired (bookkeeping, not model events)

	senders []Sender
	recvs   []Receiver
}

// NewFlowTable allocates state for n flows sharing one configuration. Slots
// are inert until bound with BindSender / BindReceiver. The table is pre-sized
// from n: nothing on the per-packet path grows any of its columns.
func NewFlowTable(k *sim.Kernel, cfg Config, n int) (*FlowTable, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if k == nil {
		return nil, fmt.Errorf("tcp: flow table: nil kernel")
	}
	if n < 1 || n > math.MaxInt32 {
		return nil, fmt.Errorf("tcp: flow table needs 1..%d slots, got %d", math.MaxInt32, n)
	}
	t := &FlowTable{
		k:          k,
		cfg:        cfg,
		rtoMin:     sim.FromDuration(cfg.RTOMin),
		rtoMax:     sim.FromDuration(cfg.RTOMax),
		hot:        make([]flowHot, n),
		recoverSeq: make([]uint32, n),
		limit:      make([]int64, n),
		stats:      make([]SenderStats, n),
		rtoNext:    make([]int32, n),
		rtoPrev:    make([]int32, n),
		rtoEpoch:   make([]uint32, n),
		senders:    make([]Sender, n),
		recvs:      make([]Receiver, n),
	}
	t.rtoBucket = make([]int32, t.wheelSize())
	t.rtoMask = uint32(len(t.rtoBucket) - 1)
	for i := range t.rtoBucket {
		t.rtoBucket[i] = -1
	}
	initial := t.rtoInitial()
	for i := range t.hot {
		h := &t.hot[i]
		h.cwnd = cfg.InitialCwnd
		h.ssthresh = cfg.InitialSSThresh
		h.rtoBase = initial
	}
	return t, nil
}

// Len reports the number of slots.
func (t *FlowTable) Len() int { return len(t.senders) }

// Config reports the shared connection configuration.
func (t *FlowTable) Config() Config { return t.cfg }

// Sender returns the sender bound at slot i (nil Link fields if unbound).
func (t *FlowTable) Sender(i int) *Sender { return &t.senders[i] }

// Receiver returns the receiver bound at slot i.
func (t *FlowTable) Receiver(i int) *Receiver { return &t.recvs[i] }

// TimerTicks reports how many RTO-wheel heartbeat events this table has
// fired. Heartbeats are engine bookkeeping, not model events: a sharded run
// splits one population across several tables, each with its own heartbeat
// chain, so raw kernel Processed counts diverge between serial and sharded
// builds by exactly this amount. topo.Environment.Processed subtracts it.
func (t *FlowTable) TimerTicks() uint64 { return t.tickFires }

// BindSender wires slot i as a bulk TCP source for the given flow id whose
// first hop is out. The connection does not transmit until Start is called.
func (t *FlowTable) BindSender(i, flow int, out *netem.Link) (*Sender, error) {
	if out == nil {
		return nil, fmt.Errorf("tcp: sender flow %d: nil link", flow)
	}
	s := &t.senders[i]
	if s.out != nil {
		return nil, fmt.Errorf("tcp: sender slot %d already bound", i)
	}
	s.k = t.k
	s.t = t
	s.i = i
	s.flow = flow
	s.out = out
	s.timeoutFn = s.onRTOEvent
	if t.cfg.RTOJitter > 0 {
		// Deterministic per-flow stream so scenario seeds stay in control.
		s.rtoRand = rng.New(0x9e3779b97f4a7c15 ^ uint64(flow))
	}
	return s, nil
}

// BindReceiver wires slot i as the TCP sink for the given flow whose ACKs
// travel via out. account may be nil when goodput accounting is not needed.
func (t *FlowTable) BindReceiver(i, flow int, out *netem.Link, account *trace.FlowAccount) (*Receiver, error) {
	r := &t.recvs[i]
	if r.out != nil {
		return nil, fmt.Errorf("tcp: receiver slot %d already bound", i)
	}
	if err := initReceiver(r, t.k, t.cfg, flow, out, account); err != nil {
		return nil, err
	}
	return r, nil
}

func (t *FlowTable) has(i int, f uint8) bool { return t.hot[i].flags&f != 0 }
func (t *FlowTable) set(i int, f uint8)      { t.hot[i].flags |= f }
func (t *FlowTable) clear(i int, f uint8)    { t.hot[i].flags &^= f }
