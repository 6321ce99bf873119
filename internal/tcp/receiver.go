package tcp

import (
	"fmt"

	"pulsedos/internal/netem"
	"pulsedos/internal/sim"
	"pulsedos/internal/trace"
)

// ReceiverStats aggregates sink-side counters.
type ReceiverStats struct {
	SegmentsReceived uint64 // all data arrivals, incl. duplicates
	Duplicates       uint64 // arrivals below the in-order edge
	OutOfOrder       uint64 // arrivals buffered above the in-order edge
	AcksSent         uint64
	DelayedAcks      uint64 // ACKs released by the delayed-ack timer
}

// Receiver is the TCP sink: it reassembles in-order delivery, generates
// cumulative ACKs with a configurable delayed-ACK ratio d (the paper's d in
// Eq. 1), and credits goodput to a trace.FlowAccount. It implements
// netem.Node.
//
// Out-of-order reassembly uses a power-of-two ring bitset indexed by
// sequence number instead of a map: the live span above the in-order edge is
// bounded by the sender's window, so a small ring covers it without per-
// segment allocation or hashing. FlowTable packs receivers contiguously.
type Receiver struct {
	k    *sim.Kernel
	cfg  Config
	flow int
	out  *netem.Link // first hop of the reverse (ACK) path

	expected   int64  // next in-order segment not yet received
	oo         []bool // out-of-order ring bitset, indexed by seq & ooMask
	ooMask     int64
	ooCount    int
	sinceAck   int // in-order segments since the last ACK
	delayTimer sim.Timer
	delayFn    func() // prebuilt delayed-ACK callback

	// Echo state for the next ACK: timestamp and retransmission flag of the
	// most recent data arrival.
	echoSentAt sim.Time
	echoRetx   bool

	account *trace.FlowAccount
	stats   ReceiverStats
}

var _ netem.Node = (*Receiver)(nil)

// NewReceiver wires a TCP sink for the given flow whose ACKs travel via out.
// account may be nil when goodput accounting is not needed.
func NewReceiver(k *sim.Kernel, cfg Config, flow int, out *netem.Link, account *trace.FlowAccount) (*Receiver, error) {
	r := &Receiver{}
	if err := initReceiver(r, k, cfg, flow, out, account); err != nil {
		return nil, err
	}
	return r, nil
}

// initReceiver populates a zero Receiver in place, shared by NewReceiver and
// FlowTable.BindReceiver (which hands out slots of a contiguous slice).
func initReceiver(r *Receiver, k *sim.Kernel, cfg Config, flow int, out *netem.Link, account *trace.FlowAccount) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if k == nil || out == nil {
		return fmt.Errorf("tcp: receiver flow %d: nil kernel or link", flow)
	}
	// The out-of-order span is bounded by the sender window; 2x covers
	// limited-transmit slack, and Receive grows the ring if ever exceeded.
	size := int64(64)
	for float64(size) < 2*cfg.MaxWindow {
		size <<= 1
	}
	r.k = k
	r.cfg = cfg
	r.flow = flow
	r.out = out
	r.oo = make([]bool, size)
	r.ooMask = size - 1
	r.account = account
	r.delayFn = r.delayedAckFire
	return nil
}

// Flow reports the receiver's flow identifier.
func (r *Receiver) Flow() int { return r.flow }

// Expected reports the next in-order segment the receiver is waiting for,
// i.e. the cumulative ACK value it would send now.
func (r *Receiver) Expected() int64 { return r.expected }

// Stats returns a snapshot of the receiver counters.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// Receive implements netem.Node: process a data segment and produce ACKs per
// RFC 5681 (immediate dup-ACK on out-of-order data, ACK every d-th in-order
// segment otherwise, delayed-ACK timer as the fallback).
//
//pdos:hotpath
func (r *Receiver) Receive(p *netem.Packet) {
	if p.Class != netem.ClassData || p.Flow != r.flow {
		p.Release()
		return
	}
	r.stats.SegmentsReceived++
	r.echoSentAt = p.SentAt
	r.echoRetx = p.Retx
	seq, size, retx := p.Seq, p.Size, p.Retx
	p.Release() // terminal node: all needed fields are copied above

	switch {
	case seq == r.expected:
		r.advance(size - r.cfg.HeaderSize)
		r.sinceAck++
		// An arrival that fills a hole must be acknowledged immediately so
		// the sender's recovery makes progress.
		if r.ooCount > 0 || retx || r.sinceAck >= r.cfg.AckEvery {
			r.sendAck()
		} else {
			r.armDelayTimer()
		}
	case seq > r.expected:
		r.stats.OutOfOrder++
		if span := seq - r.expected; span >= int64(len(r.oo)) {
			r.growOO(span)
		}
		if !r.oo[seq&r.ooMask] {
			r.oo[seq&r.ooMask] = true
			r.ooCount++
		}
		r.sendAck() // immediate duplicate ACK
	default:
		r.stats.Duplicates++
		r.sendAck() // re-ACK the current edge
	}
}

// advance consumes the just-arrived in-order segment plus any buffered
// continuation, crediting goodput.
//
//pdos:hotpath
func (r *Receiver) advance(payload int) {
	if payload < 0 {
		payload = 0
	}
	r.credit(payload)
	r.expected++
	for r.ooCount > 0 && r.oo[r.expected&r.ooMask] {
		r.oo[r.expected&r.ooMask] = false
		r.ooCount--
		r.credit(r.cfg.MSS)
		r.expected++
	}
}

// growOO resizes the ring to cover a span of `span` segments above the
// in-order edge, remapping the buffered bits to their new slots.
func (r *Receiver) growOO(span int64) {
	size := int64(len(r.oo))
	for size <= span {
		size <<= 1
	}
	old, oldMask := r.oo, r.ooMask
	r.oo = make([]bool, size)
	r.ooMask = size - 1
	// Live bits sit in (expected, expected+len(old)); expected's own slot is
	// clear by construction (advance stops on a clear bit).
	for off := int64(1); off < int64(len(old)); off++ {
		if seq := r.expected + off; old[seq&oldMask] {
			r.oo[seq&r.ooMask] = true
		}
	}
}

//pdos:hotpath
func (r *Receiver) credit(bytes int) {
	if r.account != nil {
		r.account.Deliver(r.flow, bytes, r.k.Now())
	}
}

// sendAck emits a cumulative ACK now and resets delayed-ACK state.
//
//pdos:hotpath
func (r *Receiver) sendAck() {
	r.delayTimer.Cancel()
	r.sinceAck = 0
	r.stats.AcksSent++
	p := r.out.NewPacket()
	p.Flow = r.flow
	p.Class = netem.ClassAck
	p.Dir = netem.DirReverse
	p.Size = r.cfg.HeaderSize
	p.Ack = r.expected
	p.EchoSentAt = r.echoSentAt
	p.Retx = r.echoRetx
	r.out.Send(p)
}

// armDelayTimer schedules the delayed-ACK fallback if not already pending.
//
//pdos:hotpath
func (r *Receiver) armDelayTimer() {
	if r.cfg.AckEvery <= 1 {
		// d = 1 should have ACKed immediately; defensive fallback.
		r.sendAck()
		return
	}
	if r.delayTimer.Active() {
		return
	}
	r.delayTimer = r.k.AfterTicks(sim.FromDuration(r.cfg.AckDelay), r.delayFn)
}

// delayedAckFire is the delayed-ACK timer callback.
//
//pdos:hotpath
func (r *Receiver) delayedAckFire() {
	if r.sinceAck > 0 {
		r.stats.DelayedAcks++
		r.sendAck()
	}
}
