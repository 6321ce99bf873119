package netem

import (
	"pulsedos/internal/sim"
)

// This file is the netem side of the conservative parallel engine
// (internal/sim/parallel.go): when a topology is sharded, a link whose
// propagation hop crosses a shard boundary hands its packets to a
// DemuxRemote instead of scheduling a local delivery event. The packet is
// packed into a fixed-size sim.Payload, released to the source shard's pool,
// carried over the engine's boundary-event machinery, and re-materialized
// from the destination shard's pool by an Inbox — so pools stay strictly
// shard-local and the 0 allocs/packet steady state survives sharding.
//
// The remote sits behind the link's delivery step, so a portal link runs
// either schedule: the fused one hands a packet over when its serialization
// starts, the golden one at tx-done, and both send it for tx-done+delay
// stamped with tx-done — the (when, at) key the local delivery event would
// carry. The link's propagation delay is the lookahead the edge declares, so
// the delivery lands at or beyond the next window boundary by construction.

// packPacket encodes a packet into a boundary payload. The layout is private
// to this file; unpackPacket is its inverse.
//
//pdos:hotpath
func packPacket(p *Packet, w *sim.Payload) {
	w[0] = uint64(int64(p.Flow))
	flags := uint64(p.Class) | uint64(p.Dir)<<8
	if p.Retx {
		flags |= 1 << 16
	}
	w[1] = flags | uint64(uint32(p.Size))<<32
	w[2] = uint64(p.Seq)
	w[3] = uint64(p.Ack)
	w[4] = uint64(p.SentAt)
	w[5] = uint64(p.EchoSentAt)
}

// unpackPacket decodes a boundary payload into a packet (leaving its pool
// binding untouched).
//
//pdos:hotpath
func unpackPacket(w *sim.Payload, p *Packet) {
	p.Flow = int(int64(w[0]))
	p.Class = Class(w[1])
	p.Dir = Dir(w[1] >> 8)
	p.Retx = w[1]&(1<<16) != 0
	p.Size = int(uint32(w[1] >> 32))
	p.Seq = int64(w[2])
	p.Ack = int64(w[3])
	p.SentAt = sim.Time(w[4])
	p.EchoSentAt = sim.Time(w[5])
}

// DemuxRemote routes a link's packets whose propagation crosses a shard
// boundary, fanning them out by flow id. A shared link — the bottleneck, one
// link carrying every flow while the flows' endpoints are spread over all
// shards — gets a table; an access link whose far end lives on another
// shard gets none, and every packet misses the empty table and takes the
// default edge. A nil entry (or a flow outside the table, e.g. the attack
// generator's negative ids, when deflt is nil) schedules the delivery on the
// link's own kernel with the same (when, at) key, preserving serial
// behaviour for flows homed on the link's own shard.
type DemuxRemote struct {
	byFlow []*sim.Outbox // dense, indexed by flow id
	deflt  *sim.Outbox   // out-of-range flows; nil = deliver locally
}

// NewDemuxRemote returns a demuxing remote over a dense flow table; a nil
// table sends every packet to deflt.
func NewDemuxRemote(byFlow []*sim.Outbox, deflt *sim.Outbox) *DemuxRemote {
	return &DemuxRemote{byFlow: byFlow, deflt: deflt}
}

// Transfer takes ownership of a packet due at `when` with schedule stamp
// `at` (at ≤ when): it packs and releases the packet and forwards it over
// its boundary edge, or schedules it on the link's own kernel.
//
//pdos:hotpath
func (r *DemuxRemote) Transfer(l *Link, when, at sim.Time, p *Packet) {
	out := r.deflt
	if p.Flow >= 0 && p.Flow < len(r.byFlow) {
		out = r.byFlow[p.Flow]
	}
	if out == nil {
		//pdos:vtime-ok — Link.deliver passes when = at + the link's delay (MaxTime-guarded), so at ≤ when
		l.k.AtArgStamped(when, at, (*deliverHop)(l), p)
		return
	}
	var w sim.Payload
	packPacket(p, &w)
	p.Release()
	out.Send(when, at, &w)
}

// Inbox is the receiving side of a boundary edge: a sim.Port that
// re-materializes packets from the destination shard's pool and injects
// their delivery to a destination node. Register it on the destination shard
// and point the source side's DemuxRemote at the resulting port.
type Inbox struct {
	pool *PacketPool
	dst  Node
}

var _ sim.Port = (*Inbox)(nil)

// inboxHop is the inbox as the handler of the deliveries it injects.
type inboxHop Inbox

// Fire implements sim.Handler.
func (h *inboxHop) Fire(arg any) { h.dst.Receive(arg.(*Packet)) }

// NewInbox builds an inbox delivering to dst, drawing packets from pool (a
// nil pool falls back to heap allocation).
func NewInbox(pool *PacketPool, dst Node) *Inbox {
	return &Inbox{pool: pool, dst: dst}
}

// Inject implements sim.Port: decode the packet and schedule its delivery
// with the schedule stamp its link's delivery step gave it.
//
//pdos:hotpath
func (in *Inbox) Inject(k *sim.Kernel, when, at sim.Time, w *sim.Payload) {
	var p *Packet
	if in.pool != nil {
		p = in.pool.Get()
	} else {
		p = &Packet{}
	}
	unpackPacket(w, p)
	//pdos:vtime-ok — the stamps are Link.deliver's, when = at + the link's delay (MaxTime-guarded), so at ≤ when
	if _, err := k.AtArgStamped(when, at, (*inboxHop)(in), p); err != nil {
		// The engine guarantees when >= now at every barrier; reaching this
		// indicates a wiring bug, which must not fail silently.
		panic("netem: boundary injection in the past: " + err.Error())
	}
}
