package netem

import (
	"testing"

	"pulsedos/internal/sim"
)

// TestPackUnpackRoundTrip pins the boundary payload encoding over the field
// extremes the topology actually produces: negative attack flow ids,
// retransmission flags, and full-width timestamps.
func TestPackUnpackRoundTrip(t *testing.T) {
	cases := []Packet{
		{Flow: 0, Class: ClassData, Dir: DirForward, Size: 1500, Seq: 12345, Ack: 0, SentAt: 17 * sim.Second},
		{Flow: 49999, Class: ClassAck, Dir: DirReverse, Size: 40, Seq: 0, Ack: 1 << 40, EchoSentAt: 3 * sim.Millisecond},
		{Flow: -1, Class: ClassAttack, Dir: DirForward, Size: 1000},
		{Flow: 7, Class: ClassData, Dir: DirForward, Size: 65535, Retx: true, SentAt: 1, EchoSentAt: 2},
	}
	for i, want := range cases {
		var w sim.Payload
		packPacket(&want, &w)
		var got Packet
		unpackPacket(&w, &got)
		if got != want {
			t.Errorf("case %d: round trip %+v, want %+v", i, got, want)
		}
	}
}

// TestCrossShardLinkDelivery runs one link whose propagation crosses a shard
// boundary and checks the delivery lands at exactly the serial instant, via
// the destination shard's pool.
func TestCrossShardLinkDelivery(t *testing.T) {
	e := sim.NewEngine(2)
	defer e.Close()
	src, dst := e.Shard(0), e.Shard(1)

	dstPool := NewPacketPool()
	var gotWhen sim.Time
	var got Packet
	sinkNode := NodeFunc(func(p *Packet) {
		gotWhen = dst.Kernel().Now()
		got = *p
		p.Release()
	})
	inbox := NewInbox(dstPool, sinkNode)
	port := dst.RegisterPort(inbox)

	const delay = 5 * sim.Millisecond
	ob, err := e.NewOutbox(src, dst, port, delay)
	if err != nil {
		t.Fatal(err)
	}

	srcPool := NewPacketPool()
	l, err := NewLink(src.Kernel(), "cross", 8e6, delay, NewDropTail(10), NodeFunc(func(*Packet) {
		t.Error("local destination reached on a remoted link")
	}))
	if err != nil {
		t.Fatal(err)
	}
	l.SetPool(srcPool)
	l.SetRemote(NewDemuxRemote(nil, ob))

	p := l.NewPacket()
	p.Flow = 3
	p.Class = ClassData
	p.Dir = DirForward
	p.Size = 1000 // 1ms serialization at 8 Mbps
	l.Send(p)

	if err := e.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	wantWhen := sim.Time(1*sim.Millisecond + delay)
	if gotWhen != wantWhen {
		t.Errorf("delivered at %d, want %d", gotWhen, wantWhen)
	}
	if got.Flow != 3 || got.Class != ClassData || got.Size != 1000 {
		t.Errorf("delivered packet %+v lost fields", got)
	}
	// The packet must have round-tripped through both pools: released on the
	// source shard, re-materialized on the destination shard.
	if s := srcPool.Stats(); s.Puts != 1 {
		t.Errorf("source pool puts = %d, want 1", s.Puts)
	}
	if s := dstPool.Stats(); s.Gets != 1 || s.Puts != 1 {
		t.Errorf("dest pool gets/puts = %d/%d, want 1/1", s.Gets, s.Puts)
	}
}
