package netem

import (
	"testing"

	"pulsedos/internal/rng"
	"pulsedos/internal/sim"
)

// testLinkForwardAllocs asserts that once the packet pool, event free list,
// and queue storage are warm, forwarding a packet end to end — pool get,
// enqueue, transmit, propagate, deliver, release — allocates nothing.
func testLinkForwardAllocs(t *testing.T, q Queue) {
	t.Helper()
	k := sim.New()
	sink := &Sink{}
	l, err := NewLink(k, "alloc", 1e9, sim.Microsecond, q, sink)
	if err != nil {
		t.Fatal(err)
	}
	l.SetPool(NewPacketPool())
	send := func() {
		p := l.NewPacket()
		p.Flow = 1
		p.Class = ClassData
		p.Dir = DirForward
		p.Size = 1000
		l.Send(p)
	}
	for i := 0; i < 128; i++ {
		send()
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		send()
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("per-packet forwarding allocates %.2f/op, want 0", allocs)
	}
	if sink.Packets == 0 {
		t.Fatal("no packets delivered")
	}
}

func TestLinkForwardAllocsDropTail(t *testing.T) {
	testLinkForwardAllocs(t, NewDropTail(64))
}

func TestLinkForwardAllocsRED(t *testing.T) {
	testLinkForwardAllocs(t, NewRED(DefaultREDConfig(64), rng.New(1), 1e9))
}

// TestRouterForwardAllocs covers the routed hop: Router.Receive looks the
// packet's flow up in its dense table (or falls back to the default route,
// as attack traffic's negative id does), then Link.Send carries it to
// delivery, all without allocating.
func TestRouterForwardAllocs(t *testing.T) {
	k := sim.New()
	routed, dflt := &Sink{}, &Sink{}
	pool := NewPacketPool()
	lr, err := NewLink(k, "routed", 1e9, sim.Microsecond, NewDropTail(64), routed)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := NewLink(k, "default", 1e9, sim.Microsecond, NewDropTail(64), dflt)
	if err != nil {
		t.Fatal(err)
	}
	lr.SetPool(pool)
	ld.SetPool(pool)
	r := NewRouter("R")
	for f := 0; f < 1024; f++ {
		r.AddRoute(f, DirForward, lr)
	}
	r.SetDefault(DirForward, ld)
	send := func(flow int) {
		p := lr.NewPacket()
		p.Flow = flow
		p.Class = ClassData
		p.Dir = DirForward
		p.Size = 1000
		r.Receive(p)
	}
	hop := func() {
		send(517)
		send(-1)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 128; i++ {
		hop()
	}
	if allocs := testing.AllocsPerRun(200, hop); allocs != 0 {
		t.Errorf("routed forwarding allocates %.2f/op, want 0", allocs)
	}
	if routed.Packets == 0 || dflt.Packets != routed.Packets || r.Unrouted() != 0 {
		t.Fatalf("routed %d, default %d, unrouted %d", routed.Packets, dflt.Packets, r.Unrouted())
	}
}

// TestLinkDropAllocs covers the saturated path: packets rejected by the
// queue discipline are released straight back to the pool without
// allocating.
func TestLinkDropAllocs(t *testing.T) {
	k := sim.New()
	sink := &Sink{}
	l, err := NewLink(k, "drop", 1e9, 0, NewDropTail(4), sink)
	if err != nil {
		t.Fatal(err)
	}
	l.SetPool(NewPacketPool())
	burst := func() {
		// 16 back-to-back sends against a 4-slot queue: most are dropped
		// and must recycle through the pool.
		for i := 0; i < 16; i++ {
			p := l.NewPacket()
			p.Flow = 1
			p.Class = ClassData
			p.Dir = DirForward
			p.Size = 1000
			l.Send(p)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	burst()
	allocs := testing.AllocsPerRun(100, burst)
	if allocs != 0 {
		t.Errorf("saturated drop path allocates %.2f/burst, want 0", allocs)
	}
	if l.Stats().Drops == 0 {
		t.Fatal("queue never dropped")
	}
}

// TestPoolRecycles asserts the pool actually recycles rather than
// allocating fresh packets each send.
func TestPoolRecycles(t *testing.T) {
	k := sim.New()
	sink := &Sink{}
	l, err := NewLink(k, "recycle", 1e9, 0, NewDropTail(64), sink)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPacketPool()
	l.SetPool(pool)
	for round := 0; round < 10; round++ {
		p := l.NewPacket()
		p.Flow = 1
		p.Class = ClassData
		p.Size = 100
		l.Send(p)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	st := pool.Stats()
	if st.News > 2 {
		t.Errorf("pool allocated %d fresh packets over 10 sequential sends, want <= 2", st.News)
	}
	if st.Puts == 0 {
		t.Error("no packets ever returned to the pool")
	}
}
