package netem

import (
	"testing"

	"pulsedos/internal/sim"
)

// recorder captures deliveries with their virtual timestamps.
type recorder struct {
	k     *sim.Kernel
	seqs  []int64
	times []sim.Time
}

func (r *recorder) Receive(p *Packet) {
	r.seqs = append(r.seqs, p.Seq)
	r.times = append(r.times, r.k.Now())
}

func TestLinkValidation(t *testing.T) {
	k := sim.New()
	q := NewDropTail(10)
	dst := &Sink{}
	tests := []struct {
		name string
		fn   func() (*Link, error)
	}{
		{"nil kernel", func() (*Link, error) { return NewLink(nil, "l", 1e6, 0, q, dst) }},
		{"zero rate", func() (*Link, error) { return NewLink(k, "l", 0, 0, q, dst) }},
		{"negative rate", func() (*Link, error) { return NewLink(k, "l", -5, 0, q, dst) }},
		{"nil queue", func() (*Link, error) { return NewLink(k, "l", 1e6, 0, nil, dst) }},
		{"nil dst", func() (*Link, error) { return NewLink(k, "l", 1e6, 0, q, nil) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.fn(); err == nil {
				t.Error("want error")
			}
		})
	}
	l, err := NewLink(k, "ok", 1e6, -5, q, dst)
	if err != nil {
		t.Fatal(err)
	}
	if l.Delay() != 0 {
		t.Error("negative delay should clamp to 0")
	}
}

func TestLinkSerializationTiming(t *testing.T) {
	k := sim.New()
	rec := &recorder{k: k}
	// 8 Mbps: a 1000-byte packet serializes in exactly 1 ms. Delay 5 ms.
	l, err := NewLink(k, "l", 8e6, 5*sim.Millisecond, NewDropTail(10), rec)
	if err != nil {
		t.Fatal(err)
	}
	l.Send(dataPacket(0, 1000))
	l.Send(dataPacket(1, 1000))
	l.Send(dataPacket(2, 1000))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{6 * sim.Millisecond, 7 * sim.Millisecond, 8 * sim.Millisecond}
	if len(rec.times) != 3 {
		t.Fatalf("delivered %d packets", len(rec.times))
	}
	for i, w := range want {
		if rec.times[i] != w {
			t.Errorf("packet %d delivered at %v, want %v", i, rec.times[i], w)
		}
		if rec.seqs[i] != int64(i) {
			t.Errorf("packet order: got seq %d at %d", rec.seqs[i], i)
		}
	}
	if got := l.TxTime(1000); got != sim.Millisecond {
		t.Errorf("TxTime = %v", got)
	}
}

func TestLinkPipelining(t *testing.T) {
	// Propagation overlaps with the next packet's serialization: with a long
	// delay, back-to-back packets arrive 1 tx-time apart, not delay apart.
	k := sim.New()
	rec := &recorder{k: k}
	l, err := NewLink(k, "l", 8e6, 100*sim.Millisecond, NewDropTail(10), rec)
	if err != nil {
		t.Fatal(err)
	}
	l.Send(dataPacket(0, 1000))
	l.Send(dataPacket(1, 1000))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if gap := rec.times[1] - rec.times[0]; gap != sim.Millisecond {
		t.Errorf("inter-arrival %v, want 1ms (pipelined)", gap)
	}
}

func TestLinkDropsWhenQueueFull(t *testing.T) {
	k := sim.New()
	rec := &recorder{k: k}
	l, err := NewLink(k, "l", 8e6, 0, NewDropTail(2), rec)
	if err != nil {
		t.Fatal(err)
	}
	// First Send starts transmitting immediately (dequeued), so 2 more fit
	// in the queue; the 4th and 5th drop.
	for i := int64(0); i < 5; i++ {
		l.Send(dataPacket(i, 1000))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Arrivals != 5 {
		t.Errorf("arrivals = %d", st.Arrivals)
	}
	if st.Drops != 2 {
		t.Errorf("drops = %d, want 2", st.Drops)
	}
	if st.Departures != 3 || len(rec.seqs) != 3 {
		t.Errorf("departures = %d, delivered = %d", st.Departures, len(rec.seqs))
	}
	if st.ArrivalBytes != 5000 || st.DropBytes != 2000 || st.DepartureBytes != 3000 {
		t.Errorf("byte counters: %+v", st)
	}
}

// tapRecorder counts tap callbacks.
type tapRecorder struct {
	arrivals, drops, departs int
}

func (tr *tapRecorder) OnArrive(*Packet, sim.Time) { tr.arrivals++ }
func (tr *tapRecorder) OnDrop(*Packet, sim.Time)   { tr.drops++ }
func (tr *tapRecorder) OnDepart(*Packet, sim.Time) { tr.departs++ }

func TestLinkTaps(t *testing.T) {
	k := sim.New()
	l, err := NewLink(k, "l", 8e6, 0, NewDropTail(1), &Sink{})
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapRecorder{}
	l.AddTap(tap)
	l.AddTap(nil) // must be ignored
	for i := int64(0); i < 4; i++ {
		l.Send(dataPacket(i, 100))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tap.arrivals != 4 || tap.drops != 2 || tap.departs != 2 {
		t.Errorf("tap = %+v", tap)
	}
}

func TestLinkAccessors(t *testing.T) {
	k := sim.New()
	q := NewDropTail(5)
	l, err := NewLink(k, "uplink", 2e6, sim.Millisecond, q, &Sink{})
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "uplink" || l.Rate() != 2e6 || l.Delay() != sim.Millisecond {
		t.Errorf("accessors: %s %g %v", l.Name(), l.Rate(), l.Delay())
	}
	if l.Queue() != Queue(q) {
		t.Error("Queue accessor mismatch")
	}
}

func TestRouterRouting(t *testing.T) {
	k := sim.New()
	recA := &recorder{k: k}
	recB := &recorder{k: k}
	sink := &Sink{}
	r := NewRouter("S")
	la, err := NewLink(k, "a", 1e9, 0, NewDropTail(100), recA)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := NewLink(k, "b", 1e9, 0, NewDropTail(100), recB)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewLink(k, "s", 1e9, 0, NewDropTail(100), sink)
	if err != nil {
		t.Fatal(err)
	}
	r.AddRoute(1, DirForward, la)
	r.AddRoute(1, DirReverse, lb)
	r.AddRoute(3, DirForward, la)
	r.AddRoute(3, DirForward, lb) // re-installed: overrides the first
	r.SetDefault(DirForward, ls)

	r.Receive(&Packet{Flow: 1, Dir: DirForward, Size: 10, Seq: 100})
	r.Receive(&Packet{Flow: 1, Dir: DirReverse, Size: 10, Seq: 200})
	r.Receive(&Packet{Flow: 3, Dir: DirForward, Size: 10, Seq: 201})
	r.Receive(&Packet{Flow: 2, Dir: DirForward, Size: 10, Seq: 300})  // hole: default
	r.Receive(&Packet{Flow: -1, Dir: DirForward, Size: 10, Seq: 301}) // attack id: default
	r.Receive(&Packet{Flow: 99, Dir: DirForward, Size: 10, Seq: 302}) // past the table: default
	r.Receive(&Packet{Flow: 2, Dir: DirReverse, Size: 10, Seq: 400})  // no default: unrouted
	r.Receive(&Packet{Flow: 1, Dir: Dir(0), Size: 10, Seq: 401})      // unrouted
	r.Receive(&Packet{Flow: 1, Dir: Dir(7), Size: 10, Seq: 402})      // unrouted
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(recA.seqs) != 1 || recA.seqs[0] != 100 {
		t.Errorf("route fwd: %v", recA.seqs)
	}
	if len(recB.seqs) != 2 || recB.seqs[0] != 200 || recB.seqs[1] != 201 {
		t.Errorf("route rev + re-installed fwd: %v", recB.seqs)
	}
	if sink.Packets != 3 {
		t.Errorf("default route: %d", sink.Packets)
	}
	if r.Unrouted() != 3 {
		t.Errorf("unrouted = %d", r.Unrouted())
	}
	if r.Name() != "S" {
		t.Errorf("Name = %q", r.Name())
	}
	for _, tc := range []struct {
		name    string
		install func()
	}{
		{"negative flow", func() { r.AddRoute(-1, DirForward, la) }},
		{"route for Dir(0)", func() { r.AddRoute(1, Dir(0), la) }},
		{"default for Dir(3)", func() { r.SetDefault(Dir(3), la) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: installed a route Receive can never use", tc.name)
				}
			}()
			tc.install()
		}()
	}
}

func TestSinkCounts(t *testing.T) {
	s := &Sink{}
	s.Receive(dataPacket(0, 100))
	s.Receive(dataPacket(1, 200))
	if s.Packets != 2 || s.Bytes != 300 {
		t.Errorf("sink: %d pkts %d bytes", s.Packets, s.Bytes)
	}
}

func TestClassAndDirStrings(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{ClassData.String(), "data"},
		{ClassAck.String(), "ack"},
		{ClassAttack.String(), "attack"},
		{Class(99).String(), "unknown"},
		{DirForward.String(), "fwd"},
		{DirReverse.String(), "rev"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("String = %q, want %q", tt.got, tt.want)
		}
	}
}

func TestLinkThroughputMatchesRate(t *testing.T) {
	// Saturate a 1 Mbps link for one virtual second: exactly 125 kB depart.
	k := sim.New()
	sink := &Sink{}
	l, err := NewLink(k, "l", 1e6, 0, NewDropTail(1<<20), sink)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ { // 200 kB offered to a 125 kB/s link
		l.Send(dataPacket(i, 1000))
	}
	if err := k.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := sink.Bytes; got != 125000 {
		t.Errorf("delivered %d bytes in 1s on 1 Mbps, want 125000", got)
	}
}
