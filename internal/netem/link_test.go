package netem

import (
	"math/rand"
	"reflect"
	"testing"

	"pulsedos/internal/rng"
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

// arrivalTap records what a plain Tap observes: each arrival and drop with
// its packet and instant.
type arrivalTap struct {
	events []tapEvent
}

type tapEvent struct {
	kind byte // '+' arrival, 'd' drop, '-' departure
	seq  int64
	at   sim.Time
}

func (a *arrivalTap) OnArrive(p *Packet, now sim.Time) {
	a.events = append(a.events, tapEvent{'+', p.Seq, now})
}

func (a *arrivalTap) OnDrop(p *Packet, now sim.Time) {
	a.events = append(a.events, tapEvent{'d', p.Seq, now})
}

// departTap is an arrivalTap that also records departures, in one event list
// so the interleaving of the three kinds is compared too.
type departTap struct{ arrivalTap }

func (d *departTap) OnDepart(p *Packet, now sim.Time) {
	d.events = append(d.events, tapEvent{'-', p.Seq, now})
}

// TestTapScheduleChoice: no tap chooses the link schedule. An arrival/drop
// tap and a DepartureTap both leave the link fused, and a departure tap
// attached after traffic has started panics — the fused schedule arms its
// departure events from the first serialization on.
func TestTapScheduleChoice(t *testing.T) {
	l, err := NewLink(sim.New(), "l", 8e6, 0, NewDropTail(4), &Sink{})
	if err != nil {
		t.Fatal(err)
	}
	l.AddTap(&arrivalTap{})
	if l.GoldenPath() {
		t.Error("an arrival/drop tap pinned the link to the golden path")
	}
	l.AddTap(&tapRecorder{})
	if l.GoldenPath() {
		t.Error("a departure tap pinned the link to the golden path")
	}
	l.Send(dataPacket(0, 1000))
	l.AddTap(&arrivalTap{}) // a plain tap may still join
	defer func() {
		if recover() == nil {
			t.Error("AddTap of a departure tap after traffic started did not panic")
		}
	}()
	l.AddTap(&departTap{})
}

// TestTappedLinkRefusesPacing: an idle, empty DropTail link accepts paced
// commitments until a tap is attached. Paced packets have no Send instant to
// report an arrival at, so a tapped link refuses them.
func TestTappedLinkRefusesPacing(t *testing.T) {
	l, err := NewLink(sim.New(), "l", 8e6, sim.Millisecond, NewDropTail(4), &Sink{})
	if err != nil {
		t.Fatal(err)
	}
	if !l.CanPace(0) {
		t.Fatal("an idle untapped DropTail link refuses pacing")
	}
	l.AddTap(&arrivalTap{})
	if l.CanPace(0) {
		t.Error("CanPace reports true on a tapped link")
	}
	defer func() {
		if recover() == nil {
			t.Error("SendPaced on a tapped link did not panic")
		}
	}()
	l.SendPaced(dataPacket(0, 1000), 0, 10*sim.Millisecond)
}

// TestTapHorizonCutMatchesGolden drives a golden and a fused link with the
// same sends — a burst that overflows the queue, and sends that tie with
// serialization completions — and cuts the run at horizons inside the
// propagation window of packets already serialized. The arrivals and drops
// a tap observes, and Stats, must match at every horizon. With a departure
// tap on both legs the departures must match too, and the fused leg, whose
// chain then fires once per serialization, must elide nothing.
func TestTapHorizonCutMatchesGolden(t *testing.T) {
	ms := sim.Millisecond
	sends := []sim.Time{0, 0, 0, 0, 0, 1500 * sim.Microsecond, 2 * ms, 2 * ms, 3 * ms, 7 * ms, 7 * ms}
	// A late send is scheduled half a millisecond ahead from inside the run,
	// so it sorts after the serialization completion it ties with: 9 ms ends
	// the second 7 ms packet with nothing queued behind it.
	lateSends := []sim.Time{9 * ms}
	horizons := []sim.Time{2 * ms, 4500 * sim.Microsecond, 9 * ms, 12500 * sim.Microsecond, 30 * ms}
	queues := map[string]func() Queue{
		"droptail": func() Queue { return NewDropTail(2) },
		"red": func() Queue {
			return NewRED(REDConfig{Limit: 3, MinTh: 1, MaxTh: 3, Wq: 0.5, MaxP: 0.5}, rng.New(3), 8e6)
		},
	}
	type snapshot struct {
		events    []tapEvent
		stats     []LinkStats
		delivered []sim.Time
	}
	run := func(t *testing.T, mk func() Queue, golden, departs bool) snapshot {
		k := sim.New()
		rec := &recorder{k: k}
		l, err := NewLink(k, "l", 8e6, 10*ms, mk(), rec)
		if err != nil {
			t.Fatal(err)
		}
		if golden {
			l.ForceGoldenPath()
		}
		tap := &departTap{}
		if departs {
			l.AddTap(tap)
		} else {
			l.AddTap(&tap.arrivalTap)
		}
		if l.GoldenPath() != golden {
			t.Fatalf("golden=%v leg runs GoldenPath()=%v", golden, l.GoldenPath())
		}
		for i, at := range sends {
			p := dataPacket(int64(i), 1000)
			if _, err := k.At(at, func() { l.Send(p) }); err != nil {
				t.Fatal(err)
			}
		}
		for i, at := range lateSends {
			p := dataPacket(int64(len(sends)+i), 1000)
			if _, err := k.At(at-ms/2, func() { k.AfterTicks(ms/2, func() { l.Send(p) }) }); err != nil {
				t.Fatal(err)
			}
		}
		var snap snapshot
		for _, h := range horizons {
			if err := k.RunUntil(h); err != nil {
				t.Fatal(err)
			}
			snap.stats = append(snap.stats, l.Stats())
		}
		snap.events, snap.delivered = tap.events, rec.times
		if skipped := l.SkippedEvents(); !golden && departs && skipped != 0 {
			t.Errorf("the departure-tapped fused leg elided %d events, want 0", skipped)
		} else if !golden && !departs && skipped == 0 {
			t.Error("the fused leg elided no events")
		}
		return snap
	}
	for name, mk := range queues {
		t.Run(name, func(t *testing.T) {
			for _, departs := range []bool{false, true} {
				g, f := run(t, mk, true, departs), run(t, mk, false, departs)
				if !reflect.DeepEqual(g.events, f.events) {
					t.Errorf("departs=%v: tap events differ:\ngolden %v\nfused  %v", departs, g.events, f.events)
				}
				if !reflect.DeepEqual(g.stats, f.stats) {
					t.Errorf("departs=%v: stats differ:\ngolden %+v\nfused  %+v", departs, g.stats, f.stats)
				}
				if !reflect.DeepEqual(g.delivered, f.delivered) {
					t.Errorf("departs=%v: deliveries differ: golden %v, fused %v", departs, g.delivered, f.delivered)
				}
				// The second horizon falls inside the propagation window:
				// packets have departed, none has been delivered yet.
				if st := g.stats[1]; st.Departures == 0 || st.Drops == 0 {
					t.Errorf("departs=%v: horizon 2 stats %+v: want departures in flight and drops", departs, st)
				}
				if n := countKind(f.events, '-'); departs && uint64(n) != f.stats[len(f.stats)-1].Departures {
					t.Errorf("departs=%v: %d departure events, %d departures counted", departs, n, f.stats[len(f.stats)-1].Departures)
				}
			}
		})
	}
}

// TestIdleBypassMatchesGolden drives a fused DropTail link, whose idle
// transmitter starts an arriving packet without going through the queue, and
// its golden twin with the same feeds. The mixed feed has idle gaps longer
// than a serialization, bursts that queue behind the transmitter and
// overflow the queue, and arrivals that tie with serialization completions.
// At every horizon the deliveries, Stats, tap events and the fused event
// count normalized by SkippedEvents must match golden, with and without a
// departure tap. On an idle-only feed the fused link's queue never
// allocates its ring.
func TestIdleBypassMatchesGolden(t *testing.T) {
	ms := sim.Millisecond // one 1000-byte serialization at 8 Mb/s
	r := rand.New(rand.NewSource(11))
	var mixed, idle []sim.Time
	for i, at, quiet := 0, sim.Time(0), sim.Time(0); i < 80; i++ {
		switch r.Intn(5) {
		case 0, 1:
			at += 3*ms + sim.Time(r.Intn(1000))*sim.Microsecond
		case 2:
			at += ms
		case 3:
			at += ms / 3
		}
		mixed = append(mixed, at)
		quiet += ms + sim.Time(1+r.Intn(2000))*sim.Microsecond
		idle = append(idle, quiet)
	}
	type snapshot struct {
		events    []tapEvent
		stats     []LinkStats
		processed []uint64
		delivered []sim.Time
	}
	run := func(t *testing.T, feed []sim.Time, golden, departs bool) (snapshot, *DropTail) {
		k := sim.New()
		rec := &recorder{k: k}
		q := NewDropTail(3)
		l, err := NewLink(k, "l", 8e6, 5*ms, q, rec)
		if err != nil {
			t.Fatal(err)
		}
		if golden {
			l.ForceGoldenPath()
		}
		tap := &departTap{}
		if departs {
			l.AddTap(tap)
		} else {
			l.AddTap(&tap.arrivalTap)
		}
		for i, at := range feed {
			p := dataPacket(int64(i), 1000)
			if _, err := k.At(at, func() { l.Send(p) }); err != nil {
				t.Fatal(err)
			}
		}
		var snap snapshot
		end := feed[len(feed)-1] + 20*ms
		for h := ms / 2; h < end; h += 7*ms + ms/4 {
			if err := k.RunUntil(h); err != nil {
				t.Fatal(err)
			}
			n := k.Processed()
			if !golden {
				n += l.SkippedEvents()
			}
			snap.stats = append(snap.stats, l.Stats())
			snap.processed = append(snap.processed, n)
		}
		snap.events, snap.delivered = tap.events, rec.times
		return snap, q
	}
	for _, departs := range []bool{false, true} {
		g, _ := run(t, mixed, true, departs)
		f, _ := run(t, mixed, false, departs)
		if !reflect.DeepEqual(g.delivered, f.delivered) {
			t.Errorf("departs=%v: deliveries differ:\ngolden %v\nfused  %v", departs, g.delivered, f.delivered)
		}
		if !reflect.DeepEqual(g.stats, f.stats) {
			t.Errorf("departs=%v: stats differ:\ngolden %+v\nfused  %+v", departs, g.stats, f.stats)
		}
		if !reflect.DeepEqual(g.processed, f.processed) {
			t.Errorf("departs=%v: normalized event counts differ:\ngolden %v\nfused  %v", departs, g.processed, f.processed)
		}
		if !reflect.DeepEqual(g.events, f.events) {
			t.Errorf("departs=%v: tap events differ:\ngolden %v\nfused  %v", departs, g.events, f.events)
		}
		if st := g.stats[len(g.stats)-1]; st.Drops == 0 || st.Departures+st.Drops != uint64(len(mixed)) {
			t.Errorf("departs=%v: final stats %+v: want drops, and every packet departed or dropped", departs, st)
		}

		if _, q := run(t, idle, false, departs); q.ring != nil {
			t.Errorf("departs=%v: an idle-only feed allocated a %d-slot ring", departs, len(q.ring))
		}
	}
}

// countKind counts the tap events of one kind.
func countKind(events []tapEvent, kind byte) int {
	n := 0
	for _, e := range events {
		if e.kind == kind {
			n++
		}
	}
	return n
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
	fresh := NewRouter("T") // r has forwarded, so any install would panic
	for _, tc := range []struct {
		name    string
		install func()
	}{
		{"negative flow", func() { fresh.AddRoute(-1, DirForward, la) }},
		{"route for Dir(0)", func() { fresh.AddRoute(1, Dir(0), la) }},
		{"default for Dir(3)", func() { fresh.SetDefault(Dir(3), la) }},
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

// routerCases wires a router with per-flow routes in both directions, a
// forward default and no reverse default, and returns packets for each kind
// of lookup with the link each must leave on (nil: unrouted).
func routerCases(t *testing.T, k *sim.Kernel) (*Router, []*Packet, []*Link) {
	t.Helper()
	mk := func(name string) *Link {
		l, err := NewLink(k, name, 1e9, 0, NewDropTail(100), &Sink{})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	la, lb, ld := mk("a"), mk("b"), mk("default")
	r := NewRouter("R")
	r.AddRoute(1, DirForward, la)
	r.AddRoute(4, DirReverse, lb)
	r.SetDefault(DirForward, ld)
	pkts := []*Packet{
		{Flow: 1, Dir: DirForward},  // routed
		{Flow: 4, Dir: DirReverse},  // routed, other direction
		{Flow: 2, Dir: DirForward},  // hole: default
		{Flow: -1, Dir: DirForward}, // attack id: default
		{Flow: 99, Dir: DirForward}, // past the table: default
		{Flow: 1, Dir: DirReverse},  // no reverse default: unrouted
		{Flow: 1, Dir: Dir(0)},      // unrouted
		{Flow: 4, Dir: Dir(9)},      // unrouted
	}
	return r, pkts, []*Link{la, lb, ld, ld, ld, nil, nil, nil}
}

// TestRouterRouteMatchesReceive: the lookup Link.deliver makes at schedule
// time finds the link Receive sends a packet to, and nil exactly for the
// packets Receive counts as unrouted.
func TestRouterRouteMatchesReceive(t *testing.T) {
	k := sim.New()
	r, pkts, want := routerCases(t, k)
	for i, p := range pkts {
		got := r.route(p)
		if got != want[i] {
			t.Errorf("packet %d (flow %d, dir %d): route = %v, want %v", i, p.Flow, p.Dir, got, want[i])
		}
		var before uint64
		if got != nil {
			before = got.Stats().Arrivals
		}
		unrouted := r.Unrouted()
		p.Size = 100
		r.Receive(p)
		if got == nil {
			if r.Unrouted() != unrouted+1 {
				t.Errorf("packet %d: route found no link, but Receive did not count it unrouted", i)
			}
		} else if got.Stats().Arrivals != before+1 || r.Unrouted() != unrouted {
			t.Errorf("packet %d: Receive did not send it to the link route found", i)
		}
	}
}

// TestRouterTableFrozenOnceForwarding: AddRoute and SetDefault panic once
// the router has forwarded a packet, because a delivery scheduled into it
// already carries its output link.
func TestRouterTableFrozenOnceForwarding(t *testing.T) {
	k := sim.New()
	r, pkts, want := routerCases(t, k)
	r.AddRoute(7, DirForward, want[0]) // before any traffic: fine
	r.Receive(pkts[0])
	for _, tc := range []struct {
		name    string
		install func()
	}{
		{"AddRoute", func() { r.AddRoute(3, DirForward, want[0]) }},
		{"SetDefault", func() { r.SetDefault(DirReverse, want[1]) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after forwarding did not panic", tc.name)
				}
			}()
			tc.install()
		}()
	}
}

// TestDeliverIntoRouter: a link delivering into a router schedules the
// output link's Send in place of the router's Receive, at the same instant;
// an unrouted packet still reaches Receive, which counts it at the delivery
// instant and not when the delivery was scheduled.
func TestDeliverIntoRouter(t *testing.T) {
	k := sim.New()
	r, _, want := routerCases(t, k)
	in, err := NewLink(k, "in", 8e6, 10*sim.Millisecond, NewDropTail(4), r)
	if err != nil {
		t.Fatal(err)
	}
	in.Send(&Packet{Flow: 1, Dir: DirForward, Size: 1000}) // 1 ms serialization
	in.Send(&Packet{Flow: 1, Dir: DirReverse, Size: 1000}) // unrouted
	at := func(h sim.Time) {
		if err := k.RunUntil(h); err != nil {
			t.Fatal(err)
		}
	}
	at(11*sim.Millisecond - 1)
	if n := want[0].Stats().Arrivals; n != 0 {
		t.Fatalf("output link saw %d arrivals before the delivery instant", n)
	}
	at(11 * sim.Millisecond)
	if n := want[0].Stats().Arrivals; n != 1 {
		t.Fatalf("output link saw %d arrivals at the delivery instant, want 1", n)
	}
	if r.Unrouted() != 0 {
		t.Fatalf("unrouted counted %d before its delivery instant", r.Unrouted())
	}
	at(12 * sim.Millisecond)
	if r.Unrouted() != 1 {
		t.Fatalf("unrouted = %d at its delivery instant, want 1", r.Unrouted())
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
