package netem

import (
	"reflect"
	"testing"

	"pulsedos/internal/rng"
	"pulsedos/internal/sim"
)

// FuzzLinkSchedule decodes bytes into a link and a send program and runs it
// on a fused link and on its ForceGoldenPath twin. The first byte picks the
// queue (DropTail or RED), its limit and whether a departure tap is attached;
// the second picks a propagation delay of 0–1.5 ms. Each op then sends a
// packet of 125–1500 bytes (125 µs to 1.5 ms at 8 Mb/s), either scheduled up
// front or from inside the run — by an event that fires on the 125 µs grid,
// on which serializations complete, or a nanosecond to either side of it, and
// schedules the send up to 1.875 ms ahead — or sends it directly, outside
// any event, right after one of the first 160 horizons; or it reads the
// link from inside the run, at an instant chosen like a scheduled send's.
// An op byte of 6 or 7 modulo 8 is a direct send or a read; otherwise its
// parity picks an up-front or a scheduled send. At every horizon and at
// every read the two legs must agree on Stats, Queue().Len(), the event
// count normalized by SkippedEvents and how many tap events they have seen,
// and at every horizon on how many deliveries; at the end, on the delivery
// list and the tap-event list. Deliveries are compared apart: at a delivery
// instant their interleaving with other events stamped like them differs by
// design, since the fused schedule draws a delivery's seq when the
// serialization starts and golden draws it at tx-done (DESIGN.md §14), so a
// read leaves them out of its counts.
func FuzzLinkSchedule(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0x1d, 3, 2, 0, 3, 0, 0, 3, 1, 4, 2, 1, 0, 30, 1, 17, 4, 0, 1, 2, 8, 3, 0, 22, 4})
	f.Add([]byte{0x1e, 0, 2, 0, 4, 0, 1, 4, 1, 0, 12, 3, 1, 0, 12, 3, 0, 49, 0, 1, 33, 1, 2})
	f.Fuzz(func(t *testing.T, prog []byte) {
		golden, fused := runLinkProgram(t, prog, true), runLinkProgram(t, prog, false)
		if !reflect.DeepEqual(golden.horizons, fused.horizons) {
			for i, g := range golden.horizons {
				if fu := fused.horizons[i]; g != fu {
					t.Fatalf("horizon %d (%v) diverged:\ngolden %+v\nfused  %+v", i, linkHorizon(i), g, fu)
				}
			}
		}
		if !reflect.DeepEqual(golden.reads, fused.reads) {
			t.Fatalf("reads inside the run differ:\ngolden %+v\nfused  %+v", golden.reads, fused.reads)
		}
		if !reflect.DeepEqual(golden.delivered, fused.delivered) {
			t.Fatalf("deliveries differ:\ngolden %v\nfused  %v", golden.delivered, fused.delivered)
		}
		if !reflect.DeepEqual(golden.events, fused.events) {
			t.Fatalf("tap events differ:\ngolden %v\nfused  %v", golden.events, fused.events)
		}
	})
}

// linkHorizons horizons are linkHorizonStep apart, on and between the grid
// points; direct sends follow one of the first linkDirectHorizons. The last
// horizon, at 30 ms, is past every delivery a program can produce: its last
// send is at 10 ms (a direct one; a scheduled one is at 9.75 ms at the
// latest) and waits for at most 9 packets of 1.5 ms, then takes 1.5 ms to
// serialize and 1.5 ms to propagate (26.5 ms).
const (
	linkHorizonStep    = 125 * sim.Microsecond / 2
	linkHorizons       = 480
	linkDirectHorizons = 160
)

func linkHorizon(i int) sim.Time { return sim.Time(i+1) * linkHorizonStep }

// linkSnapshot is what one leg shows at one horizon or read.
type linkSnapshot struct {
	stats     LinkStats
	queued    int
	events    uint64 // kernel events, plus SkippedEvents on the fused leg; a read's leave out deliveries
	delivered int    // zero at a read
	tapped    int
}

// linkRun is one leg's record of a program.
type linkRun struct {
	horizons  []linkSnapshot
	reads     []linkSnapshot
	delivered []tapEvent // kind '>' for every delivery
	events    []tapEvent
}

// linkProgram is the decoder state of one program.
type linkProgram struct{ data []byte }

// next consumes one byte; an exhausted program reads zeros.
func (p *linkProgram) next() byte {
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return b
}

// instant decodes a point on the 125 µs grid up to 7.875 ms, or a nanosecond
// to either side of one.
func (p *linkProgram) instant() sim.Time {
	b := p.next()
	t := sim.Time(b>>2)*125*sim.Microsecond + [4]sim.Time{0, -1, 1, 0}[b&3]
	return max(t, 0)
}

// lead decodes how far ahead of its trigger a scheduled op fires: 0 to 15
// grid steps.
func (p *linkProgram) lead() sim.Time {
	return sim.Time(p.next()%16) * 125 * sim.Microsecond
}

// size decodes a packet size whose serialization at 8 Mb/s is a whole number
// of 125 µs grid steps.
func (p *linkProgram) size() int {
	return [5]int{125, 250, 500, 1000, 1500}[p.next()%5]
}

// runLinkProgram builds the program's link on one schedule, schedules its
// sends, and records every horizon and then the run to its end.
func runLinkProgram(t *testing.T, prog []byte, golden bool) linkRun {
	t.Helper()
	p := &linkProgram{data: prog}
	k := sim.New()
	k.SetEventLimit(1 << 16)
	flags := p.next()
	limit := 1 + int(flags>>2&7)
	var q Queue = NewDropTail(limit)
	if flags&1 == 1 {
		q = NewRED(REDConfig{Limit: limit, MinTh: 1, MaxTh: float64(limit), Wq: 0.5, MaxP: 0.5}, rng.New(7), 8e6)
	}
	delay := sim.Time(p.next()%7) * 250 * sim.Microsecond
	var run linkRun
	dst := NodeFunc(func(pk *Packet) {
		run.delivered = append(run.delivered, tapEvent{'>', pk.Seq, k.Now()})
	})
	l, err := NewLink(k, "fuzz", 8e6, delay, q, dst)
	if err != nil {
		t.Fatal(err)
	}
	if golden {
		l.ForceGoldenPath()
	}
	tap := &departTap{}
	if flags&2 == 2 {
		l.AddTap(tap)
	} else {
		l.AddTap(&tap.arrivalTap)
	}
	snapshot := func() linkSnapshot {
		n := k.Processed()
		if !golden {
			n += l.SkippedEvents()
		}
		return linkSnapshot{l.Stats(), q.Len(), n, len(run.delivered), len(tap.events)}
	}
	read := func() {
		s := snapshot()
		s.events -= uint64(s.delivered)
		s.delivered = 0
		run.reads = append(run.reads, s)
	}
	direct := make(map[int][]*Packet) // horizon index → packets sent right after it
	for id := int64(0); len(p.data) > 0 && id < 64; id++ {
		switch op := p.next() % 8; {
		case op == 6:
			h, pk := int(p.next())%linkDirectHorizons, dataPacket(id, p.size())
			direct[h] = append(direct[h], pk)
		case op == 7:
			trigger, lead := p.instant(), p.lead()
			k.At(trigger, func() { k.AfterTicks(lead, read) })
		case op%2 == 0:
			at, pk := p.instant(), dataPacket(id, p.size())
			k.At(at, func() { l.Send(pk) })
		default:
			trigger, lead := p.instant(), p.lead()
			pk := dataPacket(id, p.size())
			k.At(trigger, func() { k.AfterTicks(lead, func() { l.Send(pk) }) })
		}
	}
	for i := 0; i < linkHorizons; i++ {
		if err := k.RunUntil(linkHorizon(i)); err != nil {
			t.Fatal(err)
		}
		for _, pk := range direct[i] {
			l.Send(pk)
		}
		run.horizons = append(run.horizons, snapshot())
	}
	if k.Pending() != 0 {
		t.Fatalf("golden=%v: %d events still pending past the last horizon", golden, k.Pending())
	}
	run.events = tap.events
	return run
}
