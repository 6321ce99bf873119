package netem

import (
	"fmt"
	"math"

	"pulsedos/internal/sim"
)

// Node is anything that can accept a delivered packet: a TCP endpoint, a
// router, a sink, or a monitor.
type Node interface {
	Receive(p *Packet)
}

// NodeFunc adapts a function to the Node interface.
type NodeFunc func(p *Packet)

// Receive implements Node.
func (f NodeFunc) Receive(p *Packet) { f(p) }

// LinkStats aggregates per-link counters.
type LinkStats struct {
	Arrivals       uint64 // packets offered to the queue
	ArrivalBytes   uint64
	Drops          uint64 // packets rejected by the queue discipline
	DropBytes      uint64
	Departures     uint64 // packets fully serialized onto the wire
	DepartureBytes uint64
}

// Tap observes the packet events a link decides inside Send. Taps must not
// mutate packets; they exist for measurement (traffic-rate series, drop
// accounting, detectors). Both callbacks fire at the Send instant on either
// link schedule, so attaching a Tap leaves the link on its schedule.
type Tap interface {
	// OnArrive fires when a packet is offered to the link's queue.
	OnArrive(p *Packet, now sim.Time)
	// OnDrop fires when the queue discipline rejects a packet.
	OnDrop(p *Packet, now sim.Time)
}

// DepartureTap is a Tap that also observes serialization completions. A
// fused link reports them from its chain event, which it then arms for every
// serialization on golden's tx-done key, so departures match the golden
// schedule at any run horizon. Attach one before traffic starts.
type DepartureTap interface {
	Tap
	// OnDepart fires when a packet finishes serialization onto the wire.
	OnDepart(p *Packet, now sim.Time)
}

// Link is a simplex point-to-point channel: a queue discipline feeding a
// transmitter of finite rate, followed by a fixed propagation delay. It is
// the netem analogue of an ns-2 simplex link.
//
// Two scheduling paths implement the same model (see DESIGN.md §14):
//
//   - The golden two-event path charges every packet one tx-done event
//     (serialization completion) plus one delivery event (propagation). It
//     is the original reference implementation, kept verbatim.
//   - The fused path (the default) schedules a single delivery event at
//     tx-done+delay, back-stamped to sort exactly where the golden path's
//     delivery would have, and tracks the transmitter with a busyUntil
//     timestamp instead of a tx-done event. A tx-done-shaped chain event
//     exists only while backlog is queued.
//
// Both paths hand every packet to one delivery step (deliver), which either
// schedules the stamped local delivery or sends it through a cross-shard
// remote on the same (when, at) key. Only ForceGoldenPath puts a link on the
// golden path; a DepartureTap rides the fused chain event (DESIGN.md §14).
type Link struct {
	name   string
	k      *sim.Kernel
	rate   float64 // bits per second
	delay  sim.Time
	queue  Queue
	fifo   *DropTail // queue, when it is a plain FIFO: Send's idle bypass
	dst    Node
	router *Router // dst, when it is a router: deliver routes at schedule time
	pool   *PacketPool

	busy    bool
	golden  bool // two-event reference path (ForceGoldenPath)
	chained bool // a chain event is pending (fused-path state, below)
	stats   LinkStats
	taps    []Tap
	departs []DepartureTap // the taps that also observe departures
	remote  *DemuxRemote   // non-nil: propagation crosses a shard boundary (portal.go)

	// Fused-path transmitter state: the in-flight serialization started at
	// txStart and ends at busyUntil (-1 = never transmitted); txSeq is the
	// seq golden's tx-done event for it would carry, reserved at the start,
	// so (busyUntil, txStart, txSeq) is that event's exact key. chained marks
	// a pending chain event on that key that will restart the transmitter
	// (with departure taps, one per serialization; departing is the copy of
	// its packet they see, as the delivery step may release the original).
	// starts counts transmissions begun and chainFires chain events fired —
	// together they recover the event count the golden path would have paid
	// (see SkippedEvents).
	busyUntil  sim.Time
	txStart    sim.Time
	txSeq      uint64
	departing  *Packet // allocated by AddTap of a DepartureTap
	starts     uint64
	startBytes uint64
	lastSize   int // size of the most recently started packet
	chainFires uint64

	// Paced-commit grid (SendPaced): an open-loop source owning the link has
	// committed pacedN equally sized serializations spaced pacedGap apart,
	// the first starting at pacedFirstAt (completing at pacedFirstDone) and
	// the last starting at pacedAt. Some of those start instants may still be
	// in the virtual future, so the grid counters are folded out analytically
	// at read time to keep Stats and SkippedEvents horizon-exact while
	// commitments are outstanding. pacedN is zero whenever no grid is
	// tracked; any plain Send start resets it.
	pacedN         uint64
	pacedGap       sim.Time
	pacedFirstAt   sim.Time
	pacedFirstDone sim.Time
	pacedAt        sim.Time
	pacedSize      int
}

// The link's event handlers (sim.Handler). Each is the link itself under a
// type whose Fire does one job, so a fired event reaches the link's state
// with no closure object in between, and a packet rides as the argument.
type (
	txDoneHop  Link // golden serialization completion: finishTransmit
	deliverHop Link // propagation done: hand the packet to dst
	chainHop   Link // fused transmitter restart: fireChain
	sendHop    Link // a router's output link, resolved at schedule time: Send
)

// Fire implements sim.Handler.
func (h *txDoneHop) Fire(arg any) { (*Link)(h).finishTransmit(arg.(*Packet)) }

// Fire implements sim.Handler.
func (h *deliverHop) Fire(arg any) { h.dst.Receive(arg.(*Packet)) }

// Fire implements sim.Handler.
func (h *chainHop) Fire(arg any) { (*Link)(h).fireChain(arg.(*Packet)) }

// Fire implements sim.Handler.
func (h *sendHop) Fire(arg any) { (*Link)(h).Send(arg.(*Packet)) }

// NewLink builds a link. rate is in bits per second and must be positive and
// finite; delay is the one-way propagation delay; queue guards the
// transmitter; dst receives packets after serialization + propagation.
func NewLink(k *sim.Kernel, name string, rate float64, delay sim.Time, queue Queue, dst Node) (*Link, error) {
	if k == nil {
		return nil, fmt.Errorf("netem: link %q: nil kernel", name)
	}
	if math.IsNaN(rate) || math.IsInf(rate, 0) {
		return nil, fmt.Errorf("netem: link %q: rate must be finite, got %g", name, rate)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("netem: link %q: rate must be positive, got %g", name, rate)
	}
	if queue == nil {
		return nil, fmt.Errorf("netem: link %q: nil queue", name)
	}
	if dst == nil {
		return nil, fmt.Errorf("netem: link %q: nil destination", name)
	}
	if delay < 0 {
		delay = 0
	}
	l := &Link{name: name, k: k, rate: rate, delay: delay, queue: queue, dst: dst, busyUntil: -1}
	l.fifo, _ = queue.(*DropTail)
	l.router, _ = dst.(*Router)
	return l, nil
}

// Name reports the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Rate reports the link bandwidth in bits per second.
func (l *Link) Rate() float64 { return l.rate }

// Delay reports the one-way propagation delay.
func (l *Link) Delay() sim.Time { return l.delay }

// Queue exposes the link's queue discipline (for inspection in tests and
// experiments).
func (l *Link) Queue() Queue { return l.queue }

// Stats returns a snapshot of the link counters. On the fused path the
// departure counters are derived at read time — a departure is a completed
// serialization (starts minus the one still in flight: golden's tx-done key
// for it has not passed, the question Send asks), which is exactly when the
// golden path's tx-done event counts it — so snapshots are identical between
// the two paths at any horizon and inside any event, even while a fused
// delivery event is still pending. With a paced grid outstanding
// (SendPaced) the arrival counters are likewise rolled back to the grid
// starts that have actually been reached, matching the instants the
// reference schedule would have counted the arrivals at.
func (l *Link) Stats() LinkStats {
	s := l.stats
	if !l.golden {
		now := l.k.Now()
		s.Departures = l.starts
		s.DepartureBytes = l.startBytes
		if l.pacedN > 0 {
			if pend := l.pacedPending(now); pend > 0 {
				s.Departures -= pend
				s.DepartureBytes -= pend * uint64(l.pacedSize)
			}
			if fut := l.pacedUnarrived(now); fut > 0 {
				s.Arrivals -= fut
				s.ArrivalBytes -= fut * uint64(l.pacedSize)
			}
		} else if !l.k.Passed(l.busyUntil, l.txStart, l.txSeq) {
			s.Departures--
			s.DepartureBytes -= uint64(l.lastSize)
		}
	}
	return s
}

// pacedPending reports how many committed paced serializations have not yet
// completed as of now; grid completions sit at pacedFirstDone + i·pacedGap.
//
//pdos:counter paced-grid fold — outstanding commitments derived analytically from the grid, no per-event bookkeeping
func (l *Link) pacedPending(now sim.Time) uint64 {
	if now >= l.busyUntil {
		return 0
	}
	if now < l.pacedFirstDone {
		return l.pacedN
	}
	done := uint64((now-l.pacedFirstDone)/l.pacedGap) + 1
	if done >= l.pacedN {
		return 0
	}
	return l.pacedN - done
}

// pacedUnarrived reports how many committed paced packets have transmission
// start instants still in the virtual future — packets the reference
// schedule would not have seen arrive yet.
//
//pdos:counter paced-grid fold — future commitments derived analytically from the grid
func (l *Link) pacedUnarrived(now sim.Time) uint64 {
	if now >= l.pacedAt {
		return 0
	}
	if now < l.pacedFirstAt {
		return l.pacedN
	}
	begun := uint64((now-l.pacedFirstAt)/l.pacedGap) + 1
	if begun >= l.pacedN {
		return 0
	}
	return l.pacedN - begun
}

// SetPool attaches a packet free list. Traffic sources reached through this
// link allocate via NewPacket, and the link releases dropped packets back to
// the pool. A nil pool (the default) falls back to plain heap allocation.
func (l *Link) SetPool(pool *PacketPool) { l.pool = pool }

// Pool reports the attached packet pool (nil when pooling is disabled).
func (l *Link) Pool() *PacketPool { return l.pool }

// NewPacket returns a zeroed packet for transmission on this link, drawn
// from the attached pool when one is present.
//
//pdos:hotpath
func (l *Link) NewPacket() *Packet {
	if l.pool != nil {
		return l.pool.Get()
	}
	return &Packet{}
}

// SetRemote routes this link's deliveries through a shard boundary (see
// portal.go). A nil remote (the default) keeps the serial local path; the
// only cost on that path is one pointer nil-check per delivery. The link
// keeps its schedule: the remote receives each packet at the delivery step,
// with the same (when, at) key the local delivery event would carry.
func (l *Link) SetRemote(r *DemuxRemote) { l.remote = r }

// ForceGoldenPath pins the link to the golden two-event schedule (one
// tx-done event plus one delivery event per packet) instead of the fused
// single-event default. The two paths are model-equivalent — the equivalence
// suites prove byte-identical observables — so this is a reference/debug
// knob, not a semantic one. It must be called before any traffic flows.
func (l *Link) ForceGoldenPath() {
	l.beforeTraffic("ForceGoldenPath")
	l.golden = true
}

// GoldenPath reports whether the link uses the golden two-event schedule.
func (l *Link) GoldenPath() bool { return l.golden }

// beforeTraffic panics once the link has carried traffic: the schedule and
// the departure taps decide how Send tells a busy transmitter, so both are
// wiring-time configuration.
func (l *Link) beforeTraffic(who string) {
	if l.stats.Arrivals > 0 || l.busyUntil >= 0 {
		panic("netem: " + who + " on link " + l.name + " after traffic started")
	}
}

// deliver hands a packet whose serialization completes at txDone to the
// propagation hop: it arrives at txDone+delay (saturating at MaxTime),
// stamped with txDone — the instant the golden schedule's delivery event is
// scheduled at, so the fused schedule, which calls this when serialization
// starts, sorts its delivery into the same (when, at) slot. A cross-shard
// remote takes the packet on that key; otherwise the delivery is scheduled
// on the link's own kernel. Into a router, the delivery event is the output
// link's Send, resolved now while the packet is in cache: the event and its
// key are the ones Router.Receive's delivery would have had. An unrouted
// packet is still delivered to Receive, which counts it at the delivery
// instant.
//
//pdos:hotpath
func (l *Link) deliver(p *Packet, txDone sim.Time) {
	when := txDone + l.delay
	if when < txDone {
		when = sim.MaxTime
	}
	if l.remote != nil {
		l.remote.Transfer(l, when, txDone, p)
		return
	}
	if l.router != nil {
		if out := l.router.route(p); out != nil {
			l.k.AtArgStamped(when, txDone, (*sendHop)(out), p)
			return
		}
	}
	l.k.AtArgStamped(when, txDone, (*deliverHop)(l), p)
}

// AddTap attaches a traffic observer; the link keeps its schedule. A
// DepartureTap must be attached before traffic starts (see DepartureTap).
// Any tap makes the link refuse paced commitments (CanPace), whose arrivals
// have no Send instant to report.
func (l *Link) AddTap(t Tap) {
	if t == nil {
		return
	}
	if d, ok := t.(DepartureTap); ok {
		l.beforeTraffic("AddTap")
		if l.departing == nil {
			l.departing = &Packet{}
		}
		l.departs = append(l.departs, d)
	}
	l.taps = append(l.taps, t)
}

// Send offers a packet to the link. If the queue discipline rejects it the
// packet is silently dropped (after notifying taps), exactly as a congested
// router would.
//
//pdos:hotpath
func (l *Link) Send(p *Packet) {
	now := l.k.Now()
	if l.pacedAt > now {
		// A paced source has committed transmissions whose start instants are
		// still in the future; a packet arriving now would, on the reference
		// schedule, serialize in the idle gaps *before* those commitments.
		// SendPaced links must carry exactly one source (see SendPaced).
		panic("netem: Send on link " + l.name + " while paced transmissions are committed")
	}
	l.stats.Arrivals++
	l.stats.ArrivalBytes += uint64(p.Size)
	for _, t := range l.taps {
		t.OnArrive(p, now)
	}
	// Idle: golden's tx-done for the last serialization has already fired —
	// its key has passed, whether the completion lies behind now or at now
	// ahead of the firing event. A departure-tapped link arms that tx-done as
	// its chain, so there only a pending chain means busy.
	idle := !l.golden && !l.chained && (len(l.departs) > 0 || l.k.Passed(l.busyUntil, l.txStart, l.txSeq))
	if idle && l.fifo != nil {
		// An idle fused transmitter has an empty queue (queued packets
		// always have a chain armed), and an empty FIFO admits every
		// packet, so p starts at once without the Enqueue/Dequeue round
		// trip — the fact CanPace relies on for SendPaced.
		l.start(p, now)
		return
	}
	if !l.queue.Enqueue(p, now) {
		l.stats.Drops++
		l.stats.DropBytes += uint64(p.Size)
		for _, t := range l.taps {
			t.OnDrop(p, now)
		}
		p.Release()
		return
	}
	if l.golden {
		if !l.busy {
			l.startTransmit()
		}
		return
	}
	if !idle {
		// Transmitter still serializing (or its completion, at now, sorts
		// after the firing event): arm the chain event that restarts it on
		// golden's exact tx-done key, so it fires where the golden restart
		// would. A departure-tapped link has armed its chain at start, so
		// only a pending chain means busy: a second chain at an instant
		// whose chain already fired would report the departure twice. With
		// no chain armed the queue was empty, so p is its head.
		if !l.chained {
			l.chained = true
			//pdos:vtime-ok — busyUntil = txStart + serialization delay by construction (startTransmit/start), so at ≤ when holds across the field reads the analyzer cannot relate
			l.k.AtKeyed(l.busyUntil, l.txStart, l.txSeq, (*chainHop)(l), p)
		}
		return
	}
	// Idle transmitter: self-start without any tx-done event — the elision
	// the fused path exists for. An idle transmitter's queue was empty, so
	// the head Dequeue returns is p.
	l.start(l.queue.Dequeue(now), now)
}

// CanPace reports whether the link can accept SendPaced commitments as of
// now: the fused path with no taps, an idle transmitter with no chain armed
// and an empty FIFO (DropTail) queue — an empty FIFO admits every packet,
// the fact Send's idle bypass relies on too. RED refuses: its decaying
// average can drop into an instantaneously empty queue. Sources re-check
// this at every batch boundary so that any interleaved plain traffic
// demotes them back to per-packet Send, which handles busy transmitters
// exactly.
func (l *Link) CanPace(now sim.Time) bool {
	return !l.golden && len(l.taps) == 0 && !l.chained && l.busyUntil < now &&
		l.fifo != nil && l.fifo.Len() == 0
}

// SendPaced commits a future transmission of p starting at the exact virtual
// instant at, without the per-packet kernel event Send would have consumed.
// It is the open-loop source counterpart of the fused link schedule
// (DESIGN.md §14): a CBR source whose emission gap exceeds the packet's
// serialization time finds the transmitter idle at every emission, so the
// whole arrive→enqueue→dequeue→serialize cascade collapses to arithmetic on
// an emission grid, and one kernel event can commit a batch of future
// packets with timestamps identical to per-packet operation — each delivery
// fires at at+tx+delay carrying the tx-done schedule stamp, exactly the
// (when, at) slot the golden reference's delivery occupies.
//
// Preconditions (panic on violation): the fused path, no taps, no chain
// armed, an empty queue, at not in the past and strictly after the last
// committed completion, and the serialization time strictly below gap (a
// tie means the reference schedule would queue the packet — use Send).
// Callers gate engagement with CanPace and must own the link outright: a
// plain Send while committed start instants are still in the future panics,
// because the reference schedule would have serialized that packet inside
// the idle gaps of the grid. Consecutive calls continuing the same (gap, size) grid
// extend it; a non-contiguous call starts a new grid and requires the old
// one to be fully completed. While start instants remain in the future,
// Stats and SkippedEvents remain horizon-exact (derived from the grid), but
// per-arrival observation points do not exist — which is why SendPaced
// refuses tapped links.
//
//pdos:hotpath
func (l *Link) SendPaced(p *Packet, at, gap sim.Time) {
	now := l.k.Now()
	tx := l.TxTime(p.Size)
	if l.golden || len(l.taps) != 0 || l.chained || l.queue.Len() != 0 || at < now || at <= l.busyUntil || tx >= gap {
		panic("netem: SendPaced preconditions violated on link " + l.name)
	}
	l.stats.Arrivals++
	l.stats.ArrivalBytes += uint64(p.Size)
	txDone := at + tx
	if txDone < at {
		txDone = sim.MaxTime
	}
	if l.pacedN > 0 && at == l.pacedAt+l.pacedGap && gap == l.pacedGap && p.Size == l.pacedSize {
		l.pacedN++ //pdos:counter paced-grid inc — one more serialization committed on the open grid
	} else {
		if l.pacedN > 0 && l.busyUntil > now {
			panic("netem: SendPaced grid restarted on link " + l.name + " with prior commitments outstanding")
		}
		l.pacedN = 1 //pdos:counter paced-grid inc — a fresh grid opens with its first commitment
		l.pacedGap = gap
		l.pacedFirstAt = at
		l.pacedFirstDone = txDone
		l.pacedSize = p.Size
	}
	l.pacedAt = at
	l.starts++
	l.startBytes += uint64(p.Size)
	l.lastSize = p.Size
	l.txStart = at
	l.txSeq = l.k.ReserveSeq()
	l.busyUntil = txDone
	l.deliver(p, txDone)
}

// SkippedEvents reports how many kernel events the fused path has elided
// relative to the golden two-event schedule, exact as of the link kernel's
// position. Per packet the golden path fires one tx-done event at
// serialization end plus one delivery event — the delivery the fused path
// pays identically (its fused event fires at the same instant), so the
// difference is the tx-done firings the golden run would have accumulated
// (one per completed serialization: starts minus the one still in flight,
// as Stats counts it) minus the chain events the fused run actually fired in
// their place. Golden-path links report zero, and so do departure-tapped
// ones, whose chain fires once per serialization. With a paced grid
// outstanding (SendPaced) the in-flight count is the grid completions not
// yet reached rather than a single packet; the elision arithmetic is
// otherwise identical. Adding the sum over all links back to the raw kernel
// count normalizes a fused run to reference-model event counts, keeping
// serial/sharded/golden/fused runs comparable through one number
// (topo.Environment.Processed).
func (l *Link) SkippedEvents() uint64 {
	n := l.starts - l.chainFires
	if l.pacedN > 0 {
		n -= l.pacedPending(l.k.Now())
	} else if !l.k.Passed(l.busyUntil, l.txStart, l.txSeq) {
		n--
	}
	return n
}

// TxTime reports the serialization delay of a packet of the given size.
//
//pdos:hotpath
func (l *Link) TxTime(sizeBytes int) sim.Time {
	return sim.FromSeconds(float64(sizeBytes) * 8 / l.rate)
}

// startTransmit pulls the head-of-line packet and schedules its completion.
//
//pdos:hotpath
func (l *Link) startTransmit() {
	now := l.k.Now()
	p := l.queue.Dequeue(now)
	if p == nil {
		return
	}
	l.busy = true
	txDone := now + l.TxTime(p.Size)
	if txDone < now {
		txDone = sim.MaxTime
	}
	l.k.AtArgStamped(txDone, now, (*txDoneHop)(l), p)
}

// start begins serializing p on the fused path and hands it to the delivery
// step at once, with the tx-done instant it will reach: the single fused
// event fires at tx-done+delay but is back-stamped to tx-done, so it
// occupies exactly the (when, at) slot the golden path's delivery event —
// scheduled at tx-done — would have; both paths saturate the two instants at
// MaxTime alike. start reserves the seq golden's tx-done would draw here, so
// a chain armed later for this serialization sorts on golden's exact tx-done
// key. Departure accounting needs no event: Stats derives it from starts and
// busyUntil. Departure taps do need one, so a tapped link arms the chain on
// that key before the delivery, which keeps a zero-time serialization and
// hop in golden's order too (seq breaks the tie).
//
//pdos:hotpath
func (l *Link) start(p *Packet, now sim.Time) {
	l.pacedN = 0 // any tracked grid is fully started once a plain send begins
	l.starts++
	l.startBytes += uint64(p.Size)
	l.lastSize = p.Size
	txDone := now + l.TxTime(p.Size)
	if txDone < now {
		txDone = sim.MaxTime
	}
	l.txStart = now
	l.txSeq = l.k.ReserveSeq()
	l.busyUntil = txDone
	if len(l.departs) > 0 {
		*l.departing = *p
		l.chained = true
		l.k.AtKeyed(txDone, now, l.txSeq, (*chainHop)(l), l.queue.Peek())
	}
	l.deliver(p, txDone)
}

// fireChain fires at busyUntil while backlog exists, or after every
// serialization on a departure-tapped link: it reports the departure to the
// taps, restarts the transmitter exactly where the golden tx-done event
// would have, and rearms itself for the next completion if more packets are
// still queued. An untapped idle link needs no chain — Send self-starts — so
// steady low-load traffic pays one event per hop and the chain only
// reappears under backlog. The chain event carries the head-of-line packet
// as it was when the chain was armed (nil if the queue was empty then): a
// FIFO's head leaves only through this restart, so it is the packet the
// restart dequeues, and the kernel's drain prefetches it with the event.
//
//pdos:hotpath
func (l *Link) fireChain(head *Packet) {
	now := l.k.Now()
	l.chained = false
	l.chainFires++
	for _, t := range l.departs {
		t.OnDepart(l.departing, now)
	}
	p := l.queue.Dequeue(now)
	l.assertChainHead(head, p)
	if p != nil {
		l.start(p, now)
	}
	if !l.chained {
		if next := l.queue.Peek(); next != nil {
			l.chained = true
			//pdos:vtime-ok — busyUntil = txStart + serialization delay by construction (start just set both), so at ≤ when holds across the field reads the analyzer cannot relate
			l.k.AtKeyed(l.busyUntil, l.txStart, l.txSeq, (*chainHop)(l), next)
		}
	}
}

// finishTransmit fires when serialization completes: the packet enters the
// propagation pipe and the transmitter turns to the next queued packet.
//
//pdos:hotpath
func (l *Link) finishTransmit(p *Packet) {
	now := l.k.Now()
	l.stats.Departures++
	l.stats.DepartureBytes += uint64(p.Size)
	for _, t := range l.departs {
		t.OnDepart(p, now)
	}
	l.deliver(p, now)
	l.busy = false
	if l.queue.Len() > 0 {
		l.startTransmit()
	}
}
