package tcp

import (
	"testing"
	"time"

	"pulsedos/internal/netem"
	"pulsedos/internal/sim"
	"pulsedos/internal/trace"
)

// dropFilter sits between the forward link and the receiver, dropping
// selected (seq, occurrence) pairs so tests can inject precise loss
// patterns.
type dropFilter struct {
	next    netem.Node
	drops   map[int64]int // seq → remaining occurrences to drop
	dropAll bool          // blackhole mode
	dropped int
	seen    map[int64]int
}

func newDropFilter(next netem.Node) *dropFilter {
	return &dropFilter{next: next, drops: make(map[int64]int), seen: make(map[int64]int)}
}

// dropOnce schedules the next arrival of seq to be dropped.
func (f *dropFilter) dropOnce(seq int64) { f.drops[seq]++ }

// dropTimes schedules the next n arrivals of seq to be dropped.
func (f *dropFilter) dropTimes(seq int64, n int) { f.drops[seq] += n }

func (f *dropFilter) Receive(p *netem.Packet) {
	if p.Class == netem.ClassData {
		f.seen[p.Seq]++
		if f.dropAll || f.drops[p.Seq] > 0 {
			if !f.dropAll {
				f.drops[p.Seq]--
			}
			f.dropped++
			return
		}
	}
	f.next.Receive(p)
}

// loopback is a single TCP connection over two clean links with a drop
// filter in front of the receiver.
type loopback struct {
	k        *sim.Kernel
	sender   *Sender
	receiver *Receiver
	filter   *dropFilter
	account  *trace.FlowAccount
}

// newLoopback wires a connection with the given one-way delay and link rate.
func newLoopback(t *testing.T, cfg Config, rate float64, owd sim.Time) *loopback {
	t.Helper()
	k := sim.New()
	account := trace.NewFlowAccount()

	lb := &loopback{k: k, account: account}

	// Reverse link: receiver → sender. The sender is created first against
	// a placeholder, so build links in dependency order using a relay.
	var senderNode netem.Node
	revRelay := netem.NodeFunc(func(p *netem.Packet) { senderNode.Receive(p) })
	revLink, err := netem.NewLink(k, "rev", rate, owd, netem.NewDropTail(1<<16), revRelay)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := NewReceiver(k, cfg, 1, revLink, account)
	if err != nil {
		t.Fatal(err)
	}
	lb.receiver = receiver
	lb.filter = newDropFilter(receiver)

	fwdLink, err := netem.NewLink(k, "fwd", rate, owd, netem.NewDropTail(1<<16), lb.filter)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := NewSender(k, cfg, 1, fwdLink)
	if err != nil {
		t.Fatal(err)
	}
	lb.sender = sender
	senderNode = sender
	return lb
}

// run starts the transfer at t=0 and advances virtual time by d.
func (lb *loopback) run(t *testing.T, d time.Duration) {
	t.Helper()
	if err := lb.sender.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := lb.k.RunUntil(sim.FromDuration(d)); err != nil {
		t.Fatal(err)
	}
}

// resume advances virtual time by a further d.
func (lb *loopback) resume(t *testing.T, d time.Duration) {
	t.Helper()
	if err := lb.k.RunUntil(lb.k.Now() + sim.FromDuration(d)); err != nil {
		t.Fatal(err)
	}
}
