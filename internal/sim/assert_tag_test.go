//go:build pdosassert

package sim

import (
	"strings"
	"testing"
)

// mustPanic runs fn and returns the recovered panic message, failing the
// test if fn returns normally.
func mustPanic(t *testing.T, fn func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				if s, ok := r.(string); ok {
					msg = s
				} else {
					msg = "non-string panic"
				}
			}
		}()
		fn()
		t.Fatal("expected a pdosassert panic, ran to completion")
	}()
	return msg
}

// TestAssertFireOrderViolationCaught drives the raw kernel into the exact
// situation the parallel engine must never create: a boundary event whose
// (when, at) key lands in the kernel's already-fired past. No exported
// schedule can file one there — AtArgStamped raises a same-instant stamp to
// the kernel's position — so the test files it through the kernel's own
// alloc and enqueue. The pdosassert firing-order monitor must trip.
func TestAssertFireOrderViolationCaught(t *testing.T) {
	k := New()
	// An event scheduled at instant 3 for instant 5: after it fires, the
	// kernel's last fired key is (when=5, at=3).
	if _, err := k.At(3, func() {}); err != nil {
		t.Fatal(err)
	}
	fired := false
	k.AfterTicks(0, func() {}) // advance origin bookkeeping deterministically
	if err := k.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if _, err := k.At(5, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("setup event did not fire")
	}
	// A boundary event for the same instant 5 but stamped at=0 sorts BEFORE
	// the event that already fired — a serial kernel would have run it
	// first, so firing it now is a determinism violation.
	ev := k.alloc(5)
	ev.at = 0
	ev.h = handlerFunc(func(any) {})
	k.enqueue(ev)
	msg := mustPanic(t, func() { _ = k.Run() })
	if !strings.Contains(msg, "fired out of order") {
		t.Fatalf("wrong panic: %q", msg)
	}
}

// TestAssertFireOrderCleanRun pins the other side: ordinary scheduling —
// including same-instant ties and callback-time rescheduling — never trips
// the monitor.
func TestAssertFireOrderCleanRun(t *testing.T) {
	k := New()
	n := 0
	for i := 0; i < 100; i++ {
		k.AfterTicks(Time(i%7)*Millisecond, func() { n++ })
	}
	k.AfterTicks(Millisecond, func() {
		k.AfterTicks(0, func() { n++ }) // same-instant reschedule from a callback
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 101 {
		t.Fatalf("fired %d, want 101", n)
	}
}

// TestAssertWheelBookkeeping empties the pending set five times while
// cancelled entries sit on every wheel level, each time with the wheel
// bookkeeping check armed. Events fire from shared and from single-entry
// slots, and cancelled ones are released by the run and by the purge. Then
// it miscounts wheelCount by one and checks that the next time the pending
// set empties, the check trips, and that a run left holding an entry when
// the pending set empties trips it too.
func TestAssertWheelBookkeeping(t *testing.T) {
	k := New()
	for round := Time(0); round < 5; round++ {
		var cancel []Timer
		for _, d := range []Time{0, 100 * Microsecond, 5 * Millisecond} {
			k.AfterTicks(d+round, func() {})
			cancel = append(cancel, k.AfterTicks(d+round, func() {}))
		}
		k.AfterTicks(7*Millisecond+round, func() {}) // alone in its slot
		for _, d := range []Time{50 * Microsecond, 200 * Millisecond, 300 * Millisecond, 60 * Second} {
			cancel = append(cancel, k.AfterTicks(d+round, func() {}))
		}
		for _, tm := range cancel {
			tm.Cancel()
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	k.AfterTicks(Millisecond, func() {})
	k.AfterTicks(2*Millisecond, func() {})
	k.wheelCount++
	msg := mustPanic(t, func() { _ = k.Run() })
	if !strings.Contains(msg, "wheel bookkeeping") {
		t.Fatalf("wrong panic: %q", msg)
	}
	k = New()
	k.run = []slotEntry{{ev: k.take()}} // an entry the purge missed
	msg = mustPanic(t, func() { k.emptied() })
	if !strings.Contains(msg, "the run holds 1 entries") {
		t.Fatalf("wrong panic: %q", msg)
	}
}

// TestAssertBoundaryConservation runs a two-shard ping-pong and checks the
// conservation accounting stays balanced through every barrier (a mismatch
// panics inside the barrier's swap).
func TestAssertBoundaryConservation(t *testing.T) {
	e := NewEngine(2)
	a, b := e.Shard(0), e.Shard(1)
	var hops int
	var outAB, outBA *Outbox
	mk := func(s *Shard, out **Outbox) int32 {
		return s.RegisterPort(portFunc(func(k *Kernel, when, at Time, w *Payload) {
			if _, err := k.AtArgStamped(when, at, handlerFunc(func(any) {
				hops++
				if hops < 10 {
					(*out).Send(k.Now()+Millisecond, k.Now(), &Payload{})
				}
			}), nil); err != nil {
				t.Error(err)
			}
		}))
	}
	pa := mk(a, &outAB)
	pb := mk(b, &outBA)
	var err error
	outAB, err = e.NewOutbox(a, b, pb, Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	outBA, err = e.NewOutbox(b, a, pa, Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	a.Kernel().AfterTicks(0, func() { outAB.Send(Millisecond, 0, &Payload{}) })
	defer e.Close()
	if err := e.RunUntil(20 * Millisecond); err != nil {
		t.Fatal(err)
	}
	if hops < 10 {
		t.Fatalf("ping-pong stalled at %d hops", hops)
	}
}

// portFunc adapts a function to the Port interface for tests.
type portFunc func(k *Kernel, when, at Time, w *Payload)

func (f portFunc) Inject(k *Kernel, when, at Time, w *Payload) { f(k, when, at, w) }
