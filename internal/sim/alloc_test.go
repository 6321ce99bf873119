package sim

import (
	"math/rand"
	"testing"
)

// warmKernel populates the free list and heap capacity so steady-state
// measurements don't see one-time slice growth.
func warmKernel(k *Kernel, fn func()) {
	for i := 0; i < 64; i++ {
		k.AfterTicks(Time(i+1), fn)
	}
	for k.Step() {
	}
}

// TestScheduleFireAllocs locks in the free-list contract: once warm, the
// schedule→fire cycle recycles event structs and allocates nothing.
func TestScheduleFireAllocs(t *testing.T) {
	k := New()
	fn := func() {}
	warmKernel(k, fn)
	allocs := testing.AllocsPerRun(1000, func() {
		k.AfterTicks(1, fn)
		k.Step()
	})
	if allocs != 0 {
		t.Errorf("schedule+fire allocates %.2f/op, want 0", allocs)
	}
}

// TestScheduleFireArgAllocs covers the argument-carrying path: boxing a
// pointer into the event's any slot must not allocate either.
func TestScheduleFireArgAllocs(t *testing.T) {
	k := New()
	h := handlerFunc(func(any) {})
	warmKernel(k, func() {})
	arg := &struct{ n int }{}
	allocs := testing.AllocsPerRun(1000, func() {
		k.AtArgStamped(k.Now()+1, k.Now(), h, arg)
		k.Step()
	})
	if allocs != 0 {
		t.Errorf("schedule+fire with arg allocates %.2f/op, want 0", allocs)
	}
}

// handlerFunc adapts a func(any) to a Handler for tests.
type handlerFunc func(arg any)

func (f handlerFunc) Fire(arg any) { f(arg) }

// countingHandler is a component that is its own event handler.
type countingHandler struct{ fired int }

func (c *countingHandler) Fire(any) { c.fired++ }

// TestHandlerFormsAllocs: At stores its func() as a Handler, and a
// component schedules its own pointer as one; a func and a pointer both
// ride the interface word, so neither At plus fire nor a stamped handler
// plus fire allocates.
func TestHandlerFormsAllocs(t *testing.T) {
	k := New()
	fired := 0
	fn := func() { fired++ }
	warmKernel(k, fn)
	if allocs := testing.AllocsPerRun(1000, func() {
		k.At(k.Now()+1, fn)
		k.Step()
	}); allocs != 0 {
		t.Errorf("At+fire allocates %.2f/op, want 0", allocs)
	}
	c := &countingHandler{}
	arg := &struct{ n int }{}
	if allocs := testing.AllocsPerRun(1000, func() {
		k.AtArgStamped(k.Now()+1, k.Now(), c, arg)
		k.Step()
	}); allocs != 0 {
		t.Errorf("stamped handler+fire allocates %.2f/op, want 0", allocs)
	}
	if fired < 1000 || c.fired < 1000 {
		t.Errorf("fired %d funcs and %d handlers, want at least 1000 each", fired, c.fired)
	}
}

// TestScheduleCancelAllocs locks in the cancel path: schedule→cancel also
// recycles through the free list without allocating.
func TestScheduleCancelAllocs(t *testing.T) {
	k := New()
	fn := func() {}
	warmKernel(k, fn)
	allocs := testing.AllocsPerRun(1000, func() {
		tm := k.AfterTicks(100, fn)
		tm.Cancel()
	})
	if allocs != 0 {
		t.Errorf("schedule+cancel allocates %.2f/op, want 0", allocs)
	}
}

// TestWheelCancelAllocs covers lazy cancel and slot-block recycling: with a
// standing population of self-rescheduling timers 1–300 ms out, a
// schedule→Cancel→RunUntil cycle whose runs cross level-1 and level-2 slot
// boundaries (cascades, drains, cancelled entries released there) allocates
// nothing once warm — events and blocks both come back to their free lists.
func TestWheelCancelAllocs(t *testing.T) {
	k := New()
	r := rand.New(rand.NewSource(3))
	offsets := make([]Time, 256)
	for i := range offsets {
		offsets[i] = Millisecond + Time(r.Int63n(int64(299*Millisecond)))
	}
	next := 0
	offset := func() Time {
		next++
		return offsets[next&255]
	}
	var rearm func()
	rearm = func() { k.AfterTicks(offset(), rearm) }
	for i := 0; i < 2000; i++ {
		k.AfterTicks(offset(), rearm)
	}
	fn := func() {}
	cycle := func() {
		tm := k.AfterTicks(offset(), fn)
		tm.Cancel()
		if err := k.RunUntil(k.Now() + Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ { // one virtual second warms every free list
		cycle()
	}
	allocs := testing.AllocsPerRun(1000, cycle)
	if allocs != 0 {
		t.Errorf("schedule+cancel+run with a standing population allocates %.2f/op, want 0", allocs)
	}
}
