package sim

import (
	"errors"
	"time"
)

// ErrPastTime is returned when an event is scheduled before the current
// virtual instant. The kernel never travels backwards.
var ErrPastTime = errors.New("sim: event scheduled in the past")

// Sentinel values for event.index. Non-negative indices locate the event in
// the overflow heap.
const (
	idxNone      = -1 // not pending: fired, cancelled and released, or on the free list
	idxWheel     = -2 // pending, filed in a timer-wheel slot
	idxCancelled = -3 // cancelled while filed in a slot; released when its slot drains
	idxLone      = -4 // the only pending event, held in Kernel.lone
)

// event is a single pending callback in the kernel's pending set. Fired and
// cancelled events are recycled through the kernel's free list, so a
// steady-state simulation schedules without allocating; the generation
// counter lets outstanding Timer handles detect that their event has been
// cancelled or reused. The struct is 64 bytes, one cache line: the wheel
// files events by reference from its slot blocks (wheel.go), so it needs no
// link fields.
type event struct {
	when Time
	at   Time   // virtual instant the event was scheduled (see before)
	seq  uint64 // tie-breaker: FIFO among events at the same instant
	fn   func()

	// argFn/arg is the closure-free variant used by the packet hot path:
	// scheduling a prebuilt func(any) with a pointer argument performs no
	// allocation, where capturing the pointer in a fresh closure would.
	argFn func(any)
	arg   any

	index int32  // heap index, or one of the idx sentinels
	gen   uint32 // incremented on cancel and every time the event returns to the free list
}

// before reports the (when, at, seq) firing order. For events scheduled
// locally this is exactly the classic (when, seq) order — seq is monotone in
// schedule time, so comparing at first can never disagree with seq — but the
// extra key is what lets the parallel engine's boundary events (InjectArg)
// slot into the order the serial kernel would have produced: an injected
// event carries the virtual instant it was scheduled at in its source shard,
// and therefore sorts against local events exactly where the serial run's
// schedule sequence would have placed it.
func (e *event) before(o *event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Timer is a handle to a scheduled event. The zero value is an inactive
// timer: Cancel and Active report false and are safe to call. Timers are
// value handles — copying one is cheap and all copies refer to the same
// scheduled event.
type Timer struct {
	k    *Kernel
	ev   *event
	gen  uint32
	when Time
}

// valid reports whether the handle still refers to its original event (the
// event has neither fired nor been cancelled nor been recycled).
func (t *Timer) valid() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen
}

// Cancel removes the timer's pending event. Cancelling an already-fired or
// already-cancelled timer is a no-op. It reports whether the event was still
// pending.
func (t *Timer) Cancel() bool {
	if !t.valid() {
		return false
	}
	t.k.cancel(t.ev)
	return true
}

// Active reports whether the timer's event is still pending.
func (t *Timer) Active() bool {
	return t.valid()
}

// When reports the virtual instant at which the timer fires (or fired).
func (t *Timer) When() Time {
	if t == nil {
		return 0
	}
	return t.when
}

// Kernel is a deterministic discrete-event scheduler. It is not safe for
// concurrent use: all model code runs inside event callbacks on a single
// goroutine, which is both how ns-2 behaves and what makes runs reproducible.
// The single-goroutine invariant is also what makes the event free list
// safe — see DESIGN.md's Performance section.
//
// The pending set is split between a hierarchical timing wheel (near future,
// O(1) insert and lazy O(1) cancel — see wheel.go), an inlined 4-ary index
// heap (events beyond the wheel horizon, and events behind the floor — which
// leads the clock only right after a slot drain or cascade, because an empty
// wheel snaps its floor to the clock rather than to the next event), and
// Kernel.lone, which holds the only pending event outside both. The firing
// order is exactly (when, at, seq) — identical to a pure heap — because due
// wheel slots are drained through the heap before anything in them fires.
// The heap is inlined rather than container/heap: no interface dispatch, no
// `any` boxing on push/pop, and a shallower tree than a binary heap (fewer
// cache-missing levels per sift).
type Kernel struct {
	now       Time
	nowAt     Time     // schedule stamp (`at`) of the most recently fired event
	events    []*event // 4-ary min-heap ordered by (when, seq)
	free      []*event // recycled event structs
	seq       uint64
	processed uint64
	limit     uint64 // 0 = unlimited
	pending   int    // live events: lone + heap + uncancelled wheel entries
	lone      *event // the only pending event, held outside wheel and heap; else nil

	// ---- hierarchical timing wheel (see wheel.go) ----
	heapOnly   bool // true: bypass the wheel entirely (golden-reference mode)
	wheelCount int  // entries in wheel slots, cancelled ones included
	upperCount int  // subset of wheelCount resident in levels 1..2
	floor      Time // wheel mapping origin: every entry has when >= floor
	occupied   [wheelLevels][wheelSlots / 64]uint64
	wheel      [wheelLevels][wheelSlots]wheelSlot // slot headers: newest block and entry count
	freeBlocks []*wheelBlock                      // recycled slot blocks
	blocks     int                                // blocks ever allocated: each is in a slot or on freeBlocks

	// asserts is the pdosassert invariant state: zero-size and unused in
	// normal builds, the last fired (when, at, seq) key under -tags
	// pdosassert (see assert.go).
	asserts kernelAsserts
}

// New returns a kernel with the clock at the virtual origin, using the
// hierarchical timing wheel for near-future events.
func New() *Kernel {
	k := &Kernel{}
	k.setFloor(0)
	return k
}

// NewHeapKernel returns a kernel that keeps every pending event in the 4-ary
// heap, bypassing the timing wheel. It fires events in exactly the same
// (when, seq) order as New — this is the golden reference the wheel kernel is
// equivalence-tested against, and the baseline BenchmarkKernelPending10kHeap
// measures.
func NewHeapKernel() *Kernel {
	k := New()
	k.heapOnly = true
	return k
}

// Now reports the current virtual instant.
func (k *Kernel) Now() Time {
	return k.now
}

// Pending reports the number of events waiting to fire.
func (k *Kernel) Pending() int {
	return k.pending
}

// Processed reports the total number of events fired so far.
func (k *Kernel) Processed() uint64 {
	return k.processed
}

// SetEventLimit bounds the total number of events the kernel will process;
// Run and RunUntil return ErrEventLimit once the budget is exhausted. A
// limit of zero (the default) disables the bound. The limit is a guard rail
// against runaway scenarios in tests and fuzzing, not a tuning knob.
func (k *Kernel) SetEventLimit(n uint64) {
	k.limit = n
}

// ErrEventLimit is returned by Run and RunUntil when the event budget set by
// SetEventLimit is exhausted.
var ErrEventLimit = errors.New("sim: event limit exceeded")

// ---- heap primitives (4-ary, index-maintaining) ----

// push appends ev and restores the heap invariant.
//
//pdos:hotpath
func (k *Kernel) push(ev *event) {
	k.events = append(k.events, ev)
	k.siftUp(len(k.events) - 1)
}

// siftUp moves the event at index i toward the root until ordered.
//
//pdos:hotpath
func (k *Kernel) siftUp(i int) {
	h := k.events
	ev := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if !ev.before(p) {
			break
		}
		h[i] = p
		p.index = int32(i)
		i = parent
	}
	h[i] = ev
	ev.index = int32(i)
}

// siftDown moves the event at index i toward the leaves until ordered.
//
//pdos:hotpath
func (k *Kernel) siftDown(i int) {
	h := k.events
	n := len(h)
	ev := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		bv := h[first]
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(bv) {
				best, bv = c, h[c]
			}
		}
		if !bv.before(ev) {
			break
		}
		h[i] = bv
		bv.index = int32(i)
		i = best
	}
	h[i] = ev
	ev.index = int32(i)
}

// remove deletes the event at heap index i.
//
//pdos:hotpath
func (k *Kernel) remove(i int) {
	h := k.events
	n := len(h) - 1
	ev := h[i]
	if i != n {
		moved := h[n]
		h[i] = moved
		moved.index = int32(i)
		h[n] = nil
		k.events = h[:n]
		if moved.before(ev) {
			k.siftUp(i)
		} else {
			k.siftDown(i)
		}
	} else {
		h[n] = nil
		k.events = h[:n]
	}
	ev.index = idxNone
}

// ---- event free list ----

// alloc takes an event struct from the free list (or the heap allocator when
// the list is empty) and initializes it for scheduling at t.
//
//pdos:hotpath
func (k *Kernel) alloc(t Time) *event {
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.when = t
	ev.at = k.now
	ev.seq = k.seq
	k.seq++
	return ev
}

// release returns a fired or cancelled event to the free list. Bumping the
// generation invalidates every outstanding Timer handle to it, so a recycled
// struct can never be cancelled through a stale handle.
//
//pdos:hotpath
func (k *Kernel) release(ev *event) {
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
	ev.index = idxNone
	ev.gen++
	k.free = append(k.free, ev)
}

// ---- scheduling ----

// enqueue adds a freshly allocated event to the pending set. The only
// pending event is held in k.lone, so a chain of one timer at a time never
// touches the wheel; the next schedule files the held event first.
//
//pdos:hotpath
func (k *Kernel) enqueue(ev *event) {
	k.pending++ //pdos:counter kernel-pending inc — one event enters the pending set
	if k.heapOnly {
		k.push(ev)
		return
	}
	if k.pending == 1 {
		ev.index = idxLone
		k.lone = ev
		return
	}
	if held := k.lone; held != nil {
		k.lone = nil
		k.insert(held)
	}
	k.insert(ev)
}

// insert files ev in the wheel when its instant maps onto a live slot, and
// pushes it to the heap otherwise (instants behind a floor a slot drain or
// cascade moved past the clock, or beyond the wheel horizon).
//
//pdos:hotpath
func (k *Kernel) insert(ev *event) {
	if k.wheelCount == 0 {
		// Empty wheel: nothing constrains the mapping origin, so snap it to
		// the clock. Every later schedule is at or after now, so none lands
		// behind the floor. Snapping to ev.when instead would let a far
		// first event leave the floor ahead of the clock and send every
		// nearer event to the heap until the wheel next emptied.
		if k.floor != k.now {
			k.setFloor(k.now)
		}
	} else if ev.when < k.floor {
		k.push(ev)
		return
	}
	if k.file(slotEntry{when: ev.when, ev: ev}) {
		ev.index = idxWheel
		return
	}
	k.push(ev)
}

// cancel removes a pending event. Heap-resident and held events leave at
// once; a wheel-resident one is only marked, and its entry stays in its slot
// until locate drains the slot or the pending set empties (wheel.go).
//
//pdos:hotpath
func (k *Kernel) cancel(ev *event) {
	k.pending-- //pdos:counter kernel-pending dec — the event is cancelled
	switch {
	case ev.index >= 0:
		k.remove(int(ev.index))
		k.release(ev)
	case ev.index == idxWheel:
		ev.index = idxCancelled
		ev.fn = nil
		ev.argFn = nil
		ev.arg = nil
		ev.gen++
	default:
		k.lone = nil
		k.release(ev)
	}
	if k.pending == 0 {
		k.emptied()
	}
}

// emptied runs each time the pending set empties. Any entry still in the
// wheel is a cancelled one; purging them lets the next schedule snap the
// floor to the clock.
//
//pdos:hotpath
func (k *Kernel) emptied() {
	if k.wheelCount > 0 {
		k.purge()
	}
	k.assertWheel()
}

// At schedules fn to run at the absolute virtual instant t. Events at equal
// instants fire in the order they were scheduled.
//
//pdos:hotpath
func (k *Kernel) At(t Time, fn func()) (Timer, error) {
	if t < k.now {
		return Timer{}, ErrPastTime
	}
	ev := k.alloc(t)
	ev.fn = fn
	k.enqueue(ev)
	return Timer{k: k, ev: ev, gen: ev.gen, when: t}, nil
}

// AtArg schedules fn(arg) at the absolute virtual instant t. This is the
// allocation-free flavour for hot paths: fn is typically built once per
// component, and arg (commonly a *Packet) rides in the event instead of a
// freshly captured closure.
//
//pdos:hotpath
func (k *Kernel) AtArg(t Time, fn func(any), arg any) (Timer, error) {
	if t < k.now {
		return Timer{}, ErrPastTime
	}
	ev := k.alloc(t)
	ev.argFn = fn
	ev.arg = arg
	k.enqueue(ev)
	return Timer{k: k, ev: ev, gen: ev.gen, when: t}, nil
}

// After schedules fn to run d after the current instant. Negative delays are
// clamped to zero, so After never fails.
func (k *Kernel) After(d time.Duration, fn func()) Timer {
	return k.AfterTicks(FromDuration(d), fn)
}

// AfterTicks schedules fn to run delta virtual nanoseconds after the current
// instant. Negative deltas are clamped to zero; deltas so large that
// now+delta would overflow are clamped to MaxTime, the last representable
// instant.
func (k *Kernel) AfterTicks(delta Time, fn func()) Timer {
	tm, _ := k.At(k.clampDelta(delta), fn)
	return tm
}

// AfterTicksArg is the closure-free counterpart of AfterTicks: it schedules
// the prebuilt fn with arg after delta virtual nanoseconds.
//
//pdos:hotpath
func (k *Kernel) AfterTicksArg(delta Time, fn func(any), arg any) Timer {
	tm, _ := k.AtArg(k.clampDelta(delta), fn, arg)
	return tm
}

// clampDelta resolves now+delta with saturation: negative deltas clamp to
// now, and deltas that would wrap past MaxTime clamp to MaxTime.
//
//pdos:hotpath
func (k *Kernel) clampDelta(delta Time) Time {
	if delta < 0 {
		return k.now
	}
	t := k.now + delta
	if t < k.now {
		return MaxTime
	}
	return t
}

// ---- execution ----

// fire removes ev — which locate() just proved is the global (when, seq)
// minimum — from the pending set, advances the clock, and runs its callback.
//
//pdos:hotpath
func (k *Kernel) fire(ev *event) {
	k.assertFire(ev)
	k.pending-- //pdos:counter kernel-pending dec — the event fires
	switch {
	case ev.index >= 0:
		k.remove(int(ev.index))
	case ev.index == idxWheel:
		k.unslot(ev)
	default:
		k.lone = nil
	}
	if k.pending == 0 {
		k.emptied()
	}
	k.now = ev.when
	k.nowAt = ev.at
	k.processed++
	if ev.argFn != nil {
		fn, arg := ev.argFn, ev.arg
		k.release(ev)
		fn(arg)
	} else {
		fn := ev.fn
		k.release(ev)
		fn()
	}
}

// Step fires the single earliest pending event. It reports false when the
// queue is empty.
//
//pdos:hotpath
func (k *Kernel) Step() bool {
	ev := k.locate()
	if ev == nil {
		return false
	}
	k.fire(ev)
	return true
}

// PeekNext reports the instant of the earliest pending event without firing
// or detaching it; ok is false when nothing is pending. Peeking may advance
// the timing wheel's internal cascade (locate's contract), but the pending
// set and its order are untouched, so any number of peeks between Run calls
// observe the same front. The parallel engine's adaptive barrier uses this
// to size lookahead windows to the measured event horizon.
func (k *Kernel) PeekNext() (Time, bool) {
	ev := k.locate()
	if ev == nil {
		return 0, false
	}
	return ev.when, true
}

// Run fires events until the queue drains or the event budget is exhausted.
func (k *Kernel) Run() error {
	for k.Step() {
		if k.limit > 0 && k.processed >= k.limit {
			return ErrEventLimit
		}
	}
	return nil
}

// RunUntil fires all events scheduled at or before the virtual instant t,
// then advances the clock to exactly t. Events scheduled after t remain
// pending.
func (k *Kernel) RunUntil(t Time) error {
	for {
		ev := k.locate()
		if ev == nil || ev.when > t {
			break
		}
		k.fire(ev)
		if k.limit > 0 && k.processed >= k.limit {
			return ErrEventLimit
		}
	}
	if t > k.now {
		k.now = t
	}
	return nil
}

// RunFor advances the simulation by the given wall-duration of virtual time.
func (k *Kernel) RunFor(d time.Duration) error {
	return k.RunUntil(k.now + FromDuration(d))
}

// RunBefore fires all events scheduled strictly before the virtual instant t,
// then advances the clock to exactly t. It is the window-execution primitive
// of the conservative parallel engine (see parallel.go): a shard runs to the
// window edge exclusively, so that boundary events injected at the barrier
// for instant t still order against local events at t through the full
// (when, at, seq) comparator rather than having already fired past them.
func (k *Kernel) RunBefore(t Time) error {
	for {
		ev := k.locate()
		if ev == nil || ev.when >= t {
			break
		}
		k.fire(ev)
		if k.limit > 0 && k.processed >= k.limit {
			return ErrEventLimit
		}
	}
	if t > k.now {
		k.now = t
	}
	return nil
}

// AtArgStamped schedules fn(arg) at the absolute instant `when`, carrying an
// explicit schedule stamp `at` in place of the current instant. It is the
// local-kernel counterpart of InjectArg, built for event fusion: a fused link
// delivery fires at tx-done+delay but must sort at the (when, at, seq) slot
// the golden two-event path's delivery — scheduled at tx-done — would have
// occupied, so the fused schedule back-stamps `at` to the tx-done instant.
// Stamps are clamped: a stamp after `when` collapses to `when`, and a
// same-instant schedule (`when == now`) raises the stamp to at least the
// stamp of the currently firing event — the event must fire after the
// current one, so a smaller stamp would both break the strictly increasing
// (when, at, seq) firing order (the pdosassert invariant) and claim a
// sub-instant position that has already passed. For the fused link this
// clamp is exactly the "did the golden tx-done already fire this instant?"
// test: if position (now, at) passed, golden's transmitter is already free
// and its restart would happen at the current sub-instant position, which is
// where the clamped event lands. Scheduling in the past still fails with
// ErrPastTime.
//
//pdos:hotpath
func (k *Kernel) AtArgStamped(when, at Time, fn func(any), arg any) (Timer, error) {
	if when < k.now {
		return Timer{}, ErrPastTime
	}
	if at > when {
		at = when
	}
	if when == k.now && at < k.nowAt {
		at = k.nowAt
	}
	ev := k.alloc(when)
	ev.at = at
	ev.argFn = fn
	ev.arg = arg
	k.enqueue(ev)
	return Timer{k: k, ev: ev, gen: ev.gen, when: when}, nil
}

// InjectArg schedules fn(arg) at the absolute instant `when`, carrying the
// foreign schedule stamp `at` — the virtual instant the event was created in
// its source shard. It is the boundary-event entry point of the parallel
// engine: injected events interleave with locally scheduled ones in the same
// (when, at, seq) order the serial kernel would have produced, because a
// serial kernel would have assigned the event a seq drawn at exactly that
// source instant. Callers must present injections in deterministic order:
// ties at identical (when, at) fall back to the local seq counter.
func (k *Kernel) InjectArg(when, at Time, fn func(any), arg any) error {
	if when < k.now {
		return ErrPastTime
	}
	if at > when {
		at = when
	}
	ev := k.alloc(when)
	ev.at = at
	ev.argFn = fn
	ev.arg = arg
	k.enqueue(ev)
	return nil
}
