package sim

import "errors"

// ErrPastTime is returned when an event is scheduled before the current
// virtual instant. The kernel never travels backwards.
var ErrPastTime = errors.New("sim: event scheduled in the past")

// Sentinel values for event.index. Non-negative indices locate the event in
// the overflow heap.
const (
	idxNone      = -1 // not pending: fired, cancelled and released, or on the free list
	idxWheel     = -2 // pending, filed in a timer-wheel slot or waiting in the run
	idxCancelled = -3 // cancelled while filed in a slot or the run; released when the run reaches it
	idxRun       = -4 // pending, at the head of the run: locate has chosen it to fire next
)

// Handler is what an event runs: when the event fires, the kernel calls
// Fire with the argument it was scheduled with. A component is its own
// handler — its pointer, often converted to a named type whose Fire does one
// job, like netem's (*deliverHop)(link) — so a fire reaches the component
// through one interface call, with no closure object between the event and
// the component's state. Pointers, funcs, maps and chans convert to a
// Handler without allocating, and so does a pointer argument to any.
type Handler interface {
	Fire(arg any)
}

// funcHandler adapts At's func() to a Handler; it ignores the argument.
type funcHandler func()

// Fire implements Handler.
func (f funcHandler) Fire(any) { f() }

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
	h    Handler
	arg  any // passed to h.Fire

	index int32  // heap index, or one of the idx sentinels
	gen   uint32 // incremented on cancel and every time the event returns to the free list
}

// before reports the (when, at, seq) firing order. Among events stamped with
// the clock when they are scheduled this is the classic (when, seq) order —
// seq is monotone in schedule time, so comparing at first can never disagree
// with seq. The stamp is what lets an event sort where another schedule
// would have placed it: the parallel engine's boundary events carry the
// virtual instant they were scheduled at in their source shard, so they sort
// against local events exactly where the serial run's schedule sequence
// would have placed them, and a fused link's deliveries and chain events
// carry the golden schedule's stamps and keys (AtArgStamped, AtKeyed).
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
// O(1) insert and lazy O(1) cancel — see wheel.go) and an inlined 4-ary
// index heap (events beyond the wheel horizon, and events behind the floor —
// which leads the clock only right after a slot drain or cascade, because an
// empty wheel snaps its floor to the clock rather than to the next event).
// The firing order is exactly (when, at, seq) — identical to a pure heap —
// because a due wheel slot with more than one entry is drained into the run,
// a kernel-owned copy of its entries sorted into that order, and the run's
// head fires only after it has been compared with the heap minimum. The heap
// is inlined rather than container/heap: no interface dispatch, no `any`
// boxing on push/pop, and a shallower tree than a binary heap (fewer
// cache-missing levels per sift).
//
// The kernel's position in that order is (now, nowAt, nowSeq): inside a
// fire, the firing event's key; after RunUntil(t), the end of instant t,
// past every key at t drawn so far; after RunBefore(t), the start of t,
// before every key at t. Passed, AtKeyed and AtArgStamped's same-instant
// raise read it, so they answer alike inside an event and at a window edge.
type Kernel struct {
	now       Time
	nowAt     Time     // position stamp: the firing event's `at`, or a window edge's
	nowSeq    uint64   // position seq: the firing event's seq, or a window edge's
	events    []*event // 4-ary min-heap ordered by (when, at, seq)
	free      []*event // recycled event structs
	seq       uint64
	processed uint64
	limit     uint64 // 0 = unlimited
	pending   int    // live events: heap + uncancelled wheel and run entries

	// ---- hierarchical timing wheel (see wheel.go) ----
	heapOnly   bool // true: bypass the wheel entirely (golden-reference mode)
	wheelCount int  // entries in wheel slots and the run, cancelled ones included
	upperCount int  // subset of wheelCount resident in levels 1..2
	floor      Time // wheel mapping origin: every slot entry has when >= floor
	occupied   [wheelLevels][wheelSlots / 64]uint64
	wheel      [wheelLevels][wheelSlots]wheelSlot // slot headers: newest block and entry count
	freeBlocks []*wheelBlock                      // recycled slot blocks
	blocks     int                                // blocks ever allocated: each is in a slot or on freeBlocks
	run        []slotEntry                        // a drained level-0 slot's unfired entries, in (when, at, seq) order
	runBuf     []slotEntry                        // the run's backing array, reused by every drain

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
// (when, at, seq) order as New — this is the golden reference the wheel
// kernel is equivalence-tested against, and the baseline
// BenchmarkKernelPending10kHeap measures.
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
// the list is empty) and initializes it for scheduling at t, stamped with the
// clock, on the next sequence number.
//
//pdos:hotpath
func (k *Kernel) alloc(t Time) *event {
	ev := k.take()
	ev.when = t
	ev.at = k.now
	ev.seq = k.seq
	k.seq++
	return ev
}

// take pops an event struct from the free list, or allocates one when the
// list is empty.
//
//pdos:hotpath
func (k *Kernel) take() *event {
	if n := len(k.free); n > 0 {
		ev := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return ev
	}
	return &event{}
}

// release returns a fired or cancelled event to the free list. Bumping the
// generation invalidates every outstanding Timer handle to it, so a recycled
// struct can never be cancelled through a stale handle.
//
//pdos:hotpath
func (k *Kernel) release(ev *event) {
	ev.h = nil
	ev.arg = nil
	ev.index = idxNone
	ev.gen++
	k.free = append(k.free, ev)
}

// ---- scheduling ----

// enqueue adds a freshly allocated event to the pending set: it files ev in
// the wheel when its instant maps onto a live slot, and pushes it to the
// heap otherwise (a heap-only kernel, instants behind a floor a slot drain
// or cascade moved past the clock, or beyond the wheel horizon). While the
// run holds entries, wheelCount counts them, so the floor stays at the end
// of the drained tick and an event scheduled into that tick goes behind the
// floor, into the heap, where locate weighs it against the run's head.
//
//pdos:hotpath
func (k *Kernel) enqueue(ev *event) {
	k.pending++ //pdos:counter kernel-pending inc — one event enters the pending set
	if k.heapOnly {
		k.push(ev)
		return
	}
	if k.wheelCount == 0 {
		// Empty wheel and run: nothing constrains the mapping origin, so
		// snap it to the clock. Every later schedule is at or after now, so none lands
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

// cancel removes a pending event. A heap-resident event leaves at once; a
// wheel-resident one is only marked, and its entry stays in its slot or the
// run until the run reaches it or the pending set empties (wheel.go).
//
//pdos:hotpath
func (k *Kernel) cancel(ev *event) {
	k.pending-- //pdos:counter kernel-pending dec — the event is cancelled
	if ev.index >= 0 {
		k.remove(int(ev.index))
		k.release(ev)
	} else {
		ev.index = idxCancelled
		ev.h = nil
		ev.arg = nil
		ev.gen++
	}
	if k.pending == 0 {
		k.emptied()
	}
}

// emptied runs each time the pending set empties. Any entry still in the
// wheel or the run is a cancelled one; purging them lets the next schedule
// snap the floor to the clock.
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
	ev.h = funcHandler(fn)
	k.enqueue(ev)
	return Timer{k: k, ev: ev, gen: ev.gen, when: t}, nil
}

// AfterTicks schedules fn to run delta virtual nanoseconds after the current
// instant. Negative deltas are clamped to zero; deltas so large that
// now+delta would overflow are clamped to MaxTime, the last representable
// instant.
func (k *Kernel) AfterTicks(delta Time, fn func()) Timer {
	tm, _ := k.At(k.clampDelta(delta), fn)
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

// fire removes ev — which locate() just proved is the global (when, at, seq)
// minimum — from the pending set, advances the clock, and runs its callback.
// The event is the only entry of its level-0 slot, the heap minimum, or the
// run's head; the single-entry case is tested first, since most events of a
// run with few flows fire from such slots.
//
//pdos:hotpath
func (k *Kernel) fire(ev *event) {
	k.assertFire(ev)
	k.pending-- //pdos:counter kernel-pending dec — the event fires
	if ev.index == idxWheel {
		k.unslot(ev)
	} else if ev.index >= 0 {
		k.remove(int(ev.index))
	} else {
		k.popRun()
	}
	if k.pending == 0 {
		k.emptied()
	}
	k.now = ev.when
	k.nowAt = ev.at
	k.nowSeq = ev.seq
	k.processed++
	h, arg := ev.h, ev.arg
	k.release(ev)
	h.Fire(arg)
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
// then advances the clock to exactly t and leaves the position at the end of
// t, (t, t, next seq): every key at t drawn so far has passed, as every
// event at t has fired. Events scheduled after t remain pending. A t behind
// the clock fires nothing and moves nothing.
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
	if t >= k.now {
		k.now, k.nowAt, k.nowSeq = t, t, k.seq
	}
	return nil
}

// RunBefore fires all events scheduled strictly before the virtual instant t,
// then advances the clock to exactly t and leaves the position at the start
// of t, where no key at t has passed. It is the window-execution primitive
// of the conservative parallel engine (see parallel.go): a shard runs to the
// window edge exclusively, so that boundary events injected at the barrier
// for instant t still order against local events at t through the full
// (when, at, seq) comparator rather than having already fired past them. A
// t at or behind the clock fires nothing and moves nothing.
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
		k.now, k.nowAt, k.nowSeq = t, minTime, 0
	}
	return nil
}

// AtArgStamped schedules h.Fire(arg) at the absolute instant `when`,
// carrying an explicit schedule stamp `at`. It is the form for hot paths: h
// is the component itself (see Handler), and arg (commonly a *Packet) rides
// in the event instead of a freshly captured closure, so scheduling
// allocates nothing and firing loads no closure. A stamp of Now() gives the
// key At would. The stamp is what lets an event sort where another schedule
// would have put it: a fused link delivery fires at tx-done+delay but must
// sort at the (when, at, seq) slot the golden two-event path's delivery —
// scheduled at tx-done — would have occupied, so the fused schedule
// back-stamps `at` to the tx-done instant; a shard's boundary event carries
// the stamp its source gave it (Port). Stamps are clamped: a stamp after
// `when` collapses to `when`, and a same-instant schedule (`when == now`)
// raises the stamp to at least the position's (see Kernel) — the event must
// fire after the current one, so a smaller stamp would both break the
// strictly increasing (when, at, seq) firing order (the pdosassert
// invariant) and claim a sub-instant position that has already passed. At
// the start of an instant (after RunBefore) nothing at it has passed, so no
// stamp is raised there. An event that must take the exact key of an event
// the golden schedule would have scheduled earlier — a fused link's chain,
// on golden's tx-done key — reserves its seq then (ReserveSeq) and schedules
// through AtKeyed instead. Scheduling in the past still fails with
// ErrPastTime.
//
//pdos:hotpath
func (k *Kernel) AtArgStamped(when, at Time, h Handler, arg any) (Timer, error) {
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
	ev.h = h
	ev.arg = arg
	k.enqueue(ev)
	return Timer{k: k, ev: ev, gen: ev.gen, when: when}, nil
}

// ReserveSeq draws the next schedule sequence number without scheduling
// anything. An event scheduled later on it through AtKeyed sorts among
// same-(when, at) events exactly where an event scheduled now would have: a
// fused link reserves, when a serialization starts, the seq golden's tx-done
// event would draw there, and arms its chain on that key only if backlog
// builds.
func (k *Kernel) ReserveSeq() uint64 {
	seq := k.seq
	k.seq++
	return seq
}

// Passed reports whether an event on the key (when, at, seq) would already
// have fired: the key sorts before the kernel's position (see Kernel).
// Inside a fire at now, a key at now has passed when its (at, seq) sorts
// before the firing event's; after RunUntil(now), every key at now drawn so
// far has; after RunBefore(now), none has.
//
//pdos:hotpath
func (k *Kernel) Passed(when, at Time, seq uint64) bool {
	if when != k.now {
		return when < k.now
	}
	if at != k.nowAt {
		return at < k.nowAt
	}
	return seq < k.nowSeq
}

// AtKeyed schedules h.Fire(arg) on the exact key (when, at, seq), with seq
// taken from ReserveSeq: the event sorts where an event scheduled when the
// seq was reserved, stamped at, would have. A stamp after `when` collapses to
// `when`, as in AtArgStamped. A key that has passed (see Passed) fails with
// ErrPastTime, since the event could not fire after the current one.
//
//pdos:hotpath
func (k *Kernel) AtKeyed(when, at Time, seq uint64, h Handler, arg any) (Timer, error) {
	if at > when {
		at = when
	}
	if k.Passed(when, at, seq) {
		return Timer{}, ErrPastTime
	}
	ev := k.take()
	ev.when = when
	ev.at = at
	ev.seq = seq
	ev.h = h
	ev.arg = arg
	k.enqueue(ev)
	return Timer{k: k, ev: ev, gen: ev.gen, when: when}, nil
}
