package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// firing is one observed callback: the instant the clock showed and the
// identity the scheduler attached. Two kernels are equivalent iff their
// firing logs are identical element for element.
type firing struct {
	at Time
	id int
}

// runProgram executes the same schedule/cancel program against k and returns
// the firing log. The program is driven by its own deterministic RNG so both
// kernels see byte-identical decisions: a mix of immediate schedules, nested
// schedules from inside callbacks, and cancellations, with offsets drawn to
// straddle every wheel boundary (tick, slot, level-1, level-2, horizon).
func runProgram(k *Kernel, seed int64, ops int) []firing {
	r := rand.New(rand.NewSource(seed))
	var log []firing
	var timers []Timer
	id := 0
	// Offset classes per wheel geometry: within a tick, within level 0,
	// level 1, level 2, and beyond the horizon (heap overflow).
	offset := func() Time {
		switch r.Intn(8) {
		case 0:
			return Time(r.Int63n(1 << tickShift)) // sub-tick
		case 1:
			return 1<<tickShift - 1 + Time(r.Int63n(3)) // tick boundary
		case 2:
			return Time(r.Int63n(1 << l1Shift)) // level 0
		case 3:
			return 1<<l1Shift - 1 + Time(r.Int63n(3)) // level-0/1 epoch boundary
		case 4:
			return Time(r.Int63n(1 << l2Shift)) // level 1
		case 5:
			return 1<<l2Shift - 1 + Time(r.Int63n(3)) // level-1/2 epoch boundary
		case 6:
			return Time(r.Int63n(1 << horizonLog2)) // level 2
		default:
			return 1<<horizonLog2 + Time(r.Int63n(1<<horizonLog2)) // heap overflow
		}
	}
	var schedule func(depth int)
	schedule = func(depth int) {
		myID := id
		id++
		tm := k.AfterTicks(offset(), func() {
			log = append(log, firing{at: k.Now(), id: myID})
			if depth < 3 && r.Intn(3) == 0 {
				schedule(depth + 1)
			}
		})
		timers = append(timers, tm)
	}
	for i := 0; i < ops; i++ {
		switch {
		case len(timers) > 0 && r.Intn(4) == 0:
			timers[r.Intn(len(timers))].Cancel()
		default:
			schedule(0)
		}
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	return log
}

// TestWheelHeapEquivalence is the golden ordering test the tentpole hangs
// on: the wheel kernel must fire the exact (when, at, seq) order of the pure
// heap kernel on arbitrary programs, not merely a sorted-by-time order.
func TestWheelHeapEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		gotWheel := runProgram(New(), seed, 120)
		gotHeap := runProgram(NewHeapKernel(), seed, 120)
		if len(gotWheel) != len(gotHeap) {
			t.Fatalf("seed %d: wheel fired %d events, heap %d", seed, len(gotWheel), len(gotHeap))
		}
		for i := range gotWheel {
			if gotWheel[i] != gotHeap[i] {
				t.Fatalf("seed %d: firing %d diverged: wheel %+v, heap %+v",
					seed, i, gotWheel[i], gotHeap[i])
			}
		}
	}
}

// TestWheelHeapEquivalenceProperty drives the same comparison through
// testing/quick so shrinking finds small counterexamples.
func TestWheelHeapEquivalenceProperty(t *testing.T) {
	property := func(seed int64) bool {
		w := runProgram(New(), seed, 60)
		h := runProgram(NewHeapKernel(), seed, 60)
		if len(w) != len(h) {
			return false
		}
		for i := range w {
			if w[i] != h[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// TestWheelResidency pins down which container each horizon class lands in:
// near events in wheel slots, beyond-horizon events in the overflow heap.
func TestWheelResidency(t *testing.T) {
	k := New()
	anchor := k.AfterTicks(0, func() {}) // pins the floor at 0
	near := k.AfterTicks(Millisecond, func() {})
	far := k.AfterTicks(30*Second, func() {}) // past the ~17.2s horizon
	if anchor.ev.index != idxWheel {
		t.Errorf("anchor event index = %d, want wheel resident", anchor.ev.index)
	}
	if near.ev.index != idxWheel {
		t.Errorf("near event index = %d, want wheel resident", near.ev.index)
	}
	if far.ev.index < 0 {
		t.Errorf("far event index = %d, want overflow heap resident", far.ev.index)
	}
	hk := NewHeapKernel()
	if tm := hk.AfterTicks(Millisecond, func() {}); tm.ev.index < 0 {
		t.Errorf("heap kernel event index = %d, want heap resident", tm.ev.index)
	}
}

// TestWheelTickBoundaryReschedule cancels and reschedules the same logical
// timer across a wheel-tick boundary: the firing instant must track the
// final schedule exactly, with no quantization to tick edges.
func TestWheelTickBoundaryReschedule(t *testing.T) {
	k := New()
	k.AfterTicks(0, func() {}) // pin the floor
	var fired []Time
	tick := Time(1) << tickShift
	tm := k.AfterTicks(tick-1, func() { fired = append(fired, k.Now()) })
	if !tm.Cancel() {
		t.Fatal("cancel before boundary failed")
	}
	tm = k.AfterTicks(tick+1, func() { fired = append(fired, k.Now()) })
	if !tm.Cancel() {
		t.Fatal("cancel after boundary failed")
	}
	final := 3*tick + 5
	k.AfterTicks(final, func() { fired = append(fired, k.Now()) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != final {
		t.Fatalf("fired = %v, want exactly [%v]", fired, final)
	}
}

// TestWheelOverflowPromotion walks one timer through every container: it is
// first scheduled beyond the horizon (heap), cancelled, rescheduled inside
// the wheel, cancelled again, and finally fired from a sub-tick reschedule.
// Each handle generation must die with its cancellation (the ABA guard from
// kernel_test.go's TestTimerStaleHandle, here crossing containers).
func TestWheelOverflowPromotion(t *testing.T) {
	k := New()
	k.AfterTicks(0, func() {}) // pin the floor
	fired := 0
	farTm := k.AfterTicks(60*Second, func() { fired++ })
	if farTm.ev.index < 0 {
		t.Fatal("beyond-horizon timer not heap resident")
	}
	if !farTm.Cancel() {
		t.Fatal("cancel of heap-resident timer failed")
	}
	nearTm := k.AfterTicks(5*Millisecond, func() { fired++ })
	if nearTm.ev.index != idxWheel {
		t.Fatal("near timer not wheel resident")
	}
	if farTm.Cancel() {
		t.Error("stale heap-era handle cancelled a wheel-resident reuse")
	}
	if !nearTm.Cancel() {
		t.Fatal("cancel of wheel-resident timer failed")
	}
	lastTm := k.AfterTicks(100, func() { fired++ })
	if nearTm.Cancel() || farTm.Cancel() {
		t.Error("stale handle cancelled the final reuse")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (only the final schedule)", fired)
	}
	if lastTm.Active() {
		t.Error("fired timer still active")
	}
}

// TestWheelLazyCancel pins the lazy-cancel rules. A cancelled wheel entry
// stays in its slot but leaves Pending() at once, while a heap-resident
// event is removed and recycled at once. Once the last live event fires,
// the entries left behind are purged and their events recycled, and the
// next schedule snaps the floor — which the drain of a two-event slot left
// ahead of the clock — back to the clock.
func TestWheelLazyCancel(t *testing.T) {
	k := New()
	var fired []Time
	record := func() { fired = append(fired, k.Now()) }
	k.AfterTicks(Millisecond, record)
	k.AfterTicks(Millisecond+1, record) // same tick: a two-event slot
	var cancelled []Timer
	for _, d := range []Time{100 * Microsecond, 5 * Millisecond, 200 * Millisecond, 60 * Second} {
		cancelled = append(cancelled, k.AfterTicks(d, record))
	}
	for _, tm := range cancelled {
		if !tm.Cancel() {
			t.Fatal("cancel of a pending timer failed")
		}
		if tm.Active() {
			t.Error("cancelled timer still active")
		}
	}
	if got := k.Pending(); got != 2 {
		t.Errorf("Pending() = %d, want 2: cancelled entries must not count", got)
	}
	if got := wheelEntries(k); got != 5 || k.wheelCount != 5 {
		t.Errorf("wheel holds %d entries (wheelCount %d), want 5: the three wheel cancels stay filed", got, k.wheelCount)
	}
	if heapEv := cancelled[3].ev; heapEv.index != idxNone || len(k.free) != 1 {
		t.Errorf("heap cancel left index %d and %d events on the free list, want idxNone and 1", heapEv.index, len(k.free))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != Millisecond || fired[1] != Millisecond+1 {
		t.Fatalf("fired = %v, want [1ms 1ms+1ns]", fired)
	}
	if got := wheelEntries(k); got != 0 || k.wheelCount != 0 || k.upperCount != 0 {
		t.Errorf("after the last live event: %d entries, wheelCount %d, upperCount %d, want none", got, k.wheelCount, k.upperCount)
	}
	if len(k.free) != 6 {
		t.Errorf("free list holds %d events, want all 6 recycled", len(k.free))
	}
	if k.floor <= k.Now() {
		t.Fatalf("floor %d not ahead of the clock %d after a slot drain: the snap below proves nothing", k.floor, k.Now())
	}
	now := k.Now()
	first := k.AfterTicks(Microsecond, record)
	second := k.AfterTicks(2*Microsecond, record)
	if k.floor != now {
		t.Errorf("floor = %d after scheduling into an empty wheel, want the clock %d", k.floor, now)
	}
	if first.ev.index != idxWheel || second.ev.index != idxWheel {
		t.Errorf("indices %d, %d after the second schedule, want both wheel resident", first.ev.index, second.ev.index)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 || fired[2] != now+Microsecond || fired[3] != now+2*Microsecond {
		t.Fatalf("fired = %v after rescheduling", fired)
	}
}

// wheelEntries counts the entries k's wheel slots hold, cancelled ones
// included.
func wheelEntries(k *Kernel) int {
	n := 0
	for lvl := range k.wheel {
		for _, s := range k.wheel[lvl] {
			n += s.n
		}
	}
	return n
}

// TestWheelEpochBoundaryOrdering schedules events clustered just before and
// after level epoch boundaries — where a buggy wheel would misfile into a
// wrapped slot — and checks the firing order is globally sorted with FIFO
// ties.
func TestWheelEpochBoundaryOrdering(t *testing.T) {
	k := New()
	k.AfterTicks(0, func() {}) // pin the floor
	var fired []Time
	record := func() { fired = append(fired, k.Now()) }
	boundaries := []Time{1 << tickShift, 1 << l1Shift, 1 << l2Shift, 1 << horizonLog2}
	for _, b := range boundaries {
		for _, d := range []Time{-2, -1, 0, 1, 2} {
			k.AfterTicks(b+d, record)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 5*len(boundaries) {
		t.Fatalf("fired %d events, want %d", len(fired), 5*len(boundaries))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("misordered at %d: %v", i, fired)
		}
	}
}

// TestWheelIdleResync: after a long idle gap the floor must snap forward so
// far-future work still lands on the cheap level-0 path and fires exactly.
func TestWheelIdleResync(t *testing.T) {
	k := New()
	var fired []Time
	k.AfterTicks(Hour(), func() { fired = append(fired, k.Now()) })
	k.RunUntil(2 * 3600 * Second)
	k.AfterTicks(Microsecond, func() { fired = append(fired, k.Now()) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{3600 * Second, 2*3600*Second + Microsecond}
	if len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
}

// TestWheelStartupFloor replays a many-flow simulation's startup: one event
// far out is scheduled first, then 10,000 self-rescheduling timers start at
// offsets of 1 µs–5 ms and keep re-arming until 500 ms. The far event must
// not drag the floor ahead of the clock — otherwise every near timer is
// scheduled behind it and the heap holds the whole population — and the
// firing log must equal the heap kernel's. The two kernels run in lockstep,
// so the ~2M firings are compared without being stored.
func TestWheelStartupFloor(t *testing.T) {
	const (
		timers   = 10000
		until    = 500 * Millisecond
		maxHeap  = 64
		minDelay = Microsecond
		maxDelay = 5 * Millisecond
	)
	start := func(k *Kernel, last *firing) {
		r := rand.New(rand.NewSource(7))
		delay := func() Time { return minDelay + Time(r.Int63n(int64(maxDelay-minDelay+1))) }
		k.AfterTicks(Second, func() { *last = firing{at: k.Now(), id: -1} })
		for i := 0; i < timers; i++ {
			id := i
			var rearm func()
			rearm = func() {
				*last = firing{at: k.Now(), id: id}
				if d := delay(); k.Now()+d <= until {
					k.AfterTicks(d, rearm)
				}
			}
			k.AfterTicks(delay(), rearm)
		}
	}
	wk, hk := New(), NewHeapKernel()
	var wLast, hLast firing
	start(wk, &wLast)
	start(hk, &hLast)
	peak, fired := len(wk.events), 0
	for {
		wOK, hOK := wk.Step(), hk.Step()
		if wOK != hOK {
			t.Fatalf("after %d firings: wheel stepped %v, heap %v", fired, wOK, hOK)
		}
		if !wOK {
			break
		}
		fired++
		if wLast != hLast {
			t.Fatalf("firing %d diverged: wheel %+v, heap %+v", fired, wLast, hLast)
		}
		if n := len(wk.events); n > peak {
			peak = n
		}
	}
	if peak > maxHeap {
		t.Errorf("wheel kernel's heap peaked at %d events, want <= %d", peak, maxHeap)
	}
	if wLast.id != -1 || wLast.at != Second {
		t.Errorf("last firing = %+v, want the far event at %v", wLast, Second)
	}
	t.Logf("%d identical firings, heap peak %d", fired, peak)
}

// TestKernelDenseSlot fires 100,000 events due at one instant in exactly
// the heap kernel's order. They drain as one level-0 slot, far past the
// insertion sort's reach, so the run is ordered by its O(n log n) sort on
// (at, seq) alone. Plain events mix with back-stamped AtArgStamped ones and
// AtKeyed ones, half of those on seqs reserved before everything else, and
// every eleventh event is cancelled. One of the first to fire schedules
// 10,000 more at the same instant, into the drained tick while the run is
// live, where they merge with the run's tail from the heap.
func TestKernelDenseSlot(t *testing.T) {
	const (
		events = 100000
		late   = 10000
		when   = 5 * Millisecond
	)
	run := func(k *Kernel) []int {
		r := rand.New(rand.NewSource(3))
		var log []int
		record := handlerFunc(func(arg any) { log = append(log, arg.(int)) })
		reserved := make([]uint64, events/8)
		for i := range reserved {
			reserved[i] = k.ReserveSeq()
		}
		schedule := func(id int) Timer {
			var tm Timer
			switch id % 4 {
			case 0:
				tm, _ = k.At(when, func() { log = append(log, id) })
			case 1:
				tm, _ = k.AtArgStamped(when, k.Now(), record, id)
			case 2:
				tm, _ = k.AtArgStamped(when, Time(r.Int63n(int64(when))), record, id)
			default:
				seq := k.ReserveSeq()
				if id%8 == 3 && id < events {
					seq = reserved[id/8]
				}
				tm, _ = k.AtKeyed(when, Time(r.Int63n(int64(when))), seq, record, id)
			}
			return tm
		}
		k.At(when, func() {
			log = append(log, -1)
			for id := events; id < events+late; id++ {
				schedule(id)
			}
		})
		var timers []Timer
		for id := 0; id < events; id++ {
			timers = append(timers, schedule(id))
		}
		for i := 0; i < len(timers); i += 11 {
			timers[i].Cancel()
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	wk := New()
	wheel, heap := run(wk), run(NewHeapKernel())
	if cap(wk.runBuf) <= events {
		t.Fatalf("the wheel kernel's largest run held %d entries, want the whole instant", cap(wk.runBuf))
	}
	if len(wheel) != len(heap) {
		t.Fatalf("wheel fired %d events, heap %d", len(wheel), len(heap))
	}
	for i := range wheel {
		if wheel[i] != heap[i] {
			t.Fatalf("firing %d diverged: wheel %d, heap %d", i, wheel[i], heap[i])
		}
	}
}

// BenchmarkKernelDenseSlot schedules events in batches of 10,000 at one
// instant, every other one back-stamped, and fires each batch: each drains
// as one level-0 slot whose run is sorted on (at, seq) alone. ns/op is per
// event scheduled and fired.
func BenchmarkKernelDenseSlot(b *testing.B) {
	const batch = 10000
	k := New()
	h := handlerFunc(func(any) {})
	fire := func() {
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := i % batch
		when := k.Now() + Millisecond
		at := k.Now()
		if n&1 == 1 {
			at = when - Time(n)
		}
		k.AtArgStamped(when, at, h, nil)
		if n == batch-1 {
			fire()
		}
	}
	fire()
}

// Hour returns one virtual hour; a helper, not part of the Time API.
func Hour() Time { return 3600 * Second }

// benchKernelChain measures the one-pending-timer chain — the ubiquitous
// "transmit, then schedule the next transmit" pattern.
func benchKernelChain(b *testing.B, k *Kernel) {
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			k.AfterTicks(Microsecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.AfterTicks(Microsecond, tick)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkKernelChainWheel(b *testing.B) { benchKernelChain(b, New()) }
func BenchmarkKernelChainHeap(b *testing.B)  { benchKernelChain(b, NewHeapKernel()) }

// benchKernelPending measures steady-state throughput with `pending` timers
// outstanding, each re-armed 1 ms + [0, spread) out — the regime a many-flow
// simulation lives in, where the heap's O(log n) sift starts to cost and the
// wheel's O(1) insert does not.
func benchKernelPending(b *testing.B, k *Kernel, pending int, spread Time) {
	r := rand.New(rand.NewSource(17))
	offsets := make([]Time, 4096)
	for i := range offsets {
		// Mix of RTT-ish and RTO-ish horizons, like a TCP population.
		offsets[i] = Time(r.Int63n(int64(spread))) + Millisecond
	}
	n := 0
	oi := 0
	var refire func()
	refire = func() {
		n++
		if n < b.N {
			k.AfterTicks(offsets[oi&4095], refire)
			oi++
		}
	}
	for i := 0; i < pending; i++ {
		k.AfterTicks(offsets[oi&4095], refire)
		oi++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n < b.N && k.Step() {
	}
}

func BenchmarkKernelPending10kWheel(b *testing.B) {
	benchKernelPending(b, New(), 10000, 200*Millisecond)
}
func BenchmarkKernelPending10kHeap(b *testing.B) {
	benchKernelPending(b, NewHeapKernel(), 10000, 200*Millisecond)
}

// BenchmarkKernelCascade keeps 100,000 self-rescheduling timers 1–300 ms
// out. Like attack-10k's fused deliveries, they pack the upper-level slots
// densely, so most of each event's kernel cost is re-bucketing entries down
// the levels and draining level-0 slots.
func BenchmarkKernelCascade(b *testing.B) {
	benchKernelPending(b, New(), 100000, 299*Millisecond)
}

// coldHandler is a 64-byte component that is its own event handler, the way
// a netem link is, and coldArg the 64-byte argument it re-arms itself with,
// the way a packet rides a link's event.
type coldHandler struct {
	k     *Kernel
	state uint64 // xorshift state: the re-arm offsets
	sum   uint64
	_     [5]uint64
}

type coldArg struct {
	size uint64
	_    [7]uint64
}

// coldSpread bounds the re-arm offsets. With 100,000 handlers the pending
// events near the clock are about 2·100,000/coldSpread per nanosecond, eight
// to a 1.024 µs level-0 slot, so every slot drains several at once.
const coldSpread = 25 * Millisecond

// Fire implements Handler: it reads its argument, updates its own state and
// re-arms itself with the same argument up to coldSpread out.
func (h *coldHandler) Fire(arg any) {
	a := arg.(*coldArg)
	h.sum += a.size
	a.size++
	h.state ^= h.state << 13
	h.state ^= h.state >> 7
	h.state ^= h.state << 17
	now := h.k.Now()
	h.k.AtArgStamped(now+Time(h.state%uint64(coldSpread)), now, h, a)
}

// BenchmarkKernelColdHandlers fires 100,000 self-rescheduling component
// handlers, each touching its own struct and a separate argument: with the
// events, 19 MB of working set, larger than L2, so each fire's event,
// handler and argument are cache misses unless the level-0 drain, which
// moves several events at a time, has prefetched them. It isolates the
// drain's prefetch (DESIGN.md §7) from the 20 s benchmark; ns/op is per
// event fired.
func BenchmarkKernelColdHandlers(b *testing.B) {
	const handlers = 100000
	k := New()
	hs := make([]*coldHandler, handlers)
	for i := range hs {
		hs[i] = &coldHandler{k: k, state: uint64(i)*0x9e3779b97f4a7c15 + 1}
	}
	args := make([]*coldArg, handlers) // allocated apart from the handlers
	for i := range args {
		args[i] = &coldArg{}
	}
	for i, h := range hs {
		k.AtArgStamped(Time(h.state%uint64(coldSpread)), 0, h, args[i])
	}
	for i := 0; i < 2*handlers; i++ { // every handler re-armed: steady state
		k.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}
