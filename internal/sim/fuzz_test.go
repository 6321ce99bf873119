package sim

import "testing"

// FuzzKernelOrder decodes arbitrary bytes into a kernel program — At,
// argument (AtArgStamped stamped with Now) and back-stamped AtArgStamped
// schedules (the first two optionally self-rescheduling), component
// handlers with a pointer argument, stamped with Now or back-stamped and
// optionally self-rescheduling, keyed events on a reserved seq (AtKeyed,
// armed later unless Passed says the key has gone by), Cancel, Step,
// PeekNext, RunUntil and RunBefore — and runs it on the wheel kernel and on
// the heap kernel. Both must produce the same observation log: every firing's
// (instant, id), every cancel's result and every peek. Offsets land on every
// wheel boundary, and a program may open with a far-first event, the
// startup pattern that once dragged the wheel floor ahead of the clock.
// When a program ends with nothing pending, both kernels must also hold no
// wheel entry and have every event back on their free lists: the wheel's
// lazily cancelled entries are purged when the pending set empties.
func FuzzKernelOrder(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 1, 3, 2, 5, 0, 1, 4, 0, 6, 8, 200, 0, 4, 2})
	f.Add([]byte{0, 7, 1, 9, 3, 7, 0, 5, 0, 7, 2, 3, 17, 1, 4, 7, 1, 2, 33, 3, 1, 6, 2, 40})
	f.Fuzz(func(t *testing.T, prog []byte) {
		wk, hk := New(), NewHeapKernel()
		wheel, wTimers := runKernelProgram(wk, prog)
		heap, hTimers := runKernelProgram(hk, prog)
		checkRecycled(t, "wheel", wk, wTimers)
		checkRecycled(t, "heap", hk, hTimers)
		if len(wheel) != len(heap) {
			t.Fatalf("wheel logged %d observations, heap %d", len(wheel), len(heap))
		}
		for i := range wheel {
			if wheel[i] != heap[i] {
				t.Fatalf("observation %d diverged: wheel %+v, heap %+v", i, wheel[i], heap[i])
			}
		}
		if wk.Now() != hk.Now() || wk.Processed() != hk.Processed() || wk.Pending() != hk.Pending() {
			t.Fatalf("final state: wheel now=%v processed=%d pending=%d, heap now=%v processed=%d pending=%d",
				wk.Now(), wk.Processed(), wk.Pending(), hk.Now(), hk.Processed(), hk.Pending())
		}
	})
}

// checkRecycled fails the test unless k, once its pending set is empty,
// holds no wheel entry and has every event a program timer last referred to
// back on its free list. It checks nothing while events are still pending
// (a program that hit the event limit).
func checkRecycled(t *testing.T, name string, k *Kernel, timers []Timer) {
	t.Helper()
	if k.Pending() != 0 {
		return
	}
	if n := wheelEntries(k); n != 0 || k.wheelCount != 0 || k.upperCount != 0 {
		t.Fatalf("%s kernel: nothing pending, but the wheel holds %d entries (wheelCount %d, upperCount %d)",
			name, n, k.wheelCount, k.upperCount)
	}
	free := make(map[*event]bool, len(k.free))
	for _, ev := range k.free {
		free[ev] = true
	}
	for i, tm := range timers {
		if tm.ev != nil && !free[tm.ev] {
			t.Fatalf("%s kernel: nothing pending, but timer %d's event is not on the free list", name, i)
		}
	}
}

// Observation ids below zero record what a program saw besides firings.
const (
	obsCancelFalse = -1 - iota
	obsCancelTrue
	obsPeekEmpty
	obsPeek
	obsError
	obsPassed
)

// kernelProgram is the decoder state of one fuzz program.
type kernelProgram struct {
	k      *Kernel
	data   []byte
	log    []firing
	timers []Timer // one handle per scheduled timer, updated as it re-arms
}

// next consumes one byte of the program; an exhausted program reads zeros.
func (p *kernelProgram) next() byte {
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return b
}

// target decodes an instant at or after now: an offset scaled to a tick or
// to one of the wheel's three level widths, an offset past the horizon, or a
// point within a few nanoseconds of an absolute tick, level-0, level-1 or
// level-2 epoch boundary.
func (p *kernelProgram) target() Time {
	class, fine := p.next()%9, Time(p.next())
	now := p.k.Now()
	switch class {
	case 0:
		return now + fine
	case 1:
		return now + fine<<tickShift
	case 2:
		return now + fine<<l1Shift
	case 3:
		return now + fine<<l2Shift
	case 4:
		return now + 1<<horizonLog2 + fine<<l2Shift
	}
	shift := [...]uint{tickShift, l1Shift, l2Shift, horizonLog2}[class-5]
	t := (now>>shift+1+fine>>3)<<shift + fine&7 - 4
	if t < now {
		t = now
	}
	return t
}

// schedule arms a new timer through one of the three scheduling entry
// points. A plain or argument timer re-arms itself at the same offset after
// each of its first rep firings.
func (p *kernelProgram) schedule(op byte) {
	k := p.k
	when := p.target()
	id := len(p.timers)
	p.timers = append(p.timers, Timer{})
	switch op {
	case 0:
		delta, rep := when-k.Now(), p.next()&15
		var fn func()
		fn = func() {
			p.log = append(p.log, firing{at: k.Now(), id: id})
			if rep > 0 {
				rep--
				p.timers[id], _ = k.At(k.Now()+delta, fn)
			}
		}
		p.timers[id], _ = k.At(when, fn)
	case 1:
		delta, rep := when-k.Now(), p.next()&15
		var fn handlerFunc
		fn = func(arg any) {
			p.log = append(p.log, firing{at: k.Now(), id: arg.(int)})
			if rep > 0 {
				rep--
				p.timers[id], _ = k.AtArgStamped(k.Now()+delta, k.Now(), fn, arg)
			}
		}
		p.timers[id], _ = k.AtArgStamped(when, k.Now(), fn, id)
	default:
		// The stamp may trail the clock (a back-stamped fused delivery)
		// or sit anywhere up to when; AtArgStamped clamps the rest.
		at := when - Time(p.next())<<tickShift
		if at < 0 {
			at = 0
		}
		fn := handlerFunc(func(arg any) { p.log = append(p.log, firing{at: k.Now(), id: arg.(int)}) })
		p.timers[id], _ = k.AtArgStamped(when, at, fn, id)
	}
}

// progHandler is a program component that is its own event handler, the
// way a netem link is: it is scheduled by pointer with a pointer argument,
// stamped with Now or back-stamped by a fixed number of ticks, and re-arms
// itself the same way after each of its first rep firings.
type progHandler struct {
	p     *kernelProgram
	id    int
	delta Time
	back  Time // back-stamp: 0 stamps with Now
	rep   byte
}

// handlerArg is the pointer a progHandler is scheduled with.
type handlerArg struct{ id int }

// arm schedules h at when with arg.
func (h *progHandler) arm(when Time, arg *handlerArg) {
	k := h.p.k
	at := k.Now()
	if h.back > 0 {
		at = max(when-h.back, 0)
	}
	h.p.timers[h.id], _ = k.AtArgStamped(when, at, h, arg)
}

// Fire implements Handler: it logs its id, or obsError when the kernel
// passes an argument other than the one h was scheduled with.
func (h *progHandler) Fire(arg any) {
	k := h.p.k
	id := h.id
	if a, ok := arg.(*handlerArg); !ok || a.id != h.id {
		id = obsError
	}
	h.p.log = append(h.p.log, firing{at: k.Now(), id: id})
	if h.rep > 0 {
		h.rep--
		h.arm(k.Now()+h.delta, arg.(*handlerArg))
	}
}

// scheduleHandler arms a new progHandler. Its flags byte chooses the stamp
// (low bit set: back-stamped by the next byte's ticks) and the re-arms.
func (p *kernelProgram) scheduleHandler() {
	when := p.target()
	flags := p.next()
	h := &progHandler{p: p, id: len(p.timers), delta: when - p.k.Now(), rep: flags >> 1 & 15}
	if flags&1 == 1 {
		h.back = Time(p.next())<<tickShift + 1
	}
	p.timers = append(p.timers, Timer{})
	h.arm(when, &handlerArg{id: h.id})
}

// scheduleKeyed reserves a seq for an event at a target instant, stamped
// with Now, the way a fused link reserves golden's tx-done key when a
// serialization starts. A plain event at or before that instant arms it:
// if Passed reports the key gone by, the arming event logs obsPassed;
// otherwise it schedules the keyed event through AtKeyed, which logs its id
// when it fires. The flags byte's low bit draws the arming event's seq
// after the reservation instead of before it, so at a tie on (when, at)
// the arming event sorts after the key; the rest pull the arming instant
// back from the target by whole ticks.
func (p *kernelProgram) scheduleKeyed() {
	k := p.k
	when, flags := p.target(), p.next()
	arm := max(when-Time(flags>>1)<<tickShift, k.Now())
	at, id := k.Now(), len(p.timers)
	p.timers = append(p.timers, Timer{})
	var seq uint64
	armKey := func() {
		if k.Passed(when, at, seq) {
			p.log = append(p.log, firing{at: k.Now(), id: obsPassed})
			return
		}
		fn := handlerFunc(func(any) { p.log = append(p.log, firing{at: k.Now(), id: id}) })
		var err error
		if p.timers[id], err = k.AtKeyed(when, at, seq, fn, nil); err != nil {
			p.log = append(p.log, firing{at: k.Now(), id: obsError})
		}
	}
	if flags&1 == 1 {
		seq = k.ReserveSeq()
	}
	k.At(arm, armKey)
	if flags&1 == 0 {
		seq = k.ReserveSeq()
	}
}

// runKernelProgram executes prog against k and returns its observation log
// and each timer's last handle. The first byte's low bit schedules a
// far-first event at one second; then each op byte selects, modulo 9, a
// schedule, a cancel, a step, a peek, a RunUntil (a RunBefore when the op
// byte is 128 or more), a handler schedule or a keyed schedule, followed by
// its operands. Whatever is left pending finally runs out.
func runKernelProgram(k *Kernel, prog []byte) ([]firing, []Timer) {
	k.SetEventLimit(1 << 16)
	p := &kernelProgram{k: k, data: prog}
	if p.next()&1 == 1 {
		p.timers = append(p.timers, k.AfterTicks(Second, func() {
			p.log = append(p.log, firing{at: k.Now(), id: 0})
		}))
	}
	observe := func(err error) {
		if err != nil {
			p.log = append(p.log, firing{at: k.Now(), id: obsError})
		}
	}
	for ops := 0; len(p.data) > 0 && ops < 512; ops++ {
		b := p.next()
		switch op := b % 9; op {
		case 0, 1, 2:
			p.schedule(op)
		case 3:
			i := int(p.next())
			if len(p.timers) == 0 {
				continue
			}
			id := obsCancelFalse
			if p.timers[i%len(p.timers)].Cancel() {
				id = obsCancelTrue
			}
			p.log = append(p.log, firing{at: k.Now(), id: id})
		case 4:
			k.Step()
		case 5:
			when, ok := k.PeekNext()
			id := obsPeekEmpty
			if ok {
				id = obsPeek
			}
			p.log = append(p.log, firing{at: when, id: id})
		case 6:
			if b >= 128 {
				observe(k.RunBefore(p.target()))
			} else {
				observe(k.RunUntil(p.target()))
			}
		case 7:
			p.scheduleHandler()
		default:
			p.scheduleKeyed()
		}
	}
	observe(k.Run())
	return p.log, p.timers
}
