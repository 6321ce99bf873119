package sim

import "math/bits"

// Hierarchical timing wheel (Varghese & Lauck), tuned for the simulator's
// event-horizon profile: packet transmissions land microseconds out, RTT
// echoes and pulse periods land milliseconds-to-seconds out, and RTO timers
// land up to a minute out.
//
// Geometry: three levels of 256 slots. Level 0 buckets events by 2^10 ns
// (1.024 µs) ticks, level 1 by 2^18 ns (262 µs), level 2 by 2^26 ns (67 ms),
// giving the wheel a 2^34 ns (~17.2 s) horizon past its floor. Events beyond
// the horizon — or behind the floor, which only happens to events displaced
// by a slot drain or scheduled before the clock catches up with a floor a
// drain or cascade advanced — live in the kernel's 4-ary heap. An empty wheel
// snaps its floor to the clock (Kernel.enqueue), never ahead of it.
//
// Ordering contract. The kernel's observable firing order is exactly
// (when, seq), identical to a pure heap. Slot bucketing coarsens nothing:
// locate() never returns an event straight out of a slot holding more than
// one event — it drains such slots into the heap first, and the heap restores
// the total order. The one slot-direct path (a single-event slot) compares
// that event against the heap minimum with the full (when, seq) predicate
// before choosing it. See DESIGN.md §8 for the equivalence argument.
//
// Mapping. Instead of per-level offset counters, slots are addressed by the
// absolute instant: level l holds instants within the floor's level-l epoch
// (the aligned 2^(shift[l]+8) window containing the floor), and an event at
// t occupies slot (t >> shift[l]) & 255. Within an epoch this is injective
// and wraparound-free, so a slot never mixes instants from different laps —
// the classic wheel's "rounds remaining" counter disappears entirely, and
// the epoch test is a pair of shifts: t and floor share a level-l epoch iff
// t>>(shift[l]+8) == floor>>(shift[l]+8).
const (
	wheelLevels = 3
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	tickShift   = 10 // level-0 tick: 2^10 ns
	l1Shift     = tickShift + wheelBits
	l2Shift     = tickShift + 2*wheelBits
	horizonLog2 = tickShift + 3*wheelBits // wheel horizon: 2^34 ns past the epoch base
)

// levelShift[l] is the log2 of level l's slot width in nanoseconds.
var levelShift = [wheelLevels]uint{tickShift, l1Shift, l2Shift}

// setFloor moves the wheel's mapping origin to t. The caller guarantees no
// wheel-resident event is behind t.
func (k *Kernel) setFloor(t Time) {
	k.floor = t
}

// place links ev into the wheel slot covering ev.when, or pushes it to the
// heap when ev.when lies beyond the wheel horizon. The caller guarantees
// ev.when >= k.floor.
//
//pdos:hotpath
func (k *Kernel) place(ev *event) {
	t := ev.when
	f := k.floor
	var lvl int
	switch {
	case t>>l1Shift == f>>l1Shift:
		lvl = 0
	case t>>l2Shift == f>>l2Shift:
		lvl = 1
	case t>>horizonLog2 == f>>horizonLog2:
		lvl = 2
	default:
		k.push(ev)
		return
	}
	pos := int(t>>levelShift[lvl]) & wheelMask
	ev.index = idxWheel
	ev.slot = int32(lvl<<wheelBits | pos)
	head := k.wheel[lvl][pos]
	ev.next = head
	ev.prev = nil
	if head != nil {
		head.prev = ev
	}
	k.wheel[lvl][pos] = ev
	k.occupied[lvl][pos>>6] |= 1 << (pos & 63)
	k.wheelCount++
	if lvl > 0 {
		k.upperCount++
	}
}

// unschedule removes a pending event from wherever it lives — heap or wheel
// slot — without releasing it. Wheel removal is O(1): unlink from the slot's
// intrusive list and clear the occupancy bit if the slot empties.
//
//pdos:hotpath
func (k *Kernel) unschedule(ev *event) {
	k.pending-- //pdos:counter kernel-pending dec — the event leaves the pending set (fire or cancel)
	k.solo = nil
	if ev.index >= 0 {
		k.remove(int(ev.index))
		return
	}
	lvl := int(ev.slot) >> wheelBits
	pos := int(ev.slot) & wheelMask
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		k.wheel[lvl][pos] = ev.next
		if ev.next == nil {
			k.occupied[lvl][pos>>6] &^= 1 << (pos & 63)
		}
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	ev.next = nil
	ev.prev = nil
	ev.index = idxNone
	ev.slot = -1
	k.wheelCount--
	if lvl > 0 {
		k.upperCount--
	}
}

// scanFrom returns the first occupied slot of level lvl at position >= from,
// using the occupancy bitmap to skip empty runs a word at a time.
//
//pdos:hotpath
func (k *Kernel) scanFrom(lvl, from int) (int, bool) {
	if from >= wheelSlots {
		return 0, false
	}
	occ := &k.occupied[lvl]
	w := from >> 6
	word := occ[w] &^ (1<<(from&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word), true
		}
		w++
		if w >= len(occ) {
			return 0, false
		}
		word = occ[w]
	}
}

// drainSlot empties a due level-0 slot into the heap, which restores the
// exact (when, seq) order among its events and anything already heaped.
//
//pdos:hotpath
func (k *Kernel) drainSlot(lvl, pos int) {
	ev := k.wheel[lvl][pos]
	k.wheel[lvl][pos] = nil
	k.occupied[lvl][pos>>6] &^= 1 << (pos & 63)
	for ev != nil {
		next := ev.next
		ev.next = nil
		ev.prev = nil
		ev.slot = -1
		k.wheelCount--
		k.push(ev)
		ev = next
	}
}

// cascade empties an upper-level slot and re-places each event, which by
// construction lands on a finer level: every event in the slot is within the
// current level-(lvl-1) epoch or below, whether the slot is due because the
// floor was just advanced to its base or because the floor drifted into its
// range across an epoch boundary.
//
//pdos:hotpath
func (k *Kernel) cascade(lvl, pos int) {
	ev := k.wheel[lvl][pos]
	k.wheel[lvl][pos] = nil
	k.occupied[lvl][pos>>6] &^= 1 << (pos & 63)
	for ev != nil {
		next := ev.next
		ev.next = nil
		ev.prev = nil
		ev.slot = -1
		k.wheelCount--
		k.upperCount--
		k.place(ev)
		ev = next
	}
}

// locate returns the pending event with the smallest (when, seq) without
// detaching it, advancing the wheel (draining due slots, cascading upper
// levels) as needed. It returns nil when nothing is pending. The caller
// fires or cancels the returned event before any other mutation, so the
// peeked pointer cannot go stale.
//
//pdos:hotpath
func (k *Kernel) locate() *event {
	if k.pending == 0 {
		return nil
	}
	if ev := k.solo; ev != nil {
		// Exactly one event pending: it is the minimum wherever it lives.
		// This keeps the ubiquitous one-timer-chain pattern off the scan
		// machinery entirely.
		return ev
	}
	if k.heapOnly {
		return k.events[0]
	}
	for {
		if k.wheelCount == 0 {
			// Wheel empty and pending > 0: the heap holds the minimum.
			return k.events[0]
		}
		if k.upperCount > 0 {
			// Epoch-boundary cascade: once the floor has advanced into the
			// range of an upper-level slot populated under an older floor,
			// that slot's events (all >= floor, headed for finer buckets)
			// must drop down before level 0 is consulted — some may be due
			// ahead of everything currently in level 0.
			c1 := int(k.floor>>levelShift[1]) & wheelMask
			if k.occupied[1][c1>>6]&(1<<(c1&63)) != 0 {
				k.cascade(1, c1)
				continue
			}
			c2 := int(k.floor>>levelShift[2]) & wheelMask
			if k.occupied[2][c2>>6]&(1<<(c2&63)) != 0 {
				k.cascade(2, c2)
				continue
			}
		}
		// Level 0: the slot covering the floor, onward.
		c0 := int(k.floor>>tickShift) & wheelMask
		if pos, ok := k.scanFrom(0, c0); ok {
			base := k.floor&^(1<<levelShift[1]-1) | Time(pos)<<tickShift
			bound := base
			if bound < k.floor {
				bound = k.floor // pos == c0: the slot straddles the floor
			}
			if len(k.events) > 0 && k.events[0].when < bound {
				return k.events[0]
			}
			head := k.wheel[0][pos]
			if head.next == nil {
				// Single-event slot: choose between it and the heap minimum
				// with the full (when, seq) predicate — no drain round-trip.
				if len(k.events) > 0 && k.events[0].before(head) {
					return k.events[0]
				}
				return head
			}
			k.drainSlot(0, pos)
			k.setFloor(base + 1<<tickShift)
			continue
		}
		// Level 0 exhausted: cascade the next occupied upper-level slot.
		// Scanning starts past the slot covering the floor — level l accepts
		// only instants at or beyond epochEnd[l-1], which all map strictly
		// past that slot, so it is empty by construction.
		cascaded := false
		for lvl := 1; lvl < wheelLevels; lvl++ {
			c := int(k.floor>>levelShift[lvl]) & wheelMask
			pos, ok := k.scanFrom(lvl, c+1)
			if !ok {
				continue
			}
			base := k.floor&^(1<<(levelShift[lvl]+wheelBits)-1) | Time(pos)<<levelShift[lvl]
			if len(k.events) > 0 && k.events[0].when < base {
				return k.events[0]
			}
			k.setFloor(base)
			k.cascade(lvl, pos)
			cascaded = true
			break
		}
		if !cascaded {
			// wheelCount > 0 yet every level scan came up empty — the
			// occupancy accounting is corrupt. Fail loudly: silent
			// misordering would poison every downstream trace.
			panic("sim: timer wheel occupancy corrupted")
		}
	}
}
