package sim

import (
	"math/bits"
	"slices"
)

// Hierarchical timing wheel (Varghese & Lauck), tuned for the simulator's
// event-horizon profile: packet transmissions land microseconds out, RTT
// echoes and pulse periods land milliseconds-to-seconds out, and RTO timers
// land up to a minute out.
//
// Geometry: three levels of 256 slots. Level 0 buckets events by 2^10 ns
// (1.024 µs) ticks, level 1 by 2^18 ns (262 µs), level 2 by 2^26 ns (67 ms),
// giving the wheel a 2^34 ns (~17.2 s) horizon past its floor. Events beyond
// the horizon — or behind the floor, which only happens to events scheduled
// before the clock catches up with a floor a drain or cascade advanced —
// live in the kernel's 4-ary heap. An empty wheel snaps its floor to the
// clock (Kernel.enqueue), never ahead of it.
//
// Slots. A slot holds {when, event} entries in blocks of seven: the slot
// header keeps the newest block and the slot's entry count, and every older
// block in its chain is full. Blocks come from and return to a per-kernel
// free list (on drain, cascade and purge), so a warm kernel files events
// without allocating, and the wheel never holds more than
// ceil(entries/7) blocks per slot. Because an entry carries its event's
// instant, a cascade re-buckets a slot from the copied instants without
// loading a single event, and a level-0 drain copies the entries into the
// run and orders them there without loading one either, except to break an
// exact instant tie.
//
// The run. A due level-0 slot with more than one entry is drained into the
// run, a kernel-owned array of entries sorted by (when, at, seq): by the
// copied instant, and by the events' (at, seq) only where two instants are
// equal. Each event is prefetched as it is copied and first loaded once the
// run is sorted, to prefetch what its fire loads first. The floor moves
// to the end of the drained tick, and wheelCount keeps counting the run's
// entries, so until the run is spent every slot entry sorts after every run
// entry and an event scheduled into the drained tick goes behind the floor,
// into the heap. The heap thus holds only behind-floor and beyond-horizon
// events, and the run's head competes only with the heap minimum.
//
// Lazy cancel. Cancelling a wheel-resident event marks it idxCancelled and
// invalidates its Timer handles; its entry stays where it is, through a
// drain into the run, until it reaches the run's head, and only then does
// the event return to the free list. An entry therefore outlives its cancel
// at most until the clock reaches its slot — or until the pending set
// empties, when Kernel.purge releases every leftover entry so the next
// schedule finds an empty wheel and run. wheelCount and upperCount count
// entries, cancelled ones included; Kernel.pending counts live events only.
//
// Ordering contract. The kernel's observable firing order is exactly
// (when, at, seq), identical to a pure heap. Slot bucketing coarsens
// nothing: locate() never returns an event straight out of a slot holding
// more than one entry — it drains such a slot into the run, whose sort
// restores the total order among its entries, and returns the run's first
// live entry only after comparing it with the heap minimum (instants first,
// then the full (when, at, seq) predicate on a tie). The one slot-direct path
// (a slot whose only entry is live) compares that event against the heap
// minimum with the full predicate before choosing it. See DESIGN.md §8 for
// the equivalence argument.
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

	// blockEntries fills a 120-byte block (a 128-byte allocation, two
	// cache lines): a link and 7 entries of 16 bytes.
	blockEntries = 7

	// insertionMax is the longest run sortRun orders by insertion; longer
	// ones, which only dense instants produce, take an O(n log n) sort.
	insertionMax = 32
)

// levelShift[l] is the log2 of level l's slot width in nanoseconds.
var levelShift = [wheelLevels]uint{tickShift, l1Shift, l2Shift}

// slotEntry files one event in a wheel slot, beside a copy of its instant.
type slotEntry struct {
	when Time
	ev   *event
}

// wheelSlot heads one slot's entries. They fill blocks in order: the
// newest block is head, and every older block it chains to is full. The
// count lives here rather than in a block, so filing an entry stores into
// the block without loading from it.
type wheelSlot struct {
	head *wheelBlock // nil when the slot is empty
	n    int         // entries in the slot
}

// wheelBlock is a fixed run of slot entries; next links to the next older
// block of the same slot.
type wheelBlock struct {
	next    *wheelBlock
	entries [blockEntries]slotEntry
}

// setFloor moves the wheel's mapping origin to t. The caller guarantees no
// wheel entry is behind t.
func (k *Kernel) setFloor(t Time) {
	k.floor = t
}

// newBlock takes a block from the free list, allocating one only when the
// list is empty.
//
//pdos:hotpath
func (k *Kernel) newBlock() *wheelBlock {
	n := len(k.freeBlocks)
	if n == 0 {
		k.blocks++
		return new(wheelBlock)
	}
	b := k.freeBlocks[n-1]
	k.freeBlocks = k.freeBlocks[:n-1]
	return b
}

// freeBlock returns b to the free list. Its stale entries are never read
// again, and the events they point to are kernel-owned for its whole life.
//
//pdos:hotpath
func (k *Kernel) freeBlock(b *wheelBlock) {
	k.freeBlocks = append(k.freeBlocks, b)
}

// file appends e to the wheel slot covering e.when, reporting false (and
// filing nothing) when e.when lies beyond the wheel horizon. The caller
// guarantees e.when >= k.floor.
//
//pdos:hotpath
func (k *Kernel) file(e slotEntry) bool {
	t := e.when
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
		return false
	}
	pos := int(t>>levelShift[lvl]) & wheelMask
	s := &k.wheel[lvl][pos]
	i := s.n % blockEntries
	if i == 0 {
		b := k.newBlock()
		b.next = s.head
		s.head = b
	}
	s.head.entries[i] = e
	s.n++
	k.occupied[lvl][pos>>6] |= 1 << (pos & 63)
	k.wheelCount++
	if lvl > 0 {
		k.upperCount++
	}
	return true
}

// takeSlot empties slot (lvl, pos) and clears its occupancy bit, returning
// its newest block, the entries that block holds, and the slot's total.
// Every older block in the chain is full. The caller accounts for the
// entries and frees the blocks.
//
//pdos:hotpath
func (k *Kernel) takeSlot(lvl, pos int) (b *wheelBlock, inHead, total int) {
	s := &k.wheel[lvl][pos]
	b, total = s.head, s.n
	*s = wheelSlot{}
	k.occupied[lvl][pos>>6] &^= 1 << (pos & 63)
	return b, (total-1)%blockEntries + 1, total
}

// unslot removes ev, which locate returned as the only entry of its level-0
// slot, from the wheel.
//
//pdos:hotpath
func (k *Kernel) unslot(ev *event) {
	b, _, _ := k.takeSlot(0, int(ev.when>>tickShift)&wheelMask)
	k.freeBlock(b)
	k.wheelCount--
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

// fillRun drains the due level-0 slot pos into the run and sorts the run
// into firing order. The run's events fire next, so each is prefetched as it
// is copied; the sort reads the copied instants and loads two events only to
// break an exact instant tie. Then, with the event lines given the sort's
// time to arrive, the component and argument each event fires on are
// prefetched in firing order (prefetch.go). The entries stay counted in
// wheelCount until they fire or are released.
//
//pdos:hotpath
func (k *Kernel) fillRun(pos int) {
	b, n, _ := k.takeSlot(0, pos)
	run := k.runBuf[:0]
	for b != nil {
		for _, e := range b.entries[:n] {
			prefetchEvent(e.ev)
			run = append(run, e)
		}
		next := b.next
		k.freeBlock(b)
		b, n = next, blockEntries
	}
	sortRun(run)
	for _, e := range run {
		prefetchFire(e.ev.h, e.ev.arg)
	}
	k.run, k.runBuf = run, run
}

// sortRun orders a run by (when, at, seq): by insertion up to insertionMax
// entries, by slices.SortFunc beyond.
//
//pdos:hotpath
func sortRun(run []slotEntry) {
	if len(run) > insertionMax {
		slices.SortFunc(run, compareEntries)
		return
	}
	for i := 1; i < len(run); i++ {
		e := run[i]
		j := i
		for ; j > 0 && entryBefore(e, run[j-1]); j-- {
			run[j] = run[j-1]
		}
		run[j] = e
	}
}

// entryBefore reports whether a fires before b. It loads the events only
// when the copied instants tie.
func entryBefore(a, b slotEntry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.ev.before(b.ev)
}

// compareEntries is entryBefore as the three-way comparison
// slices.SortFunc takes.
func compareEntries(a, b slotEntry) int {
	switch {
	case entryBefore(a, b):
		return -1
	case entryBefore(b, a):
		return 1
	}
	return 0
}

// runFront returns the earlier of the run's first live entry and the heap
// minimum, or nil once the run is spent. The copied instants decide unless
// they tie; a cancelled head returns to the free list on the way. Choosing
// the head marks it idxRun, for fire.
//
//pdos:hotpath
func (k *Kernel) runFront() *event {
	for len(k.run) > 0 {
		e := k.run[0]
		var top *event
		if len(k.events) > 0 {
			if top = k.events[0]; top.when < e.when {
				return top
			}
		}
		ev := e.ev
		if ev.index == idxCancelled {
			k.release(ev)
			k.popRun()
			continue
		}
		if top != nil && top.before(ev) {
			return top
		}
		ev.index = idxRun
		return ev
	}
	return nil
}

// popRun removes the run's head, which has fired or been released.
//
//pdos:hotpath
func (k *Kernel) popRun() {
	k.run = k.run[1:]
	k.wheelCount--
}

// cascade empties an upper-level slot and re-files each entry, which by
// construction lands on a finer level: every entry in the slot is within the
// current level-(lvl-1) epoch or below, whether the slot is due because the
// floor was just advanced to its base or because the floor drifted into its
// range across an epoch boundary. Entries move with their copied instants;
// no event is loaded, and cancelled entries travel along until a drain.
//
//pdos:hotpath
func (k *Kernel) cascade(lvl, pos int) {
	b, n, total := k.takeSlot(lvl, pos)
	k.wheelCount -= total
	k.upperCount -= total
	for b != nil {
		for _, e := range b.entries[:n] {
			k.file(e)
		}
		next := b.next
		k.freeBlock(b)
		b, n = next, blockEntries
	}
}

// purge releases every entry left in the run and the wheel. It runs when
// the pending set empties, so each entry is a cancelled one, and the next
// schedule finds an empty wheel and run and snaps the floor to the clock.
func (k *Kernel) purge() {
	for _, e := range k.run {
		k.release(e.ev)
	}
	k.wheelCount -= len(k.run)
	k.run = nil
	for lvl := 0; lvl < wheelLevels; lvl++ {
		for pos, ok := k.scanFrom(lvl, 0); ok; pos, ok = k.scanFrom(lvl, pos+1) {
			b, n, total := k.takeSlot(lvl, pos)
			for b != nil {
				for _, e := range b.entries[:n] {
					k.release(e.ev)
				}
				next := b.next
				k.freeBlock(b)
				b, n = next, blockEntries
			}
			k.wheelCount -= total
			if lvl > 0 {
				k.upperCount -= total
			}
		}
	}
}

// locate returns the pending event with the smallest (when, at, seq)
// without detaching it, advancing the wheel (draining due slots into the
// run, cascading upper levels, recycling cancelled entries) as needed. It
// returns nil when nothing is pending. The caller fires or cancels the
// returned event before any other mutation, so the peeked pointer cannot go
// stale.
//
//pdos:hotpath
func (k *Kernel) locate() *event {
	if k.pending == 0 {
		return nil
	}
	if len(k.run) > 0 {
		// Every slot entry sorts after the run: its head competes only with
		// the heap minimum.
		if ev := k.runFront(); ev != nil {
			return ev
		}
	}
	for {
		if k.wheelCount == 0 {
			// Wheel and run empty and pending > 0: the heap holds the
			// minimum. A heap-only kernel files nothing, so it always
			// returns here.
			return k.events[0]
		}
		if k.upperCount > 0 {
			// Epoch-boundary cascade: once the floor has advanced into the
			// range of an upper-level slot populated under an older floor,
			// that slot's entries (all >= floor, headed for finer buckets)
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
			if s := &k.wheel[0][pos]; s.n == 1 && s.head.entries[0].ev.index == idxWheel {
				// The slot's only entry is live: choose between it and the
				// heap minimum with the full (when, at, seq) predicate — no
				// drain round-trip.
				ev := s.head.entries[0].ev
				if len(k.events) > 0 && k.events[0].before(ev) {
					return k.events[0]
				}
				return ev
			}
			k.fillRun(pos)
			k.setFloor(base + 1<<tickShift)
			if ev := k.runFront(); ev != nil {
				return ev
			}
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
