//go:build pdosassert

package sim

import "fmt"

// This file (with its !pdosassert twin assert_off.go) is the runtime half of
// the enforcement story in DESIGN.md §10: cheap invariant checks compiled
// into `-tags pdosassert` builds and compiled out — types empty, methods
// no-op — of normal ones. `make race-assert` runs the parallel-engine
// equivalence suites with these armed.

// AssertsEnabled reports whether this binary was built with -tags pdosassert.
const AssertsEnabled = true

// kernelAsserts carries the last fired (when, at, seq) key. The kernel's
// determinism contract — and the parallel engine's "identical to serial"
// argument — is that the fired sequence of every kernel is strictly
// increasing in lexicographic (when, at, seq): locally scheduled events can
// never violate it (seq is monotone in schedule time), so a trip means a
// boundary injection landed in a shard's past — a conservative-lookahead or
// barrier-ordering regression.
type kernelAsserts struct {
	armed    bool
	lastWhen Time
	lastAt   Time
	lastSeq  uint64
}

// assertFire checks the strict (when, at, seq) firing order.
func (k *Kernel) assertFire(ev *event) {
	a := &k.asserts
	if a.armed {
		ok := ev.when > a.lastWhen ||
			(ev.when == a.lastWhen && (ev.at > a.lastAt ||
				(ev.at == a.lastAt && ev.seq > a.lastSeq)))
		if !ok {
			panic(fmt.Sprintf(
				"sim: pdosassert: event fired out of order: (when=%d at=%d seq=%d) after (when=%d at=%d seq=%d) — a boundary injection landed in this kernel's past",
				ev.when, ev.at, ev.seq, a.lastWhen, a.lastAt, a.lastSeq))
		}
	}
	a.armed = true
	a.lastWhen, a.lastAt, a.lastSeq = ev.when, ev.at, ev.seq
}

// assertWheel checks the wheel's bookkeeping each time the pending set
// empties (after the purge): the run is empty, wheelCount and upperCount
// equal the entries the slots hold, a slot's occupancy bit is set exactly
// when it holds a block, and every block ever allocated is either in a slot
// or on the free list. A run left holding entries would be served ahead of
// the wheel and the heap by the next locate; a miscount would stop an empty
// wheel from snapping its floor to the clock, or trip locate's corruption
// panic later.
func (k *Kernel) assertWheel() {
	if len(k.run) != 0 {
		panic(fmt.Sprintf("sim: pdosassert: the pending set is empty, but the run holds %d entries", len(k.run)))
	}
	entries, upper, blocks := 0, 0, len(k.freeBlocks)
	for lvl := range k.wheel {
		for pos, s := range k.wheel[lvl] {
			chain := 0
			for b := s.head; b != nil; b = b.next {
				chain++
			}
			occ := k.occupied[lvl][pos>>6]&(1<<(pos&63)) != 0
			if occ != (s.n > 0) || chain != (s.n+blockEntries-1)/blockEntries {
				panic(fmt.Sprintf("sim: pdosassert: wheel slot %d/%d holds %d entries in %d blocks, occupancy bit %v", lvl, pos, s.n, chain, occ))
			}
			blocks += chain
			entries += s.n
			if lvl > 0 {
				upper += s.n
			}
		}
	}
	if entries != k.wheelCount || upper != k.upperCount {
		panic(fmt.Sprintf("sim: pdosassert: wheel bookkeeping: wheelCount %d, upperCount %d, but the slots hold %d entries, %d in levels 1-2",
			k.wheelCount, k.upperCount, entries, upper))
	}
	if blocks != k.blocks {
		panic(fmt.Sprintf("sim: pdosassert: wheel bookkeeping: %d blocks allocated, %d in slots or on the free list", k.blocks, blocks))
	}
}

// shardAsserts counts the boundary events this shard has sent and injected.
// Each counter is written only by the shard's own goroutine during a window
// and read only by the driver at the barrier, so it needs no
// synchronization beyond the window barrier itself.
type shardAsserts struct {
	sent     uint64
	injected uint64
}

// assertSent records one boundary event buffered by this shard.
func (s *Shard) assertSent() {
	s.asserts.sent++
}

// assertInjected records one boundary event this shard injected into its
// kernel.
func (s *Shard) assertInjected() {
	s.asserts.injected++
}

// assertConserved verifies shard-boundary conservation at the barrier,
// right after the swap: every boundary event ever sent has been injected
// exactly once, or sits in exactly one outbox buffer — ready for the coming
// window, or (never, right after a swap) still filling. A mismatch means
// the swap or a merge lost or duplicated a message.
func (e *Engine) assertConserved() {
	var sent, injected, buffered, ready uint64
	for _, s := range e.shards {
		sent += s.asserts.sent
		injected += s.asserts.injected
	}
	for _, ob := range e.outboxes {
		buffered += uint64(len(ob.buf))
		ready += uint64(len(ob.ready))
	}
	if sent != injected+buffered+ready {
		panic(fmt.Sprintf(
			"sim: pdosassert: boundary conservation violated: %d sent != %d injected + %d buffered + %d ready",
			sent, injected, buffered, ready))
	}
}
