package sim

import (
	"errors"
	"fmt"
	"slices"
)

// This file implements a conservative parallel discrete-event engine: one
// topology is partitioned into shards, each shard owns a private Kernel and
// runs on its own goroutine, and the shards synchronize through lookahead
// windows derived from the minimum cross-shard propagation delay.
//
// The synchronization protocol is the classic conservative window scheme
// (Chandy/Misra lookahead with a global barrier instead of null messages):
//
//	W = min over all cross-shard edges of their minimum delay (the lookahead)
//	repeat:
//	    the driver hands every outbox's buffered boundary events to its
//	    destination shard
//	    every shard concurrently merges its inbound events in
//	    (when, at, edge, pos) order, injects them into its kernel, and runs
//	    RunBefore(target) — the window barrier
//	until target reaches the horizon t; then one last round, the same but
//	for RunUntil(t), fires instant t itself
//
// The window target is adaptive: each barrier takes the earliest pending
// instant m across all shards and all handed-over boundary events (the
// measured front of in-flight work) and advances to min(t, m+W) instead of
// the static now+W. When the shards are idle ahead of the next event —
// between attack pulses, or while a fluid tier ticks on one shard — this
// skips the empty windows entirely; it degrades gracefully to the static
// scheme under saturation, because then m is just past the previous
// barrier. Safety is unchanged: every event fired inside the window has
// when >= m, so a boundary send occurs for m + edgeDelay >= m + W >= target.
//
// A shard executing inside a window ending at `target` can only create
// boundary events for instants >= target, because every cross-shard edge
// imposes at least W of delay. So no shard can ever receive an event for its
// own past — the injection at the start of the next window is always safe,
// with no rollback machinery. The barrier itself does no per-event work:
// each outbox is double-buffered, the driver swaps the filled buffer into
// the outbox's ready slot, and the destination shard merges and injects on
// its own goroutine. The swap at the barrier is the only handoff between
// goroutines.
//
// Determinism is a hard contract: a sharded run is a pure function of the
// scenario and worker count, and matches the serial kernel but for one
// residual freedom. The mechanism is the (when, at, seq) comparator in
// kernel.go — a boundary event carries the schedule stamp ("at") its
// delivery event would have carried on the serial kernel, which is
// precisely the key the serial kernel's monotone seq counter encodes. The
// stamp may lie ahead of the source's clock: a fused link hands its packet
// over when serialization starts, stamped with the tx-done instant the
// serial kernel's AtArgStamped delivery carries. The residual freedom is
// the order of a boundary event against another event with identical
// (when, at): the merge breaks a tie between two boundary events by edge
// id, and an injected event draws its destination seq at injection, where
// the serial kernel orders tied events by when each was scheduled. Such
// ties are rare but real: the test-bed with delayed ACKs under attack hits
// one (DESIGN.md §9). The randomized equivalence tests pin the dumbbell end
// to end. Window placement does not enter the argument otherwise — any
// barrier schedule that respects the conservative guard injects the same
// events in the same merged order — so the adaptive targets cannot perturb
// a trajectory that has no such tie.

// ErrNoLookahead is returned when a cross-shard edge declares a non-positive
// minimum delay: conservative synchronization requires strictly positive
// lookahead on every boundary edge.
var ErrNoLookahead = errors.New("sim: cross-shard edge with non-positive lookahead")

// Payload is the fixed-size boundary-event body. Models pack their
// cross-shard state (the netem layer packs a Packet) into the words; the
// engine never interprets them.
type Payload [6]uint64

// Port is the typed landing point for boundary events on a destination
// shard. Inject must schedule the decoded event on k with
// k.AtArgStamped(when, at, …), the provided stamps; it runs on the
// destination shard's goroutine at the start of a window, before the
// window's first event. An injected event is due at or after the kernel's
// clock, and one due at the clock meets the position RunBefore left at the
// start of the window edge, where no key has passed, so it keeps the stamp
// its source gave it.
type Port interface {
	Inject(k *Kernel, when, at Time, w *Payload)
}

// boundaryEntry is one boundary event buffered in its source outbox: the
// delivery instant, the schedule stamp (the determinism key), and the
// packed model state. Exactly 64 bytes — one cache line per event, appended
// sequentially by the source shard and read sequentially by the destination
// shard's merge, so a window's worth of boundary traffic streams through the
// cache instead of bouncing per-message.
type boundaryEntry struct {
	when Time
	at   Time
	w    Payload
}

// Outbox is the sending side of one cross-shard edge. It is double-buffered:
// during a window the source shard's goroutine appends to buf while the
// destination shard's goroutine injects ready, the previous window's sends;
// at the barrier the driver swaps the two. The barrier is the only
// synchronization point — no locks or atomics are needed — and both buffers
// are retained across windows, so steady state appends allocate nothing.
type Outbox struct {
	s     *Shard
	port  int32
	edge  int32
	buf   []boundaryEntry // this window's sends (source goroutine)
	first Time            // earliest when in buf; valid while buf is non-empty
	ready []boundaryEntry // last window's sends, awaiting injection (destination goroutine)
}

// Send buffers a boundary event for delivery at `when` with schedule stamp
// `at` — the stamp the delivery would carry on the serial kernel, which may
// lie ahead of the source's clock (the destination clamps it to when, like
// Kernel.AtArgStamped). It must only be called from model code running on
// the source shard's kernel. The per-edge append order is the FIFO sequence
// the merge uses as its final tie-break.
//
//pdos:hotpath
func (o *Outbox) Send(when, at Time, w *Payload) {
	s := o.s
	if when < s.eng.windowEnd {
		o.lookaheadViolation(when)
	}
	s.assertSent()
	if len(o.buf) == 0 || when < o.first {
		o.first = when
	}
	o.buf = append(o.buf, boundaryEntry{when: when, at: at, w: *w})
}

// lookaheadViolation panics with the conservative-guard diagnostic; split
// from Send so the hot path carries no formatting.
func (o *Outbox) lookaheadViolation(when Time) {
	panic(fmt.Sprintf(
		"sim: conservative lookahead violated: edge %d sends for t=%d inside window ending %d",
		o.edge, when, o.s.eng.windowEnd))
}

// Shard is one partition of the topology: a private kernel plus the boundary
// plumbing that connects it to its peers.
type Shard struct {
	id      int
	eng     *Engine
	k       *Kernel
	ports   []Port
	inbound []*Outbox     // edges landing here, in edge id order
	scratch []boundaryRef // the merge's reused sort buffer

	start chan shardCmd
	done  chan error
	fired uint64 // kernel Processed() at the last barrier (CriticalPath)

	asserts shardAsserts // pdosassert boundary accounting (assert.go)
}

type shardCmd struct {
	target    Time
	inclusive bool // final window: fire events at exactly target too
}

// ID reports the shard's index within its engine.
func (s *Shard) ID() int { return s.id }

// Kernel exposes the shard's private kernel for building model components.
func (s *Shard) Kernel() *Kernel { return s.k }

// RegisterPort registers a boundary landing point and returns its index for
// use in NewOutbox on peer shards. Registration order must be deterministic
// (it is part of the merge tie-break via outbox edge ids).
func (s *Shard) RegisterPort(p Port) int32 {
	s.ports = append(s.ports, p)
	return int32(len(s.ports) - 1)
}

// run is the shard's worker loop: inject the boundary events handed over at
// the barrier, then execute one window per command.
func (s *Shard) run() {
	for cmd := range s.start {
		s.inject()
		var err error
		if cmd.inclusive {
			err = s.k.RunUntil(cmd.target)
		} else {
			err = s.k.RunBefore(cmd.target)
		}
		s.done <- err
	}
}

// Engine drives a set of shards through conservative lookahead windows.
// Build phase (NewEngine, RegisterPort, NewOutbox, model wiring) is
// single-goroutine; RunUntil then alternates concurrent shard windows with
// barriers that only swap outbox buffers. A serial run needs no engine — it
// drives its one kernel directly — so every engine, one shard or many, runs
// the same window loop.
type Engine struct {
	shards    []*Shard
	outboxes  []*Outbox // every edge, in creation (= edge id) order
	lookahead Time      // min over outboxes; the conservative window floor
	now       Time
	windowEnd Time   // shards may not Send below this (conservative guard)
	windows   uint64 // barrier count, for diagnostics and benchmarks
	critical  uint64 // sum over windows of the busiest shard's fired events
	started   bool
	closed    bool
}

// NewEngine returns an engine with n empty shards (n >= 1), each owning a
// fresh timing-wheel kernel.
func NewEngine(n int) *Engine {
	if n < 1 {
		n = 1
	}
	e := &Engine{shards: make([]*Shard, n)}
	for i := range e.shards {
		e.shards[i] = &Shard{
			id:  i,
			eng: e,
			k:   New(),
		}
	}
	return e
}

// Shard returns partition i.
func (e *Engine) Shard(i int) *Shard { return e.shards[i] }

// Now reports the engine's barrier clock: every shard's kernel has reached
// at least this instant.
func (e *Engine) Now() Time { return e.now }

// Windows reports how many barrier windows have been executed.
func (e *Engine) Windows() uint64 { return e.windows }

// CriticalPath reports the sum, over every window, of the events fired by
// that window's busiest shard. Windows run one after another and a window
// lasts as long as its busiest shard, so Processed()/CriticalPath() bounds
// the speedup of this plan on any host, counting events. The count is a
// pure function of the scenario and the worker count, like the window
// sequence, and is summed at the barrier, at no per-event cost.
func (e *Engine) CriticalPath() uint64 { return e.critical }

// Lookahead reports the conservative window width: the minimum declared
// delay over all cross-shard edges (0 until the first edge exists). The
// adaptive barrier advances windows beyond this floor whenever every shard's
// next event lies further out.
func (e *Engine) Lookahead() Time { return e.lookahead }

// Processed reports the total kernel events fired across all shards. Because
// a boundary transfer suppresses exactly one delivery event in the source
// shard and creates exactly one in the destination, this equals the serial
// kernel's Processed for an equivalent run — up to bookkeeping timers that
// model layers run per shard (the tcp package's RTO-wheel heartbeats);
// layers that own such timers subtract them, as topo.Environment.Processed
// does.
func (e *Engine) Processed() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.k.Processed()
	}
	return n
}

// Event fusion (netem's fused link path, DESIGN.md §14) never weakens the
// conservative lookahead protocol. A fused link's single delivery event sits
// at tx-done+delay, at or after the tx-done event it replaces, so PeekNext
// horizons only move later, never earlier. A fused cross-shard link sends
// its boundary event when serialization starts, for tx-done+delay: at least
// the sending event's instant plus the edge delay, so the conservative guard
// holds as it does for a send at tx-done, and the barrier counts the
// buffered event in the window's front m.

// Pending reports the pending events across all shards plus boundary events
// buffered for future windows, in either outbox buffer.
func (e *Engine) Pending() int {
	n := 0
	for _, s := range e.shards {
		n += s.k.Pending()
	}
	for _, ob := range e.outboxes {
		n += len(ob.buf) + len(ob.ready)
	}
	return n
}

// NewOutbox creates a cross-shard edge from src to dst, landing on dst's
// port (a RegisterPort result). minDelay is the edge's guaranteed minimum
// delivery latency — the engine's lookahead is the minimum over all edges,
// so it must be strictly positive.
func (e *Engine) NewOutbox(src, dst *Shard, port int32, minDelay Time) (*Outbox, error) {
	if minDelay <= 0 {
		return nil, ErrNoLookahead
	}
	if src.eng != e || dst.eng != e {
		return nil, errors.New("sim: outbox endpoints belong to a different engine")
	}
	if src == dst {
		return nil, errors.New("sim: outbox source and destination are the same shard")
	}
	if int(port) >= len(dst.ports) {
		return nil, fmt.Errorf("sim: destination shard %d has no port %d", dst.id, port)
	}
	o := &Outbox{s: src, port: port, edge: int32(len(e.outboxes))}
	e.outboxes = append(e.outboxes, o)
	dst.inbound = append(dst.inbound, o)
	if e.lookahead == 0 || minDelay < e.lookahead {
		e.lookahead = minDelay
	}
	return o, nil
}

// boundaryRef points at one buffered boundary event for the merge: the sort
// key is copied out, the 48-byte payload stays in its outbox buffer and is
// read exactly once, at injection.
type boundaryRef struct {
	when Time
	at   Time
	ob   *Outbox
	pos  int32
}

// compareRef orders boundary events for the merge: delivery instant, then
// schedule stamp (the determinism key), then edge id, then the per-edge FIFO
// position. Within one edge the buffer position is the append order, so this
// is the same total order the per-message transfer sequence used to encode.
// Allocation-free under slices.SortFunc.
func compareRef(a, b boundaryRef) int {
	switch {
	case a.when != b.when:
		if a.when < b.when {
			return -1
		}
		return 1
	case a.at != b.at:
		if a.at < b.at {
			return -1
		}
		return 1
	case a.ob.edge != b.ob.edge:
		if a.ob.edge < b.ob.edge {
			return -1
		}
		return 1
	case a.pos != b.pos:
		if a.pos < b.pos {
			return -1
		}
		return 1
	}
	return 0
}

// swap hands every outbox's buffered events to its destination shard and
// reports the earliest delivery instant among them. Runs on the driver
// goroutine between windows, when every ready buffer has been injected and
// emptied; the destination shards merge and inject on their own goroutines.
func (e *Engine) swap() (Time, bool) {
	var m Time
	found := false
	for _, ob := range e.outboxes {
		if len(ob.buf) == 0 {
			continue
		}
		if !found || ob.first < m {
			m, found = ob.first, true
		}
		ob.buf, ob.ready = ob.ready[:0], ob.buf
	}
	e.assertConserved()
	return m, found
}

// inject merges the shard's inbound ready buffers in (when, at, edge, pos)
// order and injects them into its kernel, so that destination seq
// assignment — the final tie-break — is deterministic. It runs on the
// shard's goroutine before the window's first event. The merge sorts
// references, not messages: payloads stream once from the outbox buffers
// straight into the kernel.
func (s *Shard) inject() {
	refs := s.scratch[:0]
	for _, ob := range s.inbound {
		for pos := range ob.ready {
			refs = append(refs, boundaryRef{
				when: ob.ready[pos].when,
				at:   ob.ready[pos].at,
				ob:   ob,
				pos:  int32(pos),
			})
		}
	}
	if len(refs) == 0 {
		return
	}
	slices.SortFunc(refs, compareRef)
	for i := range refs {
		r := &refs[i]
		ent := &r.ob.ready[r.pos]
		s.ports[r.ob.port].Inject(s.k, ent.when, ent.at, &ent.w)
		s.assertInjected()
	}
	for _, ob := range s.inbound {
		ob.ready = ob.ready[:0]
	}
	s.scratch = refs[:0]
}

// peekMin reports the earliest pending instant over all shard kernels. Runs
// on the driver goroutine between windows; peeking may advance a kernel's
// wheel cascade but never detaches events.
func (e *Engine) peekMin() (Time, bool) {
	var m Time
	found := false
	for _, s := range e.shards {
		if w, ok := s.k.PeekNext(); ok && (!found || w < m) {
			m, found = w, true
		}
	}
	return m, found
}

// ensureWorkers lazily starts one goroutine per shard.
func (e *Engine) ensureWorkers() {
	if e.started {
		return
	}
	e.started = true
	for _, s := range e.shards {
		s.start = make(chan shardCmd, 1)
		s.done = make(chan error, 1)
		//pdos:shard-ok — the engine's own worker spawn: the shard is owned exclusively by this goroutine from here on, the engine only talks to it through start/done
		go s.run()
	}
}

// Close stops the worker goroutines. The engine must not be run again after
// Close; calling Close on a never-run or already-closed engine is a no-op.
func (e *Engine) Close() {
	if !e.started || e.closed {
		e.closed = true
		return
	}
	e.closed = true
	for _, s := range e.shards {
		close(s.start)
	}
}

// RunUntil advances every shard to the virtual instant t, firing all events
// scheduled at or before t — exactly the serial kernel's RunUntil contract,
// lifted to the sharded topology. Each window runs concurrently to the
// adaptive target min(t, m+W), where m is the earliest pending instant
// across the shards and the handed-over boundary events at the barrier and
// W the conservative lookahead. These windows stop short of t (RunBefore);
// one final window then fires instant t itself (RunUntil). A boundary event
// sent for exactly t in the last exclusive window is injected at the start
// of that final window, at the start-of-instant position RunBefore(t) left,
// so it fires inside this call and orders against t's local events by its
// full (when, at, seq) key, as on the serial kernel. The final window sends
// nothing for t: every boundary edge adds at least W.
func (e *Engine) RunUntil(t Time) error {
	if t < e.now {
		return ErrPastTime
	}
	if e.closed {
		return errors.New("sim: engine is closed")
	}
	w := e.lookahead
	if w <= 0 {
		// No cross-shard edges: the shards are independent; one window.
		w = t - e.now + 1
	}
	e.ensureWorkers()
	for e.now < t {
		target := t
		m, ok := e.swap()
		if pm, pok := e.peekMin(); pok && (!ok || pm < m) {
			m, ok = pm, true
		}
		if ok {
			// m >= e.now always (RunBefore drained everything earlier and
			// sends respect the guard), so nt > e.now unless m+w overflowed
			// — in which case the t default stands.
			if nt := m + w; nt < t && nt > e.now {
				target = nt
			}
		}
		if err := e.window(target, false); err != nil {
			return err
		}
	}
	e.swap()
	return e.window(t, true)
}

// window runs every shard to target — RunUntil when inclusive, RunBefore
// otherwise — waits at the barrier, and charges the window's busiest shard
// to the critical path.
func (e *Engine) window(target Time, inclusive bool) error {
	e.windowEnd = target
	for _, s := range e.shards {
		s.start <- shardCmd{target: target, inclusive: inclusive}
	}
	var firstErr error
	for _, s := range e.shards {
		if err := <-s.done; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	var busiest uint64
	for _, s := range e.shards {
		n := s.k.Processed()
		busiest = max(busiest, n-s.fired)
		s.fired = n
	}
	e.critical += busiest
	e.now = target
	e.windows++
	return nil
}
