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
//	    inject every buffered boundary event, merged in (when, at, edge, seq)
//	    order, into its destination kernel
//	    every shard runs RunBefore(target) concurrently — the window barrier
//
// The window target is adaptive: each barrier peeks the earliest pending
// instant m across all shards (the measured front of in-flight work,
// including just-injected cross-shard events) and advances to min(t, m+W)
// instead of the static now+W. When the shards are idle ahead of the next
// event — between attack pulses, or while a fluid tier ticks on one shard —
// this skips the empty windows entirely; it degrades gracefully to the
// static scheme under saturation, because then m is just past the previous
// barrier. Safety is unchanged: every event fired inside the window has
// when >= m, so a boundary send occurs for m + edgeDelay >= m + W >= target.
//
// A shard executing inside a window ending at `target` can only create
// boundary events for instants >= target, because every cross-shard edge
// imposes at least W of delay. So no shard can ever receive an event for its
// own past — the merge at the next barrier is always safe, with no rollback
// machinery.
//
// Determinism is a hard contract: a sharded run is a pure function of the
// scenario and worker count, and matches the serial kernel but for one
// residual freedom. The mechanism is the (when, at, seq) comparator in
// kernel.go — boundary events carry the virtual instant they were scheduled
// in the source shard ("at"), which is precisely the key the serial
// kernel's monotone seq counter encodes. The residual freedom is the order
// of two boundary events with identical (when, at) arriving over different
// edges, which the merge breaks by edge id; the serial kernel would have
// broken it by the relative execution order of the two source events at
// that instant. Such ties are rare but real: the test-bed with delayed ACKs
// under attack hits one (DESIGN.md §9). The randomized equivalence tests
// pin the dumbbell end to end. Window placement does not enter the argument
// at all — any barrier schedule that respects the conservative guard
// injects the same events in the same merged order — so the adaptive
// targets cannot perturb a trajectory.

// ErrNoLookahead is returned when a cross-shard edge declares a non-positive
// minimum delay: conservative synchronization requires strictly positive
// lookahead on every boundary edge.
var ErrNoLookahead = errors.New("sim: cross-shard edge with non-positive lookahead")

// Payload is the fixed-size boundary-event body. Models pack their
// cross-shard state (the netem layer packs a Packet) into the words; the
// engine never interprets them.
type Payload [6]uint64

// Port is the typed landing point for boundary events on a destination
// shard. Inject must schedule the decoded event on k via k.InjectArg with
// the provided (when, at) stamps; it runs on the engine's driver goroutine
// between windows, never concurrently with shard execution.
type Port interface {
	Inject(k *Kernel, when, at Time, w *Payload)
}

// boundaryEntry is one boundary event buffered in its source outbox: the
// delivery instant, the source-shard schedule instant (the determinism
// stamp), and the packed model state. Exactly 64 bytes — one cache line per
// event, appended sequentially by the source shard and read sequentially by
// the driver's merge, so a window's worth of boundary traffic streams
// through the cache instead of bouncing per-message.
type boundaryEntry struct {
	when Time
	at   Time
	w    Payload
}

// Outbox is the sending side of one cross-shard edge. Each outbox is a
// single-producer (its source shard's goroutine) single-consumer (the driver
// at the barrier) buffer: the source appends during a window, the driver
// drains between windows, and the window barrier is the synchronization
// point — no locks or atomics are needed. The buffer is retained across
// windows, so steady state appends allocate nothing.
type Outbox struct {
	s        *Shard
	dst      int
	port     int32
	edge     int32
	minDelay Time
	buf      []boundaryEntry
}

// Send buffers a boundary event for delivery at `when`, stamping it with the
// source shard's current instant. It must only be called from model code
// running on the source shard's kernel. The per-edge append order is the
// FIFO sequence the barrier merge uses as its final tie-break.
//
//pdos:hotpath
func (o *Outbox) Send(when Time, w *Payload) {
	s := o.s
	if when < s.eng.windowEnd {
		o.lookaheadViolation(when)
	}
	s.assertSent()
	o.buf = append(o.buf, boundaryEntry{when: when, at: s.k.now, w: *w})
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
	id    int
	eng   *Engine
	k     *Kernel
	ports []Port

	start chan shardCmd
	done  chan error

	asserts shardAsserts // pdosassert boundary-send accounting (assert.go)
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

// run is the shard's worker loop: execute one window per command.
func (s *Shard) run() {
	for cmd := range s.start {
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
// serial barrier merges. With a single shard the engine degenerates to the
// serial kernel: RunUntil forwards directly with no goroutines, channels, or
// barrier overhead.
type Engine struct {
	shards    []*Shard
	outboxes  []*Outbox   // every edge, in creation (= edge id) order
	inbound   [][]*Outbox // per destination shard, in edge id order
	lookahead Time        // min over outboxes; the conservative window floor
	now       Time
	windowEnd Time   // shards may not Send below this (conservative guard)
	windows   uint64 // barrier count, for diagnostics and benchmarks
	started   bool
	closed    bool
	scratch   []boundaryRef

	asserts engineAsserts // pdosassert boundary-injection accounting (assert.go)
}

// NewEngine returns an engine with n empty shards (n >= 1), each owning a
// fresh timing-wheel kernel.
func NewEngine(n int) *Engine {
	if n < 1 {
		n = 1
	}
	e := &Engine{
		shards:  make([]*Shard, n),
		inbound: make([][]*Outbox, n),
	}
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
// conservative lookahead protocol: cross-shard links stay on the two-event
// path, so portal timestamps and the adaptive PeekNext window bound are
// exactly what they were, and a fused local link's single delivery event can
// only sit at or after the tx-done event it replaces — PeekNext horizons
// only move later, never earlier.

// Pending reports the pending events across all shards plus boundary events
// buffered for future windows.
func (e *Engine) Pending() int {
	n := 0
	for _, s := range e.shards {
		n += s.k.Pending()
	}
	for _, ob := range e.outboxes {
		n += len(ob.buf)
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
	o := &Outbox{s: src, dst: dst.id, port: port, edge: int32(len(e.outboxes)), minDelay: minDelay}
	e.outboxes = append(e.outboxes, o)
	e.inbound[dst.id] = append(e.inbound[dst.id], o)
	if e.lookahead == 0 || minDelay < e.lookahead {
		e.lookahead = minDelay
	}
	return o, nil
}

// boundaryRef points at one buffered boundary event for the barrier merge:
// the sort key is copied out, the 48-byte payload stays in its outbox buffer
// and is read exactly once, at injection.
type boundaryRef struct {
	when Time
	at   Time
	ob   *Outbox
	pos  int32
}

// compareRef orders boundary events for the barrier merge: delivery instant,
// then source schedule instant (the determinism stamp), then edge id, then
// the per-edge FIFO position. Within one edge the buffer position is the
// append order, so this is the same total order the per-message transfer
// sequence used to encode. Allocation-free under slices.SortFunc.
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

// exchange drains every outbox and injects the buffered boundary events into
// their destination kernels, merged per destination in (when, at, edge, pos)
// order so that destination seq assignment — the final tie-break — is
// deterministic. Runs on the driver goroutine only. The merge sorts
// references, not messages: payloads stream once from the outbox buffers
// straight into the destination kernels.
func (e *Engine) exchange() {
	for di, dst := range e.shards {
		refs := e.scratch[:0]
		for _, ob := range e.inbound[di] {
			for pos := range ob.buf {
				refs = append(refs, boundaryRef{
					when: ob.buf[pos].when,
					at:   ob.buf[pos].at,
					ob:   ob,
					pos:  int32(pos),
				})
			}
		}
		if len(refs) == 0 {
			continue
		}
		slices.SortFunc(refs, compareRef)
		for i := range refs {
			r := &refs[i]
			ent := &r.ob.buf[r.pos]
			dst.ports[r.ob.port].Inject(dst.k, ent.when, ent.at, &ent.w)
			e.assertInjected()
		}
		for _, ob := range e.inbound[di] {
			ob.buf = ob.buf[:0]
		}
		e.scratch = refs[:0]
	}
	e.assertConserved()
}

// peekMin reports the earliest pending instant over all shard kernels, after
// the barrier's injections. Runs on the driver goroutine between windows;
// peeking may advance a kernel's wheel cascade but never detaches events.
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
// across the shards at the barrier and W the conservative lookahead; the
// final window is inclusive of t so instants at exactly t fire, matching the
// serial semantics.
func (e *Engine) RunUntil(t Time) error {
	if t < e.now {
		return ErrPastTime
	}
	if len(e.shards) == 1 {
		// Degenerate partition: the serial path, no goroutines or barriers.
		k := e.shards[0].k
		if err := k.RunUntil(t); err != nil {
			return err
		}
		e.now = t
		return nil
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
	for {
		e.exchange()
		target := t
		if m, ok := e.peekMin(); ok {
			// m >= e.now always (RunBefore drained everything earlier and
			// injections respect the guard), so nt > e.now unless m+w
			// overflowed — in which case the t default stands.
			if nt := m + w; nt < t && nt > e.now {
				target = nt
			}
		}
		final := target >= t
		e.windowEnd = target
		for _, s := range e.shards {
			s.start <- shardCmd{target: target, inclusive: final}
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
		e.now = target
		e.windows++
		if final {
			break
		}
	}
	return nil
}
