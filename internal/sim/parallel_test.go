package sim

import (
	"fmt"
	"testing"
)

// The parallel engine's determinism contract is pinned the same way the
// wheel kernel's was (wheel_test.go): run a randomized program on the serial
// kernel and on sharded engines at several worker counts, and require the
// observable results — per-node firing logs, counters, processed and pending
// totals — to match exactly.
//
// The program is a message-passing world: N nodes exchange hop-limited
// messages whose routing, fan-out, and delays derive from a rng state
// carried inside each message (so decisions depend only on message content,
// never on which shard executes them). Messages between distinct nodes
// always travel with delay >= L, the declared lookahead; self-messages may
// use any delay. One message in three lands on a coarse grid, where
// deliveries tie on their instant, stamped anywhere between its send and its
// delivery — as a fused link stamps a delivery with its tx-done instant when
// serialization starts. The serial kernel schedules it with AtArgStamped,
// the sharded engine sends it with that stamp, and the stamps alone order
// the tied deliveries. Each arrival folds the node's order-sensitive state
// into the message value, so any divergence in event ordering cascades into
// the logs and is caught.

func pxorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

type ptmsg struct {
	node int32
	hops int32
	rng  uint64
	val  uint64
}

type prec struct {
	when Time
	val  uint64
}

type pnode struct {
	counter uint64
	log     []prec
}

type pworld struct {
	nodes []pnode
	L     Time
	grid  Time // the instants stamped-ahead deliveries land on
	emit  func(k *Kernel, src int32, when, at Time, m *ptmsg)
}

// arrive is the shared model step: record the arrival, then derive and emit
// the next hop(s) from the carried rng state.
func (w *pworld) arrive(k *Kernel, m *ptmsg) {
	now := k.Now()
	n := &w.nodes[m.node]
	m.val += n.counter ^ uint64(len(n.log))
	n.counter += m.val
	n.log = append(n.log, prec{now, m.val})
	if m.hops <= 0 {
		return
	}
	// Every message's rng state lies on one xorshift orbit, so two messages
	// can carry the same state; on the grid they would then make the same
	// choices at the same instant and tie two boundary deliveries on
	// (when, at), the one order the engine does not reproduce (parallel.go).
	// Folding in the message value keeps their choices apart.
	r := pxorshift(m.rng ^ m.val)
	fan := 1
	if r%5 == 0 {
		fan = 2
	}
	for i := 0; i < fan; i++ {
		r = pxorshift(r)
		next := int32(r % uint64(len(w.nodes)))
		r = pxorshift(r)
		var delay Time
		if next == m.node {
			delay = Time(r % uint64(w.L)) // self-hops may undercut the lookahead
		} else {
			delay = w.L + Time(r%uint64(3*w.L))
		}
		when, at := now+delay, now
		r = pxorshift(r)
		if r%3 == 0 {
			when = (when/w.grid + 1) * w.grid
			at += Time((r >> 8) % uint64(when-now+1))
		}
		r = pxorshift(r)
		w.emit(k, m.node, when, at, &ptmsg{node: next, hops: m.hops - 1, rng: r, val: m.val + uint64(i)})
	}
}

func (w *pworld) seedInitial(seed uint64, horizon Time) []ptmsg {
	r := seed
	msgs := make([]ptmsg, len(w.nodes))
	for i := range msgs {
		r = pxorshift(r)
		start := Time(r % uint64(horizon/4))
		r = pxorshift(r)
		hops := int32(3 + r%20)
		r = pxorshift(r)
		msgs[i] = ptmsg{node: int32(i), hops: hops, rng: r, val: uint64(i)}
		_ = start
		msgs[i].val = uint64(i)<<32 | uint64(start)
	}
	return msgs
}

type pworldResult struct {
	nodes     []pnode
	processed uint64
	pending   int
}

// runSerialWorld executes the program on a single serial kernel.
func runSerialWorld(t *testing.T, nodes int, L Time, seed uint64, horizon Time) pworldResult {
	t.Helper()
	k := New()
	w := &pworld{nodes: make([]pnode, nodes), L: L, grid: 10 * L}
	deliver := handlerFunc(func(a any) { w.arrive(k, a.(*ptmsg)) })
	w.emit = func(_ *Kernel, _ int32, when, at Time, m *ptmsg) {
		if _, err := k.AtArgStamped(when, at, deliver, m); err != nil {
			t.Fatalf("serial schedule: %v", err)
		}
	}
	for _, m := range w.seedInitial(seed, horizon) {
		mm := m
		start := Time(mm.val & 0xffffffff)
		if _, err := k.AtArgStamped(start, k.Now(), deliver, &mm); err != nil {
			t.Fatalf("serial seed: %v", err)
		}
	}
	if err := k.RunUntil(horizon); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	return pworldResult{nodes: w.nodes, processed: k.Processed(), pending: k.Pending()}
}

type pport struct {
	k       *Kernel
	deliver Handler
}

func (p *pport) Inject(k *Kernel, when, at Time, wd *Payload) {
	m := &ptmsg{
		node: int32(wd[0]),
		hops: int32(wd[1]),
		rng:  wd[2],
		val:  wd[3],
	}
	if _, err := k.AtArgStamped(when, at, p.deliver, m); err != nil {
		panic(err)
	}
}

// runShardedWorld executes the same program on an engine with the nodes
// distributed round-robin over `workers` shards.
func runShardedWorld(t *testing.T, nodes, workers int, L Time, seed uint64, horizon Time) pworldResult {
	t.Helper()
	e := NewEngine(workers)
	defer e.Close()
	w := &pworld{nodes: make([]pnode, nodes), L: L, grid: 10 * L}
	owner := func(node int32) int { return int(node) % workers }

	delivers := make([]handlerFunc, workers)
	ports := make([]int32, workers)
	for s := 0; s < workers; s++ {
		sh := e.Shard(s)
		k := sh.Kernel()
		delivers[s] = func(a any) { w.arrive(k, a.(*ptmsg)) }
		ports[s] = sh.RegisterPort(&pport{k: k, deliver: delivers[s]})
	}
	// Full mesh of boundary edges, all with lookahead L.
	outbox := make([][]*Outbox, workers)
	for s := 0; s < workers; s++ {
		outbox[s] = make([]*Outbox, workers)
		for d := 0; d < workers; d++ {
			if s == d {
				continue
			}
			ob, err := e.NewOutbox(e.Shard(s), e.Shard(d), ports[d], L)
			if err != nil {
				t.Fatalf("outbox %d->%d: %v", s, d, err)
			}
			outbox[s][d] = ob
		}
	}
	w.emit = func(k *Kernel, src int32, when, at Time, m *ptmsg) {
		so, do := owner(src), owner(m.node)
		if so == do {
			if _, err := k.AtArgStamped(when, at, delivers[do], m); err != nil {
				panic(err)
			}
			return
		}
		var wd Payload
		wd[0] = uint64(uint32(m.node))
		wd[1] = uint64(uint32(m.hops))
		wd[2] = m.rng
		wd[3] = m.val
		outbox[so][do].Send(when, at, &wd)
	}
	for _, m := range w.seedInitial(seed, horizon) {
		mm := m
		start := Time(mm.val & 0xffffffff)
		s := owner(mm.node)
		sk := e.Shard(s).Kernel()
		if _, err := sk.AtArgStamped(start, sk.Now(), delivers[s], &mm); err != nil {
			t.Fatalf("sharded seed: %v", err)
		}
	}
	if err := e.RunUntil(horizon); err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	return pworldResult{nodes: w.nodes, processed: e.Processed(), pending: e.Pending()}
}

func comparePWorlds(t *testing.T, label string, want, got pworldResult) {
	t.Helper()
	if want.processed != got.processed {
		t.Errorf("%s: processed %d, serial %d", label, got.processed, want.processed)
	}
	if want.pending != got.pending {
		t.Errorf("%s: pending %d, serial %d", label, got.pending, want.pending)
	}
	for i := range want.nodes {
		wn, gn := &want.nodes[i], &got.nodes[i]
		if wn.counter != gn.counter {
			t.Errorf("%s: node %d counter %d, serial %d", label, i, gn.counter, wn.counter)
		}
		if len(wn.log) != len(gn.log) {
			t.Errorf("%s: node %d log length %d, serial %d", label, i, len(gn.log), len(wn.log))
			continue
		}
		for j := range wn.log {
			if wn.log[j] != gn.log[j] {
				t.Errorf("%s: node %d log[%d] = %+v, serial %+v", label, i, j, gn.log[j], wn.log[j])
				break
			}
		}
	}
}

// TestEngineSerialEquivalence is the randomized determinism contract: the
// sharded engine must reproduce the serial kernel's behaviour exactly at
// every worker count, including counts that do not divide the node count.
func TestEngineSerialEquivalence(t *testing.T) {
	const (
		nodes   = 37
		L       = Time(1 * Millisecond)
		horizon = Time(2 * Second)
	)
	for seed := uint64(1); seed <= 25; seed++ {
		want := runSerialWorld(t, nodes, L, seed, horizon)
		for _, workers := range []int{1, 2, 3, 4, 8} {
			got := runShardedWorld(t, nodes, workers, L, seed, horizon)
			comparePWorlds(t, fmt.Sprintf("seed %d workers %d", seed, workers), want, got)
		}
		if t.Failed() {
			t.Fatalf("divergence at seed %d", seed)
		}
	}
}

// TestEngineInjectOrdering pins the comparator contract directly: a boundary
// event injected with an earlier schedule stamp must fire before a local
// event at the same instant that was scheduled later in virtual time, and
// after one scheduled earlier — exactly where the serial kernel would have
// placed it.
func TestEngineInjectOrdering(t *testing.T) {
	k := New()
	var order []string
	// Local event scheduled at virtual time 0 for t=100.
	if _, err := k.At(100, func() { order = append(order, "local-at0") }); err != nil {
		t.Fatal(err)
	}
	// Boundary event scheduled in its source shard at virtual time 40,
	// delivered at t=100.
	if _, err := k.AtArgStamped(100, 40, handlerFunc(func(any) { order = append(order, "inject-at40") }), nil); err != nil {
		t.Fatal(err)
	}
	// Local event scheduled at virtual time 60 (after the injection's source
	// instant) for the same t=100: schedule it from inside an event at 60.
	if _, err := k.At(60, func() {
		if _, err := k.At(100, func() { order = append(order, "local-at60") }); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	want := []string{"local-at0", "inject-at40", "local-at60"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestEngineFinalWindow: a boundary event sent for exactly the horizon of
// Engine.RunUntil fires inside that call, ordered among the instant's local
// events by its full (when, at, seq) key, as on the serial kernel. Two
// shards, a 1 ms edge: an event at 4 ms on shard 0 sends for 5 ms, stamped
// 4 ms; shard 1 holds local events at 5 ms stamped 0 and 4.5 ms.
func TestEngineFinalWindow(t *testing.T) {
	const ms = Millisecond
	var order []string
	record := func(name string) Handler {
		return handlerFunc(func(any) { order = append(order, name) })
	}
	schedule := func(k *Kernel, when, at Time, h Handler) {
		t.Helper()
		if _, err := k.AtArgStamped(when, at, h, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"local-at0", "boundary-at4", "local-at4.5"}

	k := New()
	schedule(k, 5*ms, 0, record("local-at0"))
	schedule(k, 5*ms, 4*ms+ms/2, record("local-at4.5"))
	schedule(k, 4*ms, 0, handlerFunc(func(any) { schedule(k, 5*ms, 4*ms, record("boundary-at4")) }))
	if err := k.RunUntil(5 * ms); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("serial fired %v, want %v", order, want)
	}

	order = nil
	e := NewEngine(2)
	defer e.Close()
	port := e.Shard(1).RegisterPort(&pport{deliver: record("boundary-at4")})
	ob, err := e.NewOutbox(e.Shard(0), e.Shard(1), port, ms)
	if err != nil {
		t.Fatal(err)
	}
	k0, k1 := e.Shard(0).Kernel(), e.Shard(1).Kernel()
	schedule(k1, 5*ms, 0, record("local-at0"))
	schedule(k1, 5*ms, 4*ms+ms/2, record("local-at4.5"))
	schedule(k0, 4*ms, 0, handlerFunc(func(any) { ob.Send(5*ms, 4*ms, &Payload{}) }))
	if err := e.RunUntil(5 * ms); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != fmt.Sprint(want) || e.Pending() != 0 {
		t.Errorf("RunUntil(5 ms) fired %v with %d pending, want %v with none", order, e.Pending(), want)
	}
	if e.Processed() != k.Processed() {
		t.Errorf("processed %d events, serial %d", e.Processed(), k.Processed())
	}
	if cp := e.CriticalPath(); cp == 0 || cp > e.Processed() {
		t.Errorf("critical path %d of %d events", cp, e.Processed())
	}
}
