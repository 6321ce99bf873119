package netem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pulsedos/internal/rng"
	"pulsedos/internal/sim"
)

func dataPacket(seq int64, size int) *Packet {
	return &Packet{Flow: 1, Class: ClassData, Dir: DirForward, Size: size, Seq: seq}
}

func TestDropTailFIFO(t *testing.T) {
	q := NewDropTail(10)
	for i := int64(0); i < 5; i++ {
		if !q.Enqueue(dataPacket(i, 100), 0) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	if q.Len() != 5 || q.Bytes() != 500 {
		t.Errorf("Len=%d Bytes=%d", q.Len(), q.Bytes())
	}
	for i := int64(0); i < 5; i++ {
		p := q.Dequeue(0)
		if p == nil || p.Seq != i {
			t.Fatalf("dequeue %d got %+v", i, p)
		}
	}
	if q.Dequeue(0) != nil {
		t.Error("empty dequeue should be nil")
	}
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Errorf("after drain Len=%d Bytes=%d", q.Len(), q.Bytes())
	}
}

func TestDropTailLimit(t *testing.T) {
	q := NewDropTail(3)
	for i := int64(0); i < 3; i++ {
		if !q.Enqueue(dataPacket(i, 10), 0) {
			t.Fatalf("enqueue %d rejected below limit", i)
		}
	}
	if q.Enqueue(dataPacket(3, 10), 0) {
		t.Error("enqueue above limit accepted")
	}
	q.Dequeue(0)
	if !q.Enqueue(dataPacket(4, 10), 0) {
		t.Error("enqueue after drain rejected")
	}
	if q.Limit() != 3 {
		t.Errorf("Limit = %d", q.Limit())
	}
	if NewDropTail(0).Limit() != 1 {
		t.Error("non-positive limit should clamp to 1")
	}
}

func TestDropTailCompaction(t *testing.T) {
	// Interleave enough enqueue/dequeue churn to wrap and grow the ring
	// many times and verify FIFO order survives.
	q := NewDropTail(1000)
	next := int64(0)
	expect := int64(0)
	for round := 0; round < 100; round++ {
		for i := 0; i < 10; i++ {
			if !q.Enqueue(dataPacket(next, 1), 0) {
				t.Fatal("unexpected rejection")
			}
			next++
		}
		for i := 0; i < 8; i++ {
			p := q.Dequeue(0)
			if p == nil || p.Seq != expect {
				t.Fatalf("round %d: got %+v, want seq %d", round, p, expect)
			}
			expect++
		}
	}
}

// TestDropTailRingCapacity: over a long enqueue/dequeue run whose
// occupancy wanders between empty and a small peak, the queue's storage
// stays within twice the peak occupancy and FIFO order holds.
func TestDropTailRingCapacity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, bound := range []int{1, 3, 5, 12, 40} {
		q := NewDropTail(1000)
		next, expect := int64(0), int64(0)
		peak := 0
		for op := 0; op < 20000; op++ {
			if q.Len() < bound && (q.Len() == 0 || r.Intn(2) == 0) {
				if !q.Enqueue(dataPacket(next, 1), 0) {
					t.Fatal("unexpected rejection")
				}
				next++
				peak = max(peak, q.Len())
			} else {
				p := q.Dequeue(0)
				if p == nil || p.Seq != expect {
					t.Fatalf("bound %d, op %d: got %+v, want seq %d", bound, op, p, expect)
				}
				expect++
			}
			if c := len(q.ring); c > 2*peak {
				t.Fatalf("bound %d, op %d: %d slots for a peak occupancy of %d", bound, op, c, peak)
			}
		}
		if peak != bound {
			t.Fatalf("bound %d: the run peaked at %d", bound, peak)
		}
	}
}

// TestDropTailConservation: accepted = dequeued + still-queued, for any
// enqueue/dequeue interleaving.
func TestDropTailConservation(t *testing.T) {
	property := func(ops []bool, limitRaw uint8) bool {
		limit := int(limitRaw%32) + 1
		q := NewDropTail(limit)
		accepted, dequeued := 0, 0
		var seq int64
		for _, isEnqueue := range ops {
			if isEnqueue {
				if q.Enqueue(dataPacket(seq, 7), 0) {
					accepted++
				}
				seq++
			} else if q.Dequeue(0) != nil {
				dequeued++
			}
			if q.Len() > limit {
				return false
			}
			if q.Bytes() != q.Len()*7 {
				return false
			}
		}
		return accepted == dequeued+q.Len()
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

func TestREDBelowMinThNeverDrops(t *testing.T) {
	cfg := DefaultREDConfig(100) // minth 20, maxth 80
	q := NewRED(cfg, rng.New(1), 1e6)
	// Keep instantaneous queue at ~5 packets: enqueue one, dequeue one.
	for i := int64(0); i < 5; i++ {
		if !q.Enqueue(dataPacket(i, 1000), sim.Time(i)) {
			t.Fatalf("drop below min_th at %d", i)
		}
	}
	for i := int64(5); i < 2000; i++ {
		if !q.Enqueue(dataPacket(i, 1000), sim.Time(i)*sim.Millisecond) {
			t.Fatalf("drop below min_th at %d (avg=%.2f)", i, q.Average())
		}
		q.Dequeue(sim.Time(i) * sim.Millisecond)
	}
	if q.EarlyDrops() != 0 || q.ForcedDrops() != 0 {
		t.Errorf("drops below min_th: early=%d forced=%d", q.EarlyDrops(), q.ForcedDrops())
	}
}

func TestREDFullQueueForcesDrops(t *testing.T) {
	cfg := DefaultREDConfig(10)
	q := NewRED(cfg, rng.New(1), 1e6)
	for i := int64(0); i < 50; i++ {
		q.Enqueue(dataPacket(i, 1000), 0)
	}
	if q.Len() > 10 {
		t.Errorf("queue exceeded physical limit: %d", q.Len())
	}
	if q.ForcedDrops()+q.EarlyDrops() == 0 {
		t.Error("overload produced no drops")
	}
}

func TestREDEarlyDropsUnderSustainedLoad(t *testing.T) {
	cfg := DefaultREDConfig(100)
	q := NewRED(cfg, rng.New(1), 1e6)
	// Hold the instantaneous queue near 60 (between min_th 20 and max_th
	// 80): the average converges there and early drops must appear.
	var seq int64
	for seq = 0; seq < 60; seq++ {
		q.Enqueue(dataPacket(seq, 1000), 0)
	}
	for i := 0; i < 5000; i++ {
		now := sim.Time(i) * sim.Millisecond
		q.Enqueue(dataPacket(seq, 1000), now)
		seq++
		if q.Len() > 60 {
			q.Dequeue(now)
		}
	}
	if q.EarlyDrops() == 0 {
		t.Errorf("no early drops with avg=%.1f between thresholds", q.Average())
	}
	if q.Average() < cfg.MinTh || q.Average() > cfg.MaxTh+5 {
		t.Errorf("average %.1f escaped the operating band", q.Average())
	}
}

func TestREDGentleRampAccepts(t *testing.T) {
	// With gentle mode the band [maxth, 2maxth] still admits some packets;
	// without it everything above maxth is dropped.
	mk := func(gentle bool) *RED {
		cfg := DefaultREDConfig(200)
		cfg.Gentle = gentle
		return NewRED(cfg, rng.New(1), 1e6)
	}
	fill := func(q *RED) (accepted int) {
		var seq int64
		// Force the average into (maxth, 2maxth) ≈ (160, 320) by keeping
		// the instantaneous queue at 180.
		for seq = 0; seq < 180; seq++ {
			q.Enqueue(dataPacket(seq, 1000), 0)
		}
		for i := 0; i < 3000; i++ {
			now := sim.Time(i) * sim.Millisecond
			if q.Enqueue(dataPacket(seq, 1000), now) {
				accepted++
				q.Dequeue(now)
			}
			seq++
		}
		return accepted
	}
	gentleAccepted := fill(mk(true))
	hardAccepted := fill(mk(false))
	if gentleAccepted <= hardAccepted {
		t.Errorf("gentle accepted %d <= hard %d in the ramp band", gentleAccepted, hardAccepted)
	}
}

func TestREDIdleDecay(t *testing.T) {
	cfg := DefaultREDConfig(100)
	q := NewRED(cfg, rng.New(1), 8e6) // 1 MB/s drain
	var seq int64
	for ; seq < 60; seq++ {
		q.Enqueue(dataPacket(seq, 1000), 0)
	}
	// Push the EWMA up with sustained arrivals at t=0..n.
	for i := 0; i < 2000; i++ {
		q.Enqueue(dataPacket(seq, 1000), sim.Time(i)*sim.Microsecond)
		seq++
		q.Dequeue(sim.Time(i) * sim.Microsecond)
	}
	before := q.Average()
	// Drain completely, then let it idle 10 seconds.
	for q.Dequeue(2*sim.Millisecond) != nil {
	}
	if !q.Enqueue(dataPacket(seq, 1000), 10*sim.Second) {
		t.Fatal("post-idle enqueue rejected")
	}
	after := q.Average()
	if after >= before/2 {
		t.Errorf("idle decay too weak: avg %.2f -> %.2f", before, after)
	}
}

func TestDefaultREDConfigMatchesPaper(t *testing.T) {
	cfg := DefaultREDConfig(100)
	if cfg.MinTh != 20 || cfg.MaxTh != 80 {
		t.Errorf("thresholds = %g/%g, want 20/80", cfg.MinTh, cfg.MaxTh)
	}
	if cfg.Wq != 0.002 || cfg.MaxP != 0.1 || !cfg.Gentle {
		t.Errorf("wq=%g maxp=%g gentle=%v", cfg.Wq, cfg.MaxP, cfg.Gentle)
	}
}

// TestREDNeverExceedsLimit is the safety property: whatever the arrival
// pattern, the physical buffer bound holds and accounting stays consistent.
func TestREDNeverExceedsLimit(t *testing.T) {
	property := func(ops []bool, seed uint64) bool {
		q := NewRED(DefaultREDConfig(16), rng.New(seed), 1e6)
		var seq int64
		now := sim.Time(0)
		for _, isEnqueue := range ops {
			now += sim.Millisecond
			if isEnqueue {
				q.Enqueue(dataPacket(seq, 500), now)
				seq++
			} else {
				q.Dequeue(now)
			}
			if q.Len() > 16 || q.Bytes() != q.Len()*500 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

func TestAdaptiveREDTunesMaxP(t *testing.T) {
	cfg := DefaultREDConfig(100) // minth 20, maxth 80, target band [44, 56]
	q := NewAdaptiveRED(cfg, rng.New(1), 8e6)
	if !q.Adaptive() {
		t.Fatal("not adaptive")
	}
	start := q.MaxP()
	// Hold the instantaneous queue at 75 (above the band) for many seconds:
	// max_p must rise.
	var seq int64
	for ; seq < 75; seq++ {
		q.Enqueue(dataPacket(seq, 1000), 0)
	}
	for i := 0; i < 20000; i++ {
		now := sim.Time(i) * sim.Millisecond
		q.Enqueue(dataPacket(seq, 1000), now)
		seq++
		for q.Len() > 75 {
			q.Dequeue(now)
		}
	}
	if q.MaxP() <= start {
		t.Errorf("max_p did not increase above band: %g -> %g", start, q.MaxP())
	}
	if q.MaxP() > 0.5 {
		t.Errorf("max_p exceeded ceiling: %g", q.MaxP())
	}

	// Now hold the queue near 10 (below the band): max_p must decay.
	high := q.MaxP()
	for q.Len() > 10 {
		q.Dequeue(20 * sim.Second)
	}
	for i := 0; i < 20000; i++ {
		now := 20*sim.Second + sim.Time(i)*sim.Millisecond
		q.Enqueue(dataPacket(seq, 1000), now)
		seq++
		for q.Len() > 10 {
			q.Dequeue(now)
		}
	}
	if q.MaxP() >= high {
		t.Errorf("max_p did not decay below band: %g -> %g", high, q.MaxP())
	}
	if q.MaxP() < 0.01 {
		t.Errorf("max_p fell below floor: %g", q.MaxP())
	}
}

func TestPlainREDDoesNotAdapt(t *testing.T) {
	q := NewRED(DefaultREDConfig(100), rng.New(1), 8e6)
	if q.Adaptive() {
		t.Fatal("plain RED reports adaptive")
	}
	start := q.MaxP()
	var seq int64
	for ; seq < 75; seq++ {
		q.Enqueue(dataPacket(seq, 1000), 0)
	}
	for i := 0; i < 5000; i++ {
		now := sim.Time(i) * sim.Millisecond
		q.Enqueue(dataPacket(seq, 1000), now)
		seq++
		for q.Len() > 75 {
			q.Dequeue(now)
		}
	}
	if q.MaxP() != start {
		t.Errorf("plain RED max_p changed: %g -> %g", start, q.MaxP())
	}
}
