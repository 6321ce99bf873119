package attack

import (
	"slices"
	"testing"

	"pulsedos/internal/netem"
	"pulsedos/internal/rng"
	"pulsedos/internal/sim"
)

// pacedLeg is one instrumented replay of a train: the delivery record plus
// per-horizon snapshots of every counter the paced path derives analytically.
type pacedLeg struct {
	arrivals   []sim.Time
	gen        []GeneratorStats
	link       []netem.LinkStats
	kernel     []uint64
	skipped    []uint64   // link + generator elisions at the horizon
	genSkipped []uint64   // generator elisions alone (pacing-engagement witness)
	tapped     []sim.Time // arrival instants a tap on the link saw (legOpts.tapped)
}

// arrivalTap records the instant of every arrival offered to a link.
type arrivalTap struct{ at []sim.Time }

func (a *arrivalTap) OnArrive(_ *netem.Packet, now sim.Time) { a.at = append(a.at, now) }
func (a *arrivalTap) OnDrop(*netem.Packet, sim.Time)         {}

// legOpts selects the off-reference knobs a leg can exercise: the queue
// discipline in front of the transmitter and an optional interfering plain
// Send injected mid-run (both legs of a comparison must get the same one).
type legOpts struct {
	golden      bool
	mkQueue     func() netem.Queue // nil → DropTail(1<<20)
	interfereAt sim.Time           // 0 → no injected packet
	tapped      bool               // attach an arrivalTap to the link
}

// runLeg replays tr into a fresh link/kernel pair under opts, snapshotting
// at every horizon.
func runLeg(t *testing.T, tr Train, linkRate float64, delay sim.Time, horizons []sim.Time, opts legOpts) pacedLeg {
	t.Helper()
	k := sim.New()
	var leg pacedLeg
	capture := netem.NodeFunc(func(*netem.Packet) { leg.arrivals = append(leg.arrivals, k.Now()) })
	mk := opts.mkQueue
	if mk == nil {
		mk = func() netem.Queue { return netem.NewDropTail(1 << 20) }
	}
	link, err := netem.NewLink(k, "atk", linkRate, delay, mk(), capture)
	if err != nil {
		t.Fatal(err)
	}
	if opts.golden {
		link.ForceGoldenPath()
	}
	tap := &arrivalTap{}
	if opts.tapped {
		link.AddTap(tap)
	}
	g, err := NewGenerator(k, link, tr, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	interfered := false
	for _, h := range horizons {
		if !interfered && opts.interfereAt > 0 && h >= opts.interfereAt {
			if err := k.RunUntil(opts.interfereAt); err != nil {
				t.Fatal(err)
			}
			p := link.NewPacket()
			p.Size = 1000
			p.SentAt = k.Now()
			link.Send(p)
			interfered = true
		}
		if err := k.RunUntil(h); err != nil {
			t.Fatal(err)
		}
		leg.gen = append(leg.gen, g.Stats())
		leg.link = append(leg.link, link.Stats())
		leg.kernel = append(leg.kernel, k.Processed())
		leg.skipped = append(leg.skipped, link.SkippedEvents()+g.SkippedEvents())
		leg.genSkipped = append(leg.genSkipped, g.SkippedEvents())
	}
	leg.tapped = tap.at
	return leg
}

// runPacedLeg replays tr into a fresh link/kernel pair, snapshotting at every
// horizon. golden pins the link to the two-event reference schedule, which
// also keeps the generator on the per-packet emission chain — the reference
// the paced path must be indistinguishable from.
func runPacedLeg(t *testing.T, golden bool, tr Train, linkRate float64, delay sim.Time, horizons []sim.Time) pacedLeg {
	t.Helper()
	return runLeg(t, tr, linkRate, delay, horizons, legOpts{golden: golden})
}

// comparePacedLegs holds the equivalence contract: identical deliveries,
// identical generator and link counters at every horizon — including
// horizons inside a committed batch, where the fused leg's counters are
// grid-derived — and the golden leg's raw kernel schedule equal to the
// fused leg's raw schedule plus its recorded elisions.
func comparePacedLegs(t *testing.T, name string, golden, fused pacedLeg, horizons []sim.Time) {
	t.Helper()
	if len(golden.arrivals) != len(fused.arrivals) {
		t.Fatalf("%s: %d golden vs %d fused deliveries", name, len(golden.arrivals), len(fused.arrivals))
	}
	for i := range golden.arrivals {
		if golden.arrivals[i] != fused.arrivals[i] {
			t.Fatalf("%s: delivery %d at %v golden vs %v fused", name, i, golden.arrivals[i], fused.arrivals[i])
		}
	}
	for i, h := range horizons {
		if golden.gen[i] != fused.gen[i] {
			t.Errorf("%s @%v: generator stats %+v golden vs %+v fused", name, h, golden.gen[i], fused.gen[i])
		}
		if golden.link[i] != fused.link[i] {
			t.Errorf("%s @%v: link stats %+v golden vs %+v fused", name, h, golden.link[i], fused.link[i])
		}
		if golden.skipped[i] != 0 {
			t.Errorf("%s @%v: golden leg reports %d elisions, want 0", name, h, golden.skipped[i])
		}
		if golden.kernel[i] != fused.kernel[i]+fused.skipped[i] {
			t.Errorf("%s @%v: normalized events diverged: golden %d, fused %d + %d skipped",
				name, h, golden.kernel[i], fused.kernel[i], fused.skipped[i])
		}
	}
}

// horizonsEvery builds sampling horizons at the given stride — deliberately
// coprime to the emission grids so snapshots land mid-batch, between pulses,
// and inside propagation windows.
func horizonsEvery(start, stride, end sim.Time) []sim.Time {
	var hs []sim.Time
	for h := start; h <= end; h += stride {
		hs = append(hs, h)
	}
	return hs
}

// TestPacedEmissionEquivalence drives the batched paced emission path
// against the per-packet reference over multi-pulse trains and asserts
// byte-identical deliveries and horizon-exact counters. The main case has
// 200 emissions per pulse (gap 1 ms, serialization 80 µs), so each pulse
// spans three full batches plus a partial one, and the closing event lands
// off the batch stride.
func TestPacedEmissionEquivalence(t *testing.T) {
	cases := []struct {
		name     string
		tr       Train
		linkRate float64
		delay    sim.Time
		horizons []sim.Time
		paced    bool // pacing expected to engage (elisions > 0 by the end)
	}{
		{
			// 3 pulses of 200 packets: gap 1 ms >> tx 80 µs → paced.
			name:     "multi-batch-pulses",
			tr:       Uniform(200*sim.Millisecond, 8e6, 300*sim.Millisecond, 3),
			linkRate: 1e8,
			delay:    2 * sim.Millisecond,
			horizons: horizonsEvery(0, 7*sim.Millisecond+13*sim.Microsecond, 1600*sim.Millisecond),
			paced:    true,
		},
		{
			// Serialization exactly equals the gap: the reference schedule
			// enqueues behind the previous packet, so pacing must not engage.
			name:     "tx-equals-gap-tie",
			tr:       Uniform(20*sim.Millisecond, 8e6, 30*sim.Millisecond, 2),
			linkRate: 8e6,
			delay:    sim.Millisecond,
			horizons: horizonsEvery(0, 3*sim.Millisecond+7*sim.Microsecond, 120*sim.Millisecond),
			paced:    false,
		},
		{
			// Continuous flood (one pulse, no spacing) across many batches.
			name:     "flood",
			tr:       FloodTrain(8e6, 500*sim.Millisecond),
			linkRate: 1e9,
			delay:    0,
			horizons: horizonsEvery(0, 11*sim.Millisecond+1, 600*sim.Millisecond),
			paced:    true,
		},
		{
			// Sub-nanosecond emission gap clamps to 1 ns; serialization
			// rounds to zero — the grid math must mirror the clamp exactly.
			name:     "gap-clamp",
			tr:       Uniform(500, 1e13, 100, 2), // 500 ns pulses, 1 ns grid
			linkRate: 1e15,
			delay:    0,
			horizons: horizonsEvery(sim.Millisecond-50, 97, sim.Millisecond+3*sim.Microsecond),
			paced:    true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			golden := runPacedLeg(t, true, tc.tr, tc.linkRate, tc.delay, tc.horizons)
			fused := runPacedLeg(t, false, tc.tr, tc.linkRate, tc.delay, tc.horizons)
			comparePacedLegs(t, tc.name, golden, fused, tc.horizons)
			last := fused.skipped[len(fused.skipped)-1]
			if tc.paced && last == 0 {
				t.Errorf("%s: no events elided — pacing did not engage", tc.name)
			}
			if !tc.paced {
				// The link still fuses (one event per hop); only the
				// source-side elisions must stay zero on the tie.
				k := sim.New()
				link, err := netem.NewLink(k, "atk", tc.linkRate, tc.delay, netem.NewDropTail(1<<20), &netem.Sink{})
				if err != nil {
					t.Fatal(err)
				}
				g, err := NewGenerator(k, link, tc.tr, 1000)
				if err != nil {
					t.Fatal(err)
				}
				if err := g.Start(sim.Millisecond); err != nil {
					t.Fatal(err)
				}
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
				if got := g.SkippedEvents(); got != 0 {
					t.Errorf("%s: generator elided %d events on a tx==gap tie", tc.name, got)
				}
			}
		})
	}
}

// TestCanPaceDemotion pins the two demotion edges of Link.CanPace: a queue
// discipline without the paced-admission guarantee (RED) keeps the source on
// the per-packet chain for the whole run, and interleaved plain traffic
// mid-pulse demotes an already-engaged paced source for the rest of the
// pulse — in both cases with deliveries and counters byte-identical to an
// identically-stimulated golden reference.
func TestCanPaceDemotion(t *testing.T) {
	tr := Uniform(200*sim.Millisecond, 8e6, 300*sim.Millisecond, 3)
	const linkRate = 1e8
	delay := 2 * sim.Millisecond
	horizons := horizonsEvery(0, 7*sim.Millisecond+13*sim.Microsecond, 1600*sim.Millisecond)

	t.Run("red-queue", func(t *testing.T) {
		// RED's admission decision depends on the EWMA queue average, so it
		// is not the plain FIFO CanPace requires, and CanPace must stay
		// false — pacing never engages even though gap >> serialization
		// time. The link still fuses its own events; only source-side
		// elisions vanish.
		mk := func() netem.Queue { return netem.NewRED(netem.DefaultREDConfig(1<<20), rng.New(7), linkRate) }
		golden := runLeg(t, tr, linkRate, delay, horizons, legOpts{golden: true, mkQueue: mk})
		fused := runLeg(t, tr, linkRate, delay, horizons, legOpts{mkQueue: mk})
		comparePacedLegs(t, "red-queue", golden, fused, horizons)
		if last := fused.genSkipped[len(fused.genSkipped)-1]; last != 0 {
			t.Errorf("red-queue: generator elided %d events — pacing engaged over a RED queue", last)
		}
	})

	t.Run("mid-pulse-interferer", func(t *testing.T) {
		// The first batch event at pulse start T0 commits emission starts
		// through T0+63·gap and the next batch fires at T0+64·gap. A plain
		// Send at T0+63·gap+960µs is legal (all committed starts are in the
		// past, the transmitter idle mid-gap) and its 80 µs serialization
		// spans the batch instant, so the re-check demotes the rest of the
		// pulse to the per-packet chain. The golden leg gets the identical
		// interferer; equivalence must survive the demotion.
		const gap = sim.Millisecond // 1000 B at 8 Mb/s pulse rate
		interfereAt := sim.Millisecond /* T0 */ + 63*gap + 960*sim.Microsecond
		golden := runLeg(t, tr, linkRate, delay, horizons, legOpts{golden: true, interfereAt: interfereAt})
		fused := runLeg(t, tr, linkRate, delay, horizons, legOpts{interfereAt: interfereAt})
		comparePacedLegs(t, "mid-pulse-interferer", golden, fused, horizons)

		// Pacing engaged before the interference…
		engaged := false
		for i, h := range horizons {
			if h < interfereAt && fused.genSkipped[i] > 0 {
				engaged = true
				break
			}
		}
		if !engaged {
			t.Error("mid-pulse-interferer: no source elisions before the interference — pacing never engaged")
		}
		// …and demotion cost real elisions versus an undisturbed run.
		undisturbed := runLeg(t, tr, linkRate, delay, horizons, legOpts{})
		full := undisturbed.genSkipped[len(undisturbed.genSkipped)-1]
		got := fused.genSkipped[len(fused.genSkipped)-1]
		if got >= full {
			t.Errorf("mid-pulse-interferer: %d events elided, want fewer than the undisturbed run's %d — the interferer did not demote the pulse", got, full)
		}
	})
}

// TestTappedIngressStaysPerPacket: a tap on the generator's link refuses
// paced commitments (a paced packet has no Send instant to report), so the
// source stays on the per-packet chain while the link itself still fuses.
// The tap sees every arrival at its grid instant, exactly as on the golden
// leg.
func TestTappedIngressStaysPerPacket(t *testing.T) {
	tr := Uniform(200*sim.Millisecond, 8e6, 300*sim.Millisecond, 3)
	horizons := horizonsEvery(0, 7*sim.Millisecond+13*sim.Microsecond, 1600*sim.Millisecond)
	golden := runLeg(t, tr, 1e8, 2*sim.Millisecond, horizons, legOpts{golden: true, tapped: true})
	fused := runLeg(t, tr, 1e8, 2*sim.Millisecond, horizons, legOpts{tapped: true})
	comparePacedLegs(t, "tapped", golden, fused, horizons)
	last := len(horizons) - 1
	if got := fused.genSkipped[last]; got != 0 {
		t.Errorf("generator elided %d events — pacing engaged on a tapped link", got)
	}
	if fused.skipped[last] == 0 {
		t.Error("the tapped link elided no events — it left the fused path")
	}
	// Pulses start at 1 ms and every 500 ms after (200 ms on, 300 ms off);
	// 8 Mb/s of 1000 B packets is one emission per millisecond.
	var grid []sim.Time
	for pulse := 0; pulse < 3; pulse++ {
		for j := 0; j < 200; j++ {
			grid = append(grid, sim.Millisecond+sim.Time(pulse)*500*sim.Millisecond+sim.Time(j)*sim.Millisecond)
		}
	}
	if !slices.Equal(golden.tapped, grid) {
		t.Fatalf("golden tap saw %d arrivals off the emission grid", len(golden.tapped))
	}
	if !slices.Equal(fused.tapped, grid) {
		t.Errorf("fused tap saw %d arrivals, not the golden leg's %d grid instants", len(fused.tapped), len(grid))
	}
}

// TestPacedStopSemantics documents the teardown contract: Stop freezes the
// generator's reported emissions at the stop instant identically in both
// modes, and a paced generator's already-committed batch remainder (at most
// pacedBatch-1 packets) still arrives, extending — never rewriting — the
// reference delivery sequence.
func TestPacedStopSemantics(t *testing.T) {
	tr := Uniform(200*sim.Millisecond, 8e6, 300*sim.Millisecond, 3)
	stopAt := 550 * sim.Millisecond // mid second pulse
	run := func(golden bool) (pre GeneratorStats, arrivals []sim.Time) {
		k := sim.New()
		capture := netem.NodeFunc(func(*netem.Packet) { arrivals = append(arrivals, k.Now()) })
		link, err := netem.NewLink(k, "atk", 1e8, 2*sim.Millisecond, netem.NewDropTail(1<<20), capture)
		if err != nil {
			t.Fatal(err)
		}
		if golden {
			link.ForceGoldenPath()
		}
		g, err := NewGenerator(k, link, tr, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Start(sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := k.RunUntil(stopAt); err != nil {
			t.Fatal(err)
		}
		g.Stop()
		pre = g.Stats()
		if err := k.Run(); err != nil { // drain in-flight + committed packets
			t.Fatal(err)
		}
		if got := g.Stats(); got != pre {
			t.Errorf("golden=%v: stats moved after Stop: %+v -> %+v", golden, pre, got)
		}
		return pre, arrivals
	}
	gStats, gArr := run(true)
	fStats, fArr := run(false)
	if gStats != fStats {
		t.Errorf("stats at stop: %+v golden vs %+v fused", gStats, fStats)
	}
	if len(fArr) < len(gArr) || len(fArr)-len(gArr) >= pacedBatch {
		t.Fatalf("deliveries after stop: %d golden vs %d fused (committed remainder must be < %d)",
			len(gArr), len(fArr), pacedBatch)
	}
	for i := range gArr {
		if gArr[i] != fArr[i] {
			t.Fatalf("delivery %d at %v golden vs %v fused", i, gArr[i], fArr[i])
		}
	}
}
