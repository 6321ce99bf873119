package trace

import (
	"testing"

	"pulsedos/internal/netem"
	"pulsedos/internal/sim"
)

func pkt(class netem.Class, size int) *netem.Packet {
	return &netem.Packet{Flow: 1, Class: class, Size: size}
}

func TestRateSeriesBinning(t *testing.T) {
	rs := NewRateSeries(100 * sim.Millisecond)
	rs.OnArrive(pkt(netem.ClassData, 1000), 10*sim.Millisecond)
	rs.OnArrive(pkt(netem.ClassData, 500), 90*sim.Millisecond)
	rs.OnArrive(pkt(netem.ClassAttack, 200), 150*sim.Millisecond)
	rs.OnArrive(pkt(netem.ClassData, 100), 350*sim.Millisecond)
	bytes := rs.Bytes()
	want := []float64{1500, 200, 0, 100}
	if len(bytes) != len(want) {
		t.Fatalf("bins = %v", bytes)
	}
	for i := range want {
		if bytes[i] != want[i] {
			t.Errorf("bin %d = %g, want %g", i, bytes[i], want[i])
		}
	}
	rates := rs.Rates()
	if rates[0] != 1500*8/0.1 {
		t.Errorf("rate[0] = %g", rates[0])
	}
	if rs.BinWidth() != 100*sim.Millisecond {
		t.Errorf("BinWidth = %v", rs.BinWidth())
	}
}

func TestRateSeriesStartTrim(t *testing.T) {
	rs := NewRateSeries(100 * sim.Millisecond)
	rs.SetStart(sim.Second)
	rs.OnArrive(pkt(netem.ClassData, 999), 500*sim.Millisecond) // before start
	rs.OnArrive(pkt(netem.ClassData, 100), 1050*sim.Millisecond)
	bytes := rs.Bytes()
	if len(bytes) != 1 || bytes[0] != 100 {
		t.Errorf("trimmed bins = %v", bytes)
	}
}

func TestRateSeriesCopiesOut(t *testing.T) {
	rs := NewRateSeries(100 * sim.Millisecond)
	rs.OnArrive(pkt(netem.ClassData, 100), 0)
	b := rs.Bytes()
	b[0] = 999
	if rs.Bytes()[0] != 100 {
		t.Error("Bytes aliases internal state")
	}
	// Drop is a no-op but must not panic.
	rs.OnDrop(pkt(netem.ClassData, 1), 0)
}

func TestDropCounter(t *testing.T) {
	dc := NewDropCounter()
	dc.OnDrop(pkt(netem.ClassData, 1000), 0)
	dc.OnDrop(pkt(netem.ClassData, 1000), 0)
	dc.OnDrop(pkt(netem.ClassAttack, 1000), 0)
	dc.OnArrive(pkt(netem.ClassData, 1000), 0) // no-op
	if dc.Total != 3 {
		t.Errorf("total = %d", dc.Total)
	}
	if dc.ByClass[netem.ClassData] != 2 || dc.ByClass[netem.ClassAttack] != 1 {
		t.Errorf("by class = %v", dc.ByClass)
	}
}

func TestFlowAccount(t *testing.T) {
	fa := NewFlowAccount()
	fa.Deliver(1, 1000, 0)
	fa.Deliver(1, 500, sim.Second)
	fa.Deliver(2, 100, sim.Second)
	if fa.Flow(1) != 1500 || fa.Flow(2) != 100 || fa.Flow(3) != 0 {
		t.Errorf("per-flow: %d %d %d", fa.Flow(1), fa.Flow(2), fa.Flow(3))
	}
	if fa.Total() != 1600 {
		t.Errorf("total = %d", fa.Total())
	}
	per := fa.PerFlow()
	per[1] = 0
	if fa.Flow(1) != 1500 {
		t.Error("PerFlow aliases internal map")
	}
}

func TestFlowAccountStartTrim(t *testing.T) {
	fa := NewFlowAccount()
	fa.SetStart(sim.Second)
	fa.Deliver(1, 1000, 500*sim.Millisecond) // warm-up, ignored
	fa.Deliver(1, 200, 2*sim.Second)
	if fa.Flow(1) != 200 {
		t.Errorf("trimmed delivery = %d", fa.Flow(1))
	}
}

func TestJitterMeterSteadyStreamIsCalm(t *testing.T) {
	jm := NewJitterMeter()
	for i := 0; i < 100; i++ {
		jm.OnDepart(pkt(netem.ClassData, 1000), sim.Time(i)*10*sim.Millisecond)
	}
	if j := jm.Flow(1); j != 0 {
		t.Errorf("perfectly paced stream has jitter %g", j)
	}
	if jm.Mean() != 0 {
		t.Errorf("mean jitter = %g", jm.Mean())
	}
}

func TestJitterMeterDetectsVariance(t *testing.T) {
	jm := NewJitterMeter()
	// Alternate 5 ms and 15 ms gaps: |D| = 10 ms every step → J → ~10 ms.
	now := sim.Time(0)
	for i := 0; i < 200; i++ {
		gap := 5 * sim.Millisecond
		if i%2 == 0 {
			gap = 15 * sim.Millisecond
		}
		now += gap
		jm.OnDepart(pkt(netem.ClassData, 1000), now)
	}
	j := jm.Flow(1)
	if j < 0.005 || j > 0.015 {
		t.Errorf("alternating-gap jitter = %g, want ≈ 0.01", j)
	}
}

func TestJitterMeterFiltersAndTrims(t *testing.T) {
	jm := NewJitterMeter()
	jm.SetStart(sim.Second)
	jm.OnDepart(pkt(netem.ClassAttack, 1000), 2*sim.Second)      // wrong class
	jm.OnDepart(pkt(netem.ClassData, 1000), 500*sim.Millisecond) // before start
	jm.OnDepart(pkt(netem.ClassData, 1000), 2*sim.Second)
	jm.OnDepart(pkt(netem.ClassData, 1000), 2100*sim.Millisecond)
	jm.OnDepart(pkt(netem.ClassData, 1000), 2300*sim.Millisecond)
	// Only two gaps counted (100 ms then 200 ms): one deviation sample.
	if jm.samples[1] != 1 {
		t.Errorf("samples = %d, want 1", jm.samples[1])
	}
	// Arrive/Drop are no-ops.
	jm.OnArrive(pkt(netem.ClassData, 1000), 3*sim.Second)
	jm.OnDrop(pkt(netem.ClassData, 1000), 3*sim.Second)
	if jm.samples[1] != 1 {
		t.Error("no-op taps mutated state")
	}
}
