package experiments

import (
	"testing"
	"time"
)

// TestScaleSweepSmall exercises the full scaling pipeline on a small
// population: the attacked wheel run must stay allocation-free per packet in
// the measurement window, the heap-kernel baseline must reproduce the wheel
// run event-for-event and byte-for-byte (the ordering-equivalence contract,
// end to end), and the aggregate degradation must land near the Prop. 2
// prediction.
func TestScaleSweepSmall(t *testing.T) {
	cfg := DefaultScaleSweepConfig()
	cfg.FlowCounts = []int{50}
	cfg.Warmup = 12 * time.Second
	cfg.Measure = 6 * time.Second
	points, err := ScaleSweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("got %d points, want 1", len(points))
	}
	p := points[0]
	t.Logf("%+v", p)
	if p.Events == 0 || p.Packets == 0 || p.EventsPerSec <= 0 {
		t.Errorf("empty performance counters: %+v", p)
	}
	if !p.DeliveredMatch {
		t.Errorf("heap kernel diverged from wheel kernel (delivered %d bytes, %d events)",
			p.AttackedBytes, p.Events)
	}
	if p.AllocsPerPacket > 0.01 {
		t.Errorf("measurement window allocates %.4f objects/packet, want 0", p.AllocsPerPacket)
	}
	if p.MeasuredDegradation <= 0 {
		t.Errorf("attack degraded nothing: %+v", p)
	}
	if diff := p.MeasuredDegradation - p.AnalyticDegradation; diff < -0.25 || diff > 0.25 {
		t.Errorf("measured degradation %.3f too far from Prop. 2 prediction %.3f",
			p.MeasuredDegradation, p.AnalyticDegradation)
	}
	if p.MeanConvergedWindow <= 1 {
		t.Errorf("Eq. 1 mean converged window %.2f, want > 1", p.MeanConvergedWindow)
	}
}

// TestScaleFigure checks the "scale" figure produces the expected curves.
func TestScaleFigure(t *testing.T) {
	scale := QuickScale()
	scale.ScaleFlows = []int{25}
	scale.Warmup = 8 * time.Second
	scale.Measure = 4 * time.Second
	fig, err := ScaleFigure(scale)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "scale" {
		t.Fatalf("figure id %q, want scale", fig.ID)
	}
	if len(fig.Series) != 5 {
		t.Fatalf("got %d series, want 5", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 1 {
			t.Errorf("series %q has %d points, want 1", s.Label, len(s.Points))
		}
	}
	if len(fig.Notes) != 1 {
		t.Errorf("got %d notes, want 1", len(fig.Notes))
	}
}
