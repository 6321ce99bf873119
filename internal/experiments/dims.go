package experiments

import "time"

// The paper's fixed experiment dimensions, centralized: every dimension that
// is not part of Scale has exactly one definition here, read by the figure
// plans in internal/figures (and so by the studies that share their
// documents) and by the tests and benches that probe the same points.

// GainSetting pairs an attack rate with a pulse width.
type GainSetting struct {
	Rate   float64 // bps
	Extent time.Duration
}

// Fig. 1 — one victim, fixed 100 ms RTT, fixed-period pulses that overflow
// the bottleneck buffer (100 ms at 100 Mbps ≈ 1250 packets vs a 400-packet
// queue).
const (
	Fig1Rate   = 100e6
	Fig1Extent = 100 * time.Millisecond
	Fig1Period = 500 * time.Millisecond
	Fig1RTT    = 100 * time.Millisecond
)

// Fig. 2 — the periodic incoming-traffic snapshot.
const (
	Fig2Rate    = 40e6
	Fig2Extent  = 100 * time.Millisecond
	Fig2Period  = 2 * time.Second
	Fig2RateBin = 50 * time.Millisecond
)

// SyncSetting describes one Fig. 3 synchronization panel.
type SyncSetting struct {
	Flows  int
	Extent time.Duration
	Rate   float64       // bps
	Space  time.Duration // inter-pulse gap; period = Extent + Space
}

// Fig3aSetting is the ns-2 dumbbell panel: 24 flows, period 2 s.
func Fig3aSetting() SyncSetting {
	return SyncSetting{Flows: 24, Extent: 50 * time.Millisecond, Rate: 100e6, Space: 1950 * time.Millisecond}
}

// Fig3bSetting is the test-bed panel: 15 flows, period 2.5 s.
func Fig3bSetting() SyncSetting {
	return SyncSetting{Flows: 15, Extent: 100 * time.Millisecond, Rate: 50e6, Space: 2400 * time.Millisecond}
}

// SyncRateBin is the traffic-series bin width behind the Fig. 3 PAA, and
// SyncFrameStep the paper's PAA frame width (one frame per 250 ms).
const (
	SyncRateBin   = 50 * time.Millisecond
	SyncFrameStep = 250 * time.Millisecond
)

// GainFigureRates returns the attack rates of Figs. 6–9, in figure order.
func GainFigureRates() []float64 {
	return []float64{25e6, 30e6, 35e6, 40e6}
}

// GainFigureExtents returns the pulse widths every gain figure sweeps.
func GainFigureExtents() []time.Duration {
	return []time.Duration{50 * time.Millisecond, 75 * time.Millisecond, 100 * time.Millisecond}
}

// ShrewFigureSettings returns Fig. 10's (R_attack, T_extent) pairs.
func ShrewFigureSettings() []GainSetting {
	return []GainSetting{
		{30e6, 100 * time.Millisecond},
		{40e6, 75 * time.Millisecond},
		{50e6, 50 * time.Millisecond},
	}
}

// ShrewFigureMinRTO is the ns-2 stack's RTO floor Fig. 10 resonates against;
// ShrewFigureMaxHarmonic bounds the minRTO/n harmonics it marks.
const (
	ShrewFigureMinRTO      = time.Second
	ShrewFigureMaxHarmonic = 3
)

// Fig. 12 — the test-bed gain curves.
const (
	TestbedFigureFlows  = 10
	TestbedFigureExtent = 150 * time.Millisecond
)

// TestbedFigureRates returns Fig. 12's attack rates.
func TestbedFigureRates() []float64 {
	return []float64{15e6, 20e6, 30e6}
}

// The §5 ablations (AQM discipline, delayed-ACK ratio, AIMD parameters,
// attack packet size) all probe the same mid-grid attack point.
const (
	AblationRate   = 35e6
	AblationExtent = 75 * time.Millisecond
)

// The mice study's attack train (ext-mice).
const (
	MiceAttackRate   = 40e6
	MiceAttackExtent = 75 * time.Millisecond
	MiceAttackPeriod = 400 * time.Millisecond
)

// The "scale" figure — the paper's per-flow regime at growing populations n:
// aimd pulses at 2x the n Mbps trunk for 75 ms, at γ = 0.5.
const (
	ScaleRateFactor = 2
	ScaleExtent     = 75 * time.Millisecond
	ScaleGamma      = 0.5
)
