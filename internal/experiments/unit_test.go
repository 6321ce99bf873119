package experiments

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"pulsedos/internal/attack"
	"pulsedos/internal/sim"
)

func TestPeriodForGammaInverse(t *testing.T) {
	property := func(gammaRaw, rateRaw uint16) bool {
		gamma := 0.05 + 0.9*float64(gammaRaw)/65535
		rate := 15e6 + float64(rateRaw)*1e3
		extent := 75 * time.Millisecond
		period := PeriodForGamma(gamma, rate, extent, 15e6)
		back := rate * extent.Seconds() / (15e6 * period.Seconds())
		return math.Abs(back-gamma) < 1e-6
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(73))}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
	if PeriodForGamma(0, 1e6, time.Second, 1e6) != 0 {
		t.Error("gamma=0 should yield 0")
	}
	if PeriodForGamma(0.5, 1e6, time.Second, 0) != 0 {
		t.Error("bottleneck=0 should yield 0")
	}
}

func TestPulsesFor(t *testing.T) {
	if got := PulsesFor(10*time.Second, time.Second); got != 12 {
		t.Errorf("PulsesFor = %d", got)
	}
	if got := PulsesFor(time.Second, 0); got != 1 {
		t.Errorf("zero period = %d", got)
	}
	if got := PulsesFor(time.Millisecond, time.Second); got != 2 {
		t.Errorf("short measure = %d", got)
	}
}

func TestClassifyGainTaxonomy(t *testing.T) {
	mk := func(analytic, measured float64) GainPoint {
		return GainPoint{Gamma: 0.5, AnalyticGain: analytic, MeasuredGain: measured}
	}
	tests := []struct {
		name   string
		points []GainPoint
		want   GainClass
	}{
		{"agreement", []GainPoint{mk(0.3, 0.31), mk(0.4, 0.38)}, NormalGain},
		{"over", []GainPoint{mk(0.2, 0.5), mk(0.3, 0.6)}, OverGain},
		{"under", []GainPoint{mk(0.5, 0.2), mk(0.6, 0.3)}, UnderGain},
		{"empty", nil, NormalGain},
		{"ignores dead analytics", []GainPoint{mk(0.001, 0.9)}, NormalGain},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ClassifyGain(tt.points, 0.05); got != tt.want {
				t.Errorf("class = %v, want %v", got, tt.want)
			}
		})
	}
	for _, c := range []GainClass{NormalGain, UnderGain, OverGain, GainClass(9)} {
		if c.String() == "" {
			t.Error("empty class string")
		}
	}
}

func TestPeakPoint(t *testing.T) {
	points := []GainPoint{
		{Gamma: 0.2, MeasuredGain: 0.1},
		{Gamma: 0.5, MeasuredGain: 0.4},
		{Gamma: 0.8, MeasuredGain: 0.2},
	}
	peak, err := PeakPoint(points)
	if err != nil || peak.Gamma != 0.5 {
		t.Errorf("peak = %+v, %v", peak, err)
	}
	if _, err := PeakPoint(nil); err == nil {
		t.Error("empty points accepted")
	}
}

func TestShrewHarmonic(t *testing.T) {
	tests := []struct {
		period  float64
		wantN   int
		wantHit bool
	}{
		{1.0, 1, true},
		{0.5, 2, true},
		{1.0 / 3, 3, true},
		{0.52, 2, true}, // within 8%
		{0.7, 0, false},
		{0.25, 0, false}, // harmonic 4 > maxHarmonic 3
	}
	for _, tt := range tests {
		n, ok := ShrewHarmonic(tt.period, time.Second, 3, 0.08)
		if ok != tt.wantHit || n != tt.wantN {
			t.Errorf("ShrewHarmonic(%g) = (%d, %v), want (%d, %v)",
				tt.period, n, ok, tt.wantN, tt.wantHit)
		}
	}
	if _, ok := ShrewHarmonic(0, time.Second, 3, 0.08); ok {
		t.Error("zero period matched")
	}
}

func TestShrewGammas(t *testing.T) {
	// γ_n = R·E·n/(B·minRTO).
	gs := ShrewGammas(50e6, 50*time.Millisecond, 15e6, time.Second, 3)
	want := []float64{50e6 * 0.05 / 15e6, 2 * 50e6 * 0.05 / 15e6, 3 * 50e6 * 0.05 / 15e6}
	if len(gs) != 3 {
		t.Fatalf("gammas = %v", gs)
	}
	for i := range want {
		if math.Abs(gs[i]-want[i]) > 1e-12 {
			t.Errorf("gamma[%d] = %g, want %g", i, gs[i], want[i])
		}
	}
	// Out-of-range harmonics are filtered.
	gs = ShrewGammas(200e6, 100*time.Millisecond, 15e6, time.Second, 3)
	for _, g := range gs {
		if g <= 0 || g >= 1 {
			t.Errorf("out-of-range gamma %g kept", g)
		}
	}
}

func TestRiskCurves(t *testing.T) {
	series := RiskCurves([]float64{0.5, 1, 2}, 10)
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 11 {
			t.Errorf("%s: %d points", s.Label, len(s.Points))
		}
		if s.Points[0].Y != 1 || s.Points[len(s.Points)-1].Y != 0 {
			t.Errorf("%s: endpoints %g, %g", s.Label, s.Points[0].Y, s.Points[len(s.Points)-1].Y)
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y > s.Points[i-1].Y {
				t.Errorf("%s not decreasing", s.Label)
			}
		}
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var sb strings.Builder
	series := []Series{{Label: "a", Points: []Point{{X: 1, Y: 2}, {X: 3, Y: 4}}}}
	if err := WriteSeriesCSV(&sb, series); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "series,x,y\na,1,2\na,3,4\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestGainSeriesSplit(t *testing.T) {
	points := []GainPoint{
		{Gamma: 0.3, AnalyticGain: 0.1, MeasuredGain: 0.2},
		{Gamma: 0.6, AnalyticGain: 0.3, MeasuredGain: 0.25},
	}
	analytic, measured := GainSeries("x", points)
	if analytic.Label != "x analytic" || measured.Label != "x measured" {
		t.Errorf("labels: %q, %q", analytic.Label, measured.Label)
	}
	if analytic.Points[1].Y != 0.3 || measured.Points[1].Y != 0.25 {
		t.Error("values misrouted")
	}
}

func TestBuildDumbbellValidation(t *testing.T) {
	if _, err := BuildDumbbell(DumbbellConfig{}); err == nil {
		t.Error("zero config accepted")
	}
	cfg := DefaultDumbbellConfig(0)
	if _, err := BuildDumbbell(cfg); err == nil {
		t.Error("zero flows accepted")
	}
	cfg = DefaultDumbbellConfig(5)
	cfg.RTTMin = time.Millisecond // below 2×bottleneck OWD
	if _, err := BuildDumbbell(cfg); err == nil {
		t.Error("infeasible RTT accepted")
	}
	cfg = DefaultDumbbellConfig(5)
	cfg.TCP.MSS = 0
	if _, err := BuildDumbbell(cfg); err == nil {
		t.Error("bad TCP config accepted")
	}
}

func TestBuildTestbedValidation(t *testing.T) {
	if _, err := BuildTestbed(TestbedConfig{}); err == nil {
		t.Error("zero config accepted")
	}
	cfg := DefaultTestbedConfig(3)
	cfg.TCP.DupThresh = 0
	if _, err := BuildTestbed(cfg); err == nil {
		t.Error("bad TCP config accepted")
	}
}

func TestDumbbellTopologyInvariants(t *testing.T) {
	d, err := BuildDumbbell(DefaultDumbbellConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Senders) != 8 || len(d.Recvs) != 8 || len(d.RTTs) != 8 {
		t.Fatalf("population: %d/%d/%d", len(d.Senders), len(d.Recvs), len(d.RTTs))
	}
	// RTT spread endpoints match the config.
	if math.Abs(d.RTTs[0]-0.02) > 1e-9 || math.Abs(d.RTTs[7]-0.46) > 1e-9 {
		t.Errorf("RTT spread = [%g, %g]", d.RTTs[0], d.RTTs[7])
	}
	params := d.ModelParams()
	if params.Bottleneck != 15e6 || params.PacketSize != 1040 {
		t.Errorf("params: %+v", params)
	}
	if err := params.Validate(); err != nil {
		t.Errorf("model params invalid: %v", err)
	}
	// Mutating the returned RTTs must not affect the topology.
	params.RTTs[0] = 99
	if d.RTTs[0] == 99 {
		t.Error("ModelParams aliases RTTs")
	}
}

func TestRunLeavesNoUnroutedPackets(t *testing.T) {
	d, err := BuildDumbbell(DefaultDumbbellConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	train := quickTrain(t, 0.4, 35e6, 75*time.Millisecond, 15e6, 5*time.Second)
	if _, err := Run(d, RunOptions{Warmup: 2 * time.Second, Measure: 5 * time.Second, Train: &train}); err != nil {
		t.Fatal(err)
	}
	if d.Unrouted() != 0 {
		t.Errorf("unrouted packets: %d", d.Unrouted())
	}
	// All attack packets that crossed the bottleneck terminated in the sink.
	if d.Sink.Packets == 0 {
		t.Error("no attack packets reached the sink")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, RunOptions{Measure: time.Second}); err == nil {
		t.Error("nil environment accepted")
	}
	d, err := BuildDumbbell(DefaultDumbbellConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(d, RunOptions{}); err == nil {
		t.Error("zero measure accepted")
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() uint64 {
		d, err := BuildDumbbell(DefaultDumbbellConfig(6))
		if err != nil {
			t.Fatal(err)
		}
		train := quickTrain(t, 0.5, 35e6, 75*time.Millisecond, 15e6, 4*time.Second)
		res, err := Run(d, RunOptions{Warmup: 2 * time.Second, Measure: 4 * time.Second, Train: &train})
		if err != nil {
			t.Fatal(err)
		}
		return res.Delivered
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed diverged: %d vs %d", a, b)
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	run := func(seed uint64) uint64 {
		cfg := DefaultDumbbellConfig(6)
		cfg.Seed = seed
		d, err := BuildDumbbell(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(d, RunOptions{Warmup: 2 * time.Second, Measure: 4 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return res.Delivered
	}
	if a, b := run(1), run(2); a == b {
		t.Error("different seeds produced identical byte counts (suspicious)")
	}
}

// quickTrain builds a uniform train achieving the target γ.
func quickTrain(t *testing.T, gamma, rate float64, extent time.Duration, bottleneck float64, measure time.Duration) attack.Train {
	t.Helper()
	period := PeriodForGamma(gamma, rate, extent, bottleneck)
	train, err := attack.AIMDTrain(sim.FromDuration(extent), rate, sim.FromDuration(period),
		PulsesFor(measure, period))
	if err != nil {
		t.Fatal(err)
	}
	return train
}
