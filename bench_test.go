// Benchmarks regenerating every figure of the paper's evaluation (§4), one
// bench per table/figure, plus ablations for the design choices DESIGN.md
// calls out and micro-benches for the hot substrates. Figure benches run a
// reduced-scale scenario per iteration and report the figure's headline
// quantity via b.ReportMetric, so `go test -bench=.` doubles as a regression
// harness for the reproduction's shape claims.
package pulsedos

import (
	"context"
	"testing"
	"time"

	"pulsedos/internal/analysis"
	"pulsedos/internal/attack"
	"pulsedos/internal/detect"
	"pulsedos/internal/experiments"
	"pulsedos/internal/figures"
	"pulsedos/internal/model"
	"pulsedos/internal/netem"
	"pulsedos/internal/rng"
	"pulsedos/internal/sim"
)

// benchScale shrinks every dimension so a figure regenerates in roughly a
// second per iteration.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Warmup:       5 * time.Second,
		Measure:      8 * time.Second,
		SyncDuration: 20 * time.Second,
		Gammas:       []float64{0.2, 0.4, 0.6, 0.8},
		FlowCounts:   []int{15},
		Seed:         1,
	}
}

// benchFigure regenerates one figure through the scenario-native pipeline,
// uncached, at bench scale.
func benchFigure(b *testing.B, id string) *experiments.FigureResult {
	b.Helper()
	fig, err := figures.Run(context.Background(), id, benchScale(), figures.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return fig
}

// benchPeak runs one reduced gain sweep through the facade and returns its
// peak measured gain.
func benchPeak(b *testing.B, top Topology, rate float64, extent time.Duration) float64 {
	b.Helper()
	scale := benchScale()
	points, err := GainSweep(SweepConfig{
		Topology:   top,
		Seed:       scale.Seed,
		AttackRate: rate,
		Extent:     extent,
		Kappa:      1,
		Gammas:     scale.Gammas,
		Warmup:     scale.Warmup,
		Measure:    scale.Measure,
	})
	if err != nil {
		b.Fatal(err)
	}
	pt, err := experiments.PeakPoint(points)
	if err != nil {
		b.Fatal(err)
	}
	return pt.MeasuredGain
}

// benchSweep reports the peak measured gain of one reduced gain sweep.
func benchSweep(b *testing.B, top Topology, rate float64, extent time.Duration) {
	var peak float64
	for i := 0; i < b.N; i++ {
		peak = benchPeak(b, top, rate, extent)
	}
	b.ReportMetric(peak, "peak_gain")
}

// dumbbell15 is the 15-flow Fig. 5 dumbbell the gain benches attack.
var dumbbell15 = Topology{Kind: "dumbbell", Flows: 15}

// BenchmarkFig1CwndTrace regenerates the Fig. 1 congestion-window sawtooth.
func BenchmarkFig1CwndTrace(b *testing.B) {
	var samples int
	for i := 0; i < b.N; i++ {
		samples = len(benchFigure(b, "fig1").Series[0].Points)
	}
	b.ReportMetric(float64(samples), "cwnd_samples")
}

// BenchmarkFig2TrafficPattern regenerates the periodic-traffic figure.
func BenchmarkFig2TrafficPattern(b *testing.B) {
	var bins int
	for i := 0; i < b.N; i++ {
		bins = len(benchFigure(b, "fig2").Series[0].Points)
	}
	b.ReportMetric(float64(bins), "rate_bins")
}

// BenchmarkFig3aSyncNS2 regenerates the ns-2 synchronization snapshot and
// reports the recovered oscillation period (ground truth: 2 s).
func BenchmarkFig3aSyncNS2(b *testing.B) {
	scale := benchScale()
	var period float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultDumbbellConfig(24)
		env, err := BuildDumbbell(cfg)
		if err != nil {
			b.Fatal(err)
		}
		train := attack.Uniform(50*sim.Millisecond, 100e6, 1950*sim.Millisecond,
			experiments.PulsesFor(scale.SyncDuration, 2*time.Second))
		sync, err := experiments.SyncSnapshot(env, train, scale.Warmup, scale.SyncDuration,
			50*time.Millisecond, int(scale.SyncDuration/(250*time.Millisecond)))
		if err != nil {
			b.Fatal(err)
		}
		period = sync.PeakPeriodSec
	}
	b.ReportMetric(period, "period_s")
}

// BenchmarkFig3bSyncTestbed regenerates the test-bed snapshot (truth: 2.5 s).
func BenchmarkFig3bSyncTestbed(b *testing.B) {
	scale := benchScale()
	var period float64
	for i := 0; i < b.N; i++ {
		env, err := BuildTestbed(DefaultTestbedConfig(15))
		if err != nil {
			b.Fatal(err)
		}
		train := attack.Uniform(100*sim.Millisecond, 50e6, 2400*sim.Millisecond,
			experiments.PulsesFor(scale.SyncDuration, 2500*time.Millisecond))
		sync, err := experiments.SyncSnapshot(env, train, scale.Warmup, scale.SyncDuration,
			50*time.Millisecond, int(scale.SyncDuration/(250*time.Millisecond)))
		if err != nil {
			b.Fatal(err)
		}
		period = sync.PeakPeriodSec
	}
	b.ReportMetric(period, "period_s")
}

// BenchmarkFig4RiskCurves regenerates the analytic risk-preference family.
func BenchmarkFig4RiskCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchFigure(b, "fig4")
	}
}

// BenchmarkFig6Gain25M .. BenchmarkFig9Gain40M regenerate the dumbbell gain
// curves at the paper's four pulse rates (75 ms pulses, 15 flows at bench
// scale).
func BenchmarkFig6Gain25M(b *testing.B) { benchSweep(b, dumbbell15, 25e6, 75*time.Millisecond) }

func BenchmarkFig7Gain30M(b *testing.B) { benchSweep(b, dumbbell15, 30e6, 75*time.Millisecond) }

func BenchmarkFig8Gain35M(b *testing.B) { benchSweep(b, dumbbell15, 35e6, 75*time.Millisecond) }

func BenchmarkFig9Gain40M(b *testing.B) { benchSweep(b, dumbbell15, 40e6, 75*time.Millisecond) }

// BenchmarkFig10Shrew regenerates the shrew-resonance comparison and reports
// the resonant-vs-analytic gain excess at T_AIMD = minRTO.
func BenchmarkFig10Shrew(b *testing.B) {
	scale := benchScale()
	var excess float64
	for i := 0; i < b.N; i++ {
		points, err := ShrewStudy(ShrewStudyConfig{
			Sweep: SweepConfig{
				Topology:   dumbbell15,
				AttackRate: 50e6,
				Extent:     50 * time.Millisecond,
				Kappa:      1,
				Gammas:     experiments.ShrewGammas(50e6, 50*time.Millisecond, 15e6, time.Second, 2),
				Warmup:     scale.Warmup,
				Measure:    scale.Measure,
			},
			MinRTO:      time.Second,
			MaxHarmonic: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Shrew && p.Harmonic == 1 {
				excess = p.MeasuredGain - p.AnalyticGain
			}
		}
	}
	b.ReportMetric(excess, "shrew_excess_gain")
}

// BenchmarkFig12TestbedGain regenerates the test-bed curve at the paper's
// normal-gain setting (20 Mbps, 150 ms pulses, 10 flows).
func BenchmarkFig12TestbedGain(b *testing.B) {
	benchSweep(b, Topology{Kind: "testbed", Flows: 10}, 20e6, 150*time.Millisecond)
}

// BenchmarkOptimalGamma measures the Proposition 3 closed form.
func BenchmarkOptimalGamma(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		g, err := OptimalGamma(0.04+float64(i%10)*0.01, 1+float64(i%5))
		if err != nil {
			b.Fatal(err)
		}
		sink = g
	}
	_ = sink
}

// BenchmarkGainClassification measures the §4.1.1 taxonomy over a synthetic
// sweep.
func BenchmarkGainClassification(b *testing.B) {
	points := make([]experiments.GainPoint, 100)
	for i := range points {
		points[i] = experiments.GainPoint{
			Gamma:        float64(i+1) / 101,
			AnalyticGain: 0.3,
			MeasuredGain: 0.3 + 0.1*float64(i%3-1),
		}
	}
	for i := 0; i < b.N; i++ {
		experiments.ClassifyGain(points, 0.05)
	}
}

// BenchmarkAblationREDvsDropTail quantifies the §5 observation: PDoS gains
// more against RED than against drop-tail.
func BenchmarkAblationREDvsDropTail(b *testing.B) {
	var redPeak, dtPeak float64
	for i := 0; i < b.N; i++ {
		redPeak = benchPeak(b, dumbbell15, 35e6, 75*time.Millisecond)
		dtPeak = benchPeak(b, Topology{Kind: "dumbbell", Flows: 15, DropTail: true}, 35e6, 75*time.Millisecond)
	}
	b.ReportMetric(redPeak, "red_peak_gain")
	b.ReportMetric(dtPeak, "droptail_peak_gain")
}

// BenchmarkAblationDelayedACK compares d = 1 vs d = 2 victims.
func BenchmarkAblationDelayedACK(b *testing.B) {
	var d2Peak float64
	for i := 0; i < b.N; i++ {
		d2Peak = benchPeak(b, Topology{Kind: "dumbbell", Flows: 15, AckEvery: 2}, 35e6, 75*time.Millisecond)
	}
	b.ReportMetric(d2Peak, "d2_peak_gain")
}

// BenchmarkAblationAIMD compares gentle AIMD(0.5, 0.875) victims with
// standard TCP AIMD(1, 0.5).
func BenchmarkAblationAIMD(b *testing.B) {
	gentle := Topology{Kind: "dumbbell", Flows: 15, AIMDIncreaseA: 0.5, AIMDDecreaseB: 0.875}
	var gentlePeak float64
	for i := 0; i < b.N; i++ {
		gentlePeak = benchPeak(b, gentle, 35e6, 75*time.Millisecond)
	}
	b.ReportMetric(gentlePeak, "gentle_aimd_peak_gain")
}

// BenchmarkAblationTransient compares Proposition 1's exact transient sum
// against Lemma 2's steady-state approximation (DESIGN.md ablation 4).
func BenchmarkAblationTransient(b *testing.B) {
	params := ModelParams{
		AIMD:       TCPAIMD(),
		AckRatio:   1,
		PacketSize: 1040,
		Bottleneck: 15e6,
		RTTs:       []float64{0.1},
	}
	var relErr float64
	for i := 0; i < b.N; i++ {
		exact := params.VictimThroughput(64, 0.35, 0.1, 100)
		wc := params.ConvergedWindow(0.35, 0.1)
		approx := params.VictimThroughput(wc, 0.35, 0.1, 100)
		relErr = (exact - approx) / exact
	}
	b.ReportMetric(relErr, "transient_rel_err")
}

// BenchmarkAblationPulseJitter measures what evading the DTW detector with
// ±30% period jitter costs in attack gain (DESIGN.md ablation 5).
func BenchmarkAblationPulseJitter(b *testing.B) {
	scale := benchScale()
	var uniformDeg, jitterDeg, uniformScore, jitterScore float64
	for i := 0; i < b.N; i++ {
		period := experiments.PeriodForGamma(0.5, 35e6, 75*time.Millisecond, 15e6)
		space := period - 75*time.Millisecond
		n := experiments.PulsesFor(scale.Measure, period)

		uniform := attack.Uniform(sim.FromDuration(75*time.Millisecond), 35e6,
			sim.FromDuration(space), n)
		jittered, err := attack.JitteredTrain(sim.FromDuration(75*time.Millisecond), 35e6,
			sim.FromDuration(space), n, 0.3, rng.New(7))
		if err != nil {
			b.Fatal(err)
		}

		dtw, err := detect.NewDTW(int(period/(50*time.Millisecond))*2, 0.15, 0.6)
		if err != nil {
			b.Fatal(err)
		}

		baseEnv, err := BuildDumbbell(DefaultDumbbellConfig(15))
		if err != nil {
			b.Fatal(err)
		}
		base, err := experiments.Run(baseEnv, experiments.RunOptions{
			Warmup: scale.Warmup, Measure: scale.Measure,
		})
		if err != nil {
			b.Fatal(err)
		}
		measure := func(train attack.Train) (deg, score float64) {
			env, err := BuildDumbbell(DefaultDumbbellConfig(15))
			if err != nil {
				b.Fatal(err)
			}
			res, err := experiments.Run(env, experiments.RunOptions{
				Warmup:  scale.Warmup,
				Measure: scale.Measure,
				Train:   &train,
				RateBin: 50 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			deg = 1 - float64(res.Delivered)/float64(base.Delivered)
			score = dtw.Detect(res.Rate.Bytes(), 0.05).Score
			return deg, score
		}
		uniformDeg, uniformScore = measure(uniform)
		jitterDeg, jitterScore = measure(jittered)
	}
	b.ReportMetric(uniformDeg, "uniform_degradation")
	b.ReportMetric(jitterDeg, "jitter_degradation")
	b.ReportMetric(uniformScore, "uniform_dtw_score")
	b.ReportMetric(jitterScore, "jitter_dtw_score")
}

// ---- micro-benches on the hot substrates ----

// BenchmarkKernelEvents measures raw event throughput of the DES kernel.
func BenchmarkKernelEvents(b *testing.B) {
	k := sim.New()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			k.AfterTicks(sim.Microsecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.AfterTicks(sim.Microsecond, tick)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkREDEnqueue measures the RED drop test per packet.
func BenchmarkREDEnqueue(b *testing.B) {
	q := netem.NewRED(netem.DefaultREDConfig(400), rng.New(1), 15e6)
	p := &netem.Packet{Flow: 1, Class: netem.ClassData, Size: 1040}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i) * sim.Microsecond
		if q.Enqueue(p, now) && q.Len() > 200 {
			q.Dequeue(now)
		}
	}
}

// benchLinkForward measures the pooled per-packet forwarding path — pool
// get, queue admit, transmit, propagate, deliver, release — through a
// saturated link.
func benchLinkForward(b *testing.B, q netem.Queue) {
	k := sim.New()
	sink := &netem.Sink{}
	link, err := netem.NewLink(k, "bench", 1e9, sim.Microsecond, q, sink)
	if err != nil {
		b.Fatal(err)
	}
	link.SetPool(netem.NewPacketPool())
	tx := link.TxTime(1000)
	sent := 0
	var tick func()
	tick = func() {
		if sent >= b.N {
			return
		}
		sent++
		p := link.NewPacket()
		p.Flow = 1
		p.Class = netem.ClassData
		p.Dir = netem.DirForward
		p.Size = 1000
		link.Send(p)
		k.AfterTicks(tx, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.AfterTicks(0, tick)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLinkDropTail measures per-packet forwarding through a drop-tail
// link.
func BenchmarkLinkDropTail(b *testing.B) {
	benchLinkForward(b, netem.NewDropTail(64))
}

// BenchmarkLinkRED measures per-packet forwarding through a RED link.
func BenchmarkLinkRED(b *testing.B) {
	benchLinkForward(b, netem.NewRED(netem.DefaultREDConfig(64), rng.New(1), 1e9))
}

// BenchmarkDTWDistance measures the O(n·m) dynamic-time-warping kernel.
func BenchmarkDTWDistance(b *testing.B) {
	xs := make([]float64, 128)
	ys := make([]float64, 128)
	for i := range xs {
		xs[i] = float64(i % 7)
		ys[i] = float64(i % 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detect.Distance(xs, ys)
	}
}

// BenchmarkPAA measures the piecewise aggregate approximation.
func BenchmarkPAA(b *testing.B) {
	xs := make([]float64, 1200)
	for i := range xs {
		xs[i] = float64(i % 13)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.PAA(xs, 240); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPLoopbackSecond measures simulating one virtual second of a
// saturated TCP connection through the dumbbell, in steady state: topology
// construction and slow start happen before the timer, so each iteration is
// one additional virtual second of an established flow. Steady state is
// allocation-free (guarded by TestTCPFlowAllocRegression).
func BenchmarkTCPLoopbackSecond(b *testing.B) {
	cfg := DefaultDumbbellConfig(1)
	cfg.RTTMin = 100 * time.Millisecond
	cfg.RTTMax = 100 * time.Millisecond
	env, err := BuildDumbbell(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := env.StartFlows(); err != nil {
		b.Fatal(err)
	}
	// Warm up past slow start so the pool and free lists reach capacity.
	if err := env.Kernel.RunUntil(env.Kernel.Now() + 2*sim.Second); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.Kernel.RunUntil(env.Kernel.Now() + sim.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtDefenseStudy measures the defense comparison (RTO jitter and
// Adaptive RED vs both attack archetypes) and reports the shrew mitigation.
func BenchmarkExtDefenseStudy(b *testing.B) {
	var mitigation float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultDefenseStudyConfig()
		cfg.Warmup = 5 * time.Second
		cfg.Measure = 8 * time.Second
		results, err := DefenseStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		none, err := experiments.FindDefenseResult(results, "none", "shrew")
		if err != nil {
			b.Fatal(err)
		}
		jit, err := experiments.FindDefenseResult(results, "rto-jitter", "shrew")
		if err != nil {
			b.Fatal(err)
		}
		mitigation = none.Degradation - jit.Degradation
	}
	b.ReportMetric(mitigation, "shrew_mitigation")
}

// BenchmarkExtMiceFCT measures the short-flow completion-time study and
// reports the attack's FCT inflation factor.
func BenchmarkExtMiceFCT(b *testing.B) {
	var inflation float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultMiceConfig()
		cfg.Warmup = 5 * time.Second
		cfg.Measure = 15 * time.Second
		base, err := MiceStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		period := 400 * time.Millisecond
		train, err := attack.AIMDTrain(sim.FromDuration(75*time.Millisecond), 40e6,
			sim.FromDuration(period), experiments.PulsesFor(cfg.Measure, period))
		if err != nil {
			b.Fatal(err)
		}
		cfg.Train = &train
		attacked, err := MiceStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if base.MeanFCT > 0 {
			inflation = attacked.MeanFCT / base.MeanFCT
		}
	}
	b.ReportMetric(inflation, "fct_inflation")
}

// BenchmarkSpectralDetect measures the PSD detector over a full series.
func BenchmarkSpectralDetect(b *testing.B) {
	d, err := detect.NewSpectral(0.3, 0.2, 5)
	if err != nil {
		b.Fatal(err)
	}
	bins := make([]float64, 600)
	for i := range bins {
		bins[i] = 1000
		if i%40 < 2 {
			bins[i] += 30000
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Detect(bins, 0.05)
	}
}

// BenchmarkTimeoutModel measures the §5 timeout-extension closed forms.
func BenchmarkTimeoutModel(b *testing.B) {
	params := ModelParams{
		AIMD:       TCPAIMD(),
		AckRatio:   1,
		PacketSize: 1040,
		Bottleneck: 15e6,
		RTTs:       []float64{0.02, 0.1, 0.2, 0.3, 0.46},
	}
	cfg := model.TimeoutModelConfig{MinRTO: 1, BufferPackets: 150, AttackPacketSize: 1000}
	var sink float64
	for i := 0; i < b.N; i++ {
		deg, err := params.CombinedDegradation(0.075, 40e6, 0.5, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sink = deg
	}
	_ = sink
}

// BenchmarkAblationAttackPacketSize compares 1000 B vs 50 B attack packets
// at equal bit rate against the packet-mode RED bottleneck.
func BenchmarkAblationAttackPacketSize(b *testing.B) {
	var fig *experiments.FigureResult
	for i := 0; i < b.N; i++ {
		fig = benchFigure(b, "ablation-pktsize")
	}
	if fig != nil && len(fig.Series) == 2 {
		big, small := fig.Series[0].Points, fig.Series[1].Points
		if len(big) > 0 && len(small) > 0 {
			b.ReportMetric(maxY(big), "pkt1000_peak_gain")
			b.ReportMetric(maxY(small), "pkt50_peak_gain")
		}
	}
}

// maxY reports the largest Y of a series.
func maxY(points []experiments.Point) float64 {
	best := 0.0
	for _, p := range points {
		if p.Y > best {
			best = p.Y
		}
	}
	return best
}

// BenchmarkMaximizationPoints measures the §4.1.2 peak-location comparison
// and reports the analytic-vs-measured gamma gap for the first setting.
func BenchmarkMaximizationPoints(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultMaximizationStudyConfig()
		cfg.Settings = cfg.Settings[:1]
		cfg.Gammas = benchScale().Gammas
		cfg.Warmup = 5 * time.Second
		cfg.Measure = 8 * time.Second
		points, err := MaximizationStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) > 0 {
			gap = points[0].AnalyticGammaStar - points[0].MeasuredPeakGamma
			if gap < 0 {
				gap = -gap
			}
		}
	}
	b.ReportMetric(gap, "gamma_peak_gap")
}

// BenchmarkPlanSensitivity measures the regret computation and reports the
// 2x-estimation-error regret as a fraction of the optimal gain.
func BenchmarkPlanSensitivity(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		points, err := Sensitivity(0.05, 1, []float64{0.5, 1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
		frac = points[2].Regret / points[2].OptimalGain
	}
	b.ReportMetric(frac, "regret_frac_2x")
}
