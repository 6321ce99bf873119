package experiments

import (
	"errors"
	"time"

	"pulsedos/internal/analysis"
	"pulsedos/internal/attack"
	"pulsedos/internal/stats"
)

// SyncResult captures a Fig. 3 quasi-global-synchronization snapshot: the
// normalized, PAA-compressed incoming-traffic signal and two independent
// period estimates (peak counting, as the paper does by eye, and
// autocorrelation).
type SyncResult struct {
	Frames      []float64 // zero-mean PAA of the incoming traffic
	DurationSec float64   // snapshot length
	Peaks       int       // pinnacles counted above half the signal maximum

	PeakPeriodSec float64 // duration / peaks (paper's 60/30 = 2 s)
	AutoPeriodSec float64 // autocorrelation-based estimate (0 if none found)

	AttackPeriodSec float64 // ground truth T_AIMD of the train
}

// SyncSnapshot runs an attacked scenario and post-processes the bottleneck's
// incoming-traffic series with AnalyzeSync.
func SyncSnapshot(
	env Environment,
	train attack.Train,
	warmup, duration, bin time.Duration,
	frames int,
) (*SyncResult, error) {
	if env == nil {
		return nil, errors.New("experiments: nil environment")
	}
	if bin <= 0 || frames < 2 {
		return nil, errors.New("experiments: sync snapshot needs positive bin and >= 2 frames")
	}
	res, err := Run(env, RunOptions{
		Warmup:  warmup,
		Measure: duration,
		Train:   &train,
		RateBin: bin,
	})
	if err != nil {
		return nil, err
	}
	out, err := AnalyzeSync(res.Rate.Bytes(), frames, duration.Seconds(), bin.Seconds())
	if err != nil {
		return nil, err
	}
	if len(train.Pulses) > 0 {
		out.AttackPeriodSec = train.Pulses[0].Period().Seconds()
	}
	return out, nil
}

// AnalyzeSync is the §2.3 post-processing of an incoming-traffic series of
// byte bins binSec wide spanning durationSec: normalize to zero mean,
// compress with a piecewise aggregate approximation into frames, then
// recover the oscillation period by counting pinnacles and by
// autocorrelation. SyncSnapshot and the scenario "sync" tap both call it, so
// the two cannot drift apart. AttackPeriodSec is left zero.
func AnalyzeSync(bins []float64, frames int, durationSec, binSec float64) (*SyncResult, error) {
	paa, err := analysis.NormalizePAA(bins, frames)
	if err != nil {
		return nil, err
	}
	out := &SyncResult{Frames: paa, DurationSec: durationSec}

	// Peak counting: pinnacles are frames above half the maximum positive
	// excursion (robust to the TCP traffic between pulses).
	_, max, err := stats.MinMax(paa)
	if err != nil {
		return nil, err
	}
	out.Peaks = analysis.CountPeaks(paa, max/2)
	if out.Peaks > 0 {
		out.PeakPeriodSec = durationSec / float64(out.Peaks)
	}

	// Autocorrelation estimate on the raw (un-compressed) series.
	lag, err := analysis.DominantPeriod(stats.Normalize(bins), len(bins)/2, 0.1)
	if err == nil && lag > 0 {
		out.AutoPeriodSec = analysis.PeriodSeconds(lag, binSec)
	}
	return out, nil
}
