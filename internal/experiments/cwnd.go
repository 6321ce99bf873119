package experiments

import (
	"time"

	"pulsedos/internal/attack"
)

// CwndSample is one point of a Fig. 1 congestion-window trace.
type CwndSample struct {
	TimeSec float64
	Cwnd    float64 // segments
}

// CwndTrace reproduces Fig. 1: a victim flow's congestion window before and
// during a fixed-period AIMD-based attack, exhibiting the transient phase
// (window stepping down toward W_c) followed by the steady sawtooth.
// flowIdx selects which victim to observe; the samples are Run's cwnd tap.
func CwndTrace(
	env Environment,
	train attack.Train,
	flowIdx int,
	warmup, duration time.Duration,
) ([]CwndSample, error) {
	res, err := Run(env, RunOptions{
		Warmup:      warmup,
		Measure:     duration,
		Train:       &train,
		CaptureCwnd: true,
		CwndFlow:    flowIdx,
	})
	if err != nil {
		return nil, err
	}
	return res.Cwnd, nil
}

// ResampleCwnd converts an event-driven cwnd trace into a fixed-step series
// (sample-and-hold), convenient for plotting and peak analysis.
func ResampleCwnd(samples []CwndSample, stepSec, untilSec float64) []CwndSample {
	if stepSec <= 0 || untilSec <= 0 || len(samples) == 0 {
		return nil
	}
	out := make([]CwndSample, 0, int(untilSec/stepSec)+1)
	idx := 0
	last := samples[0].Cwnd
	for t := 0.0; t <= untilSec; t += stepSec {
		for idx < len(samples) && samples[idx].TimeSec <= t {
			last = samples[idx].Cwnd
			idx++
		}
		out = append(out, CwndSample{TimeSec: t, Cwnd: last})
	}
	return out
}
