package experiments

import (
	"testing"
	"time"

	"pulsedos/internal/attack"
	"pulsedos/internal/sim"
	"pulsedos/internal/topo"
)

// TestTestbedBaseline checks the Fig. 11 test-bed fills its 10 Mbps pipe.
func TestTestbedBaseline(t *testing.T) {
	env, err := topo.Build(topo.Testbed(topo.DefaultTestbedConfig(10)), topo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(env, RunOptions{Warmup: 10 * time.Second, Measure: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	util := float64(res.Delivered) * 8 / 20 / env.ModelParams().Bottleneck
	t.Logf("testbed util=%.3f timeouts=%d FRs=%d", util, res.Timeouts, res.FastRecoveries)
	if util < 0.75 {
		t.Errorf("testbed utilization %.3f below 0.75", util)
	}
}

// TestConvergedWindowMatchesEq1 is the core fidelity check of the FR-state
// model: in the attacked steady phase, a victim's congestion window
// sawtooths around Eq. 1's Wc = a/(1-b) · 1/d · T_AIMD/RTT, evaluated at the
// flow's operative (smoothed) RTT. A lone flow dodges too many pulses for
// the statistics to bind, so the check runs inside the 15-flow population
// the analysis actually models.
func TestConvergedWindowMatchesEq1(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := topo.DefaultDumbbellConfig(15)
	env, err := topo.Build(topo.Dumbbell(cfg), topo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The normal-gain setting 25 Mbps x 75 ms at gamma = 0.3.
	period := PeriodForGamma(0.3, 25e6, 75*time.Millisecond, cfg.BottleneckRate)
	tr, err := attack.AIMDTrain(sim.FromDuration(75*time.Millisecond), 25e6,
		sim.FromDuration(period), PulsesFor(30*time.Second, period))
	if err != nil {
		t.Fatal(err)
	}
	const flowIdx = 7 // mid-RTT victim (~240 ms propagation)
	samples, err := CwndTrace(env, tr, flowIdx, 8*time.Second, 22*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	var n int
	for _, s := range samples {
		if s.TimeSec > 14 { // steady phase only
			sum += s.Cwnd
			n++
		}
	}
	if n == 0 {
		t.Fatal("no steady-phase samples")
	}
	mean := sum / float64(n)
	srtt := env.Senders[flowIdx].SRTT()
	if srtt <= 0 {
		t.Fatal("no RTT estimate")
	}
	// A pulse only clips this flow when one of its packets is among the
	// drops, so the flow's effective congestion period is the attacked span
	// divided by its observed loss events. Eq. 1's recurrence
	// W <- bW + (a/d)(T/RTT) evaluated at that effective period predicts
	// the sawtooth the window should ride.
	st := env.Senders[flowIdx].Stats()
	losses := st.Timeouts + st.FastRetransmits
	if losses < 5 {
		t.Fatalf("too few loss events (%d) to validate the recurrence", losses)
	}
	tEff := 22.0 / float64(losses)
	wcEff := env.ModelParams().ConvergedWindow(tEff, srtt)
	sawtoothMean := 0.75 * wcEff // mean of a b=0.5 sawtooth between b·Wc and Wc
	ratio := mean / sawtoothMean
	t.Logf("T_AIMD=%v srtt=%.3fs losses=%d T_eff=%.2fs Wc_eff=%.2f predictedMean=%.2f measured=%.2f ratio=%.2f",
		period, srtt, losses, tEff, wcEff, sawtoothMean, mean, ratio)
	if ratio < 0.6 || ratio > 1.7 {
		t.Errorf("steady mean cwnd %.2f vs Eq.1 prediction %.2f: ratio %.2f outside [0.6, 1.7]",
			mean, sawtoothMean, ratio)
	}
}
