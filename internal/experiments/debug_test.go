package experiments

import (
	"testing"
	"time"

	"pulsedos/internal/topo"
)

// TestSingleFlowUtilization isolates the TCP sender: one NewReno flow over
// the bottleneck should achieve near-full utilization.
func TestSingleFlowUtilization(t *testing.T) {
	cfg := topo.DefaultDumbbellConfig(1)
	cfg.RTTMin = 100 * time.Millisecond
	cfg.RTTMax = 100 * time.Millisecond
	// A lone flow needs a window beyond BDP + queue to fill the pipe.
	cfg.TCP.MaxWindow = 512
	cfg.TCP.InitialSSThresh = 256
	env, err := topo.Build(topo.Dumbbell(cfg), topo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(env, RunOptions{Warmup: 10 * time.Second, Measure: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	util := float64(res.Delivered) * 8 / 20 / cfg.BottleneckRate
	st := env.Senders[0].Stats()
	t.Logf("util=%.3f timeouts=%d FRs=%d retx=%d sent=%d acks=%d dups=%d srtt=%.3f drops=%v",
		util, st.Timeouts, st.FastRetransmits, st.Retransmits, st.SegmentsSent,
		st.AcksReceived, st.DupAcks, env.Senders[0].SRTT(), res.Drops.ByClass)
	// A lone NewReno sawtooth over a buffer below the BDP cannot stay at
	// 100%: with B/BDP ≈ 0.8 the classic bound sits near 0.8.
	if util < 0.75 {
		t.Errorf("single-flow utilization %.3f below 0.75", util)
	}
	if util > 1.01 {
		t.Errorf("single-flow utilization %.3f above capacity", util)
	}
}
