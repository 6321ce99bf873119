package experiments

import (
	"testing"
	"time"

	"pulsedos/internal/topo"
)

// TestQueueSizeUtilizationProbe is a diagnostic: baseline utilization across
// bottleneck buffer sizes, to choose the default faithful to both Lemma 1
// (full utilization without attack) and the pulse-overflow dynamics the
// attack experiments need.
func TestQueueSizeUtilizationProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	for _, q := range []int{60, 100, 150, 250, 400} {
		cfg := topo.DefaultDumbbellConfig(15)
		cfg.QueueLimit = q
		env, err := topo.Build(topo.Dumbbell(cfg), topo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(env, RunOptions{Warmup: 10 * time.Second, Measure: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		util := float64(res.Delivered) * 8 / 20 / cfg.BottleneckRate
		t.Logf("queue=%3d util=%.3f TO=%d FR=%d retx=%d/%d",
			q, util, res.Timeouts, res.FastRecoveries, res.Retransmits, res.SegmentsSent)
	}
}
