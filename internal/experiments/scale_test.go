package experiments

import (
	"context"
	"runtime"
	"testing"
	"time"

	"pulsedos/internal/attack"
	"pulsedos/internal/sim"
	"pulsedos/internal/topo"
)

// peakHeapGrowth builds and runs the benchmark's attack-10k shape at the
// given population — a RED trunk of 1 Mbps and 10 packets of buffer per
// flow, γ = 0.5 pulses at twice the trunk rate — for 2 s of warm-up and 2 s
// measured, and reports the largest heap growth over the pre-build heap,
// sampled after the build and after every timeline slice.
func peakHeapGrowth(t *testing.T, flows int) uint64 {
	t.Helper()
	cfg := topo.DefaultDumbbellConfig(flows)
	cfg.BottleneckRate = float64(flows) * 1e6
	cfg.QueueLimit = 10 * flows
	cfg.AttackAccessRate = 4 * cfg.BottleneckRate
	window := 2 * time.Second
	extent, rate := 75*time.Millisecond, 2*cfg.BottleneckRate
	period := PeriodForGamma(0.5, rate, extent, cfg.BottleneckRate)
	train, err := attack.AIMDTrain(sim.FromDuration(extent), rate, sim.FromDuration(period), PulsesFor(window, period))
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base, peak := ms.HeapAlloc, uint64(0)
	sample := func(float64) {
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > base+peak {
			peak = ms.HeapAlloc - base
		}
	}
	env, err := topo.Build(topo.Dumbbell(cfg), topo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sample(0)
	opt := RunOptions{Warmup: window, Measure: window, Train: &train, Progress: sample}
	if _, err := RunCtx(context.Background(), env, opt); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(env)
	return peak
}

// TestProjectedHeapCoversMeasuredSlope: ProjectedHeapBytes must charge a
// packet flow at least the peak heap a pulsed run measures per flow, and at
// most four times it, so pdos-serve's budget neither admits what it cannot
// hold nor refuses what fits. Taking the slope between two populations
// cancels the fixed base on both sides.
func TestProjectedHeapCoversMeasuredSlope(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two pulsed populations")
	}
	small, large := 100, 300
	grow := peakHeapGrowth(t, large) - peakHeapGrowth(t, small)
	measured := float64(grow) / float64(large-small)
	projected := float64(ProjectedHeapBytes(large, 0)-ProjectedHeapBytes(small, 0)) / float64(large-small)
	if projected < measured || projected > 4*measured {
		t.Errorf("projected %.0f heap bytes per packet flow, measured %.0f: want between 1x and 4x", projected, measured)
	}
}
