package experiments

import (
	"context"
	"math"
	"testing"
	"time"

	"pulsedos/internal/attack"
	"pulsedos/internal/rng"
	"pulsedos/internal/sim"
	"pulsedos/internal/topo"
)

func TestMiceStudyBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation study")
	}
	res, err := MiceStudy(DefaultMiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline: started=%d completed=%d meanFCT=%.2fs medianFCT=%.2fs p95=%.2fs",
		res.Started, res.Completed, res.MeanFCT, res.MedianFCT, res.P95FCT)
	if res.Started == 0 {
		t.Fatal("no mice started")
	}
	if res.Completed < res.Started*8/10 {
		t.Errorf("only %d/%d mice completed without an attack", res.Completed, res.Started)
	}
	if res.MeanFCT <= 0 || res.MeanFCT > 10 {
		t.Errorf("baseline mean FCT = %.2fs, implausible", res.MeanFCT)
	}
	if res.ElephantBytes == 0 {
		t.Error("elephants moved no data")
	}
}

func TestMiceStudyAttackInflatesFCT(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation study")
	}
	base, err := MiceStudy(DefaultMiceConfig())
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultMiceConfig()
	period := 400 * time.Millisecond
	train, err := attack.AIMDTrain(sim.FromDuration(75*time.Millisecond), 40e6,
		sim.FromDuration(period), PulsesFor(cfg.Measure, period))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Train = &train
	attacked, err := MiceStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("attacked: completed=%d/%d meanFCT=%.2fs (baseline %.2fs) p95=%.2fs (baseline %.2fs)",
		attacked.Completed, attacked.Started,
		attacked.MeanFCT, base.MeanFCT, attacked.P95FCT, base.P95FCT)

	// The attack must visibly hurt the mice: fewer completions within the
	// window, or substantially inflated completion times.
	hurt := attacked.Completed < base.Completed ||
		attacked.MeanFCT > 1.5*base.MeanFCT ||
		attacked.P95FCT > 1.5*base.P95FCT
	if !hurt {
		t.Errorf("attack left mice unharmed: completed %d vs %d, meanFCT %.2f vs %.2f",
			attacked.Completed, base.Completed, attacked.MeanFCT, base.MeanFCT)
	}
	// And the elephants lose throughput too.
	if attacked.ElephantBytes >= base.ElephantBytes {
		t.Errorf("elephant bytes did not drop: %d vs %d",
			attacked.ElephantBytes, base.ElephantBytes)
	}
}

func TestMiceStudyValidation(t *testing.T) {
	bad := DefaultMiceConfig()
	bad.Mice = 0
	if _, err := MiceStudy(bad); err == nil {
		t.Error("zero mice accepted")
	}
	bad = DefaultMiceConfig()
	bad.ArrivalSpan = 0
	if _, err := MiceStudy(bad); err == nil {
		t.Error("zero arrival span accepted")
	}
}

// TestPoissonMeanRate: the mice's arrival draw is a Poisson process —
// strictly increasing instants at the requested mean rate.
func TestPoissonMeanRate(t *testing.T) {
	r := rng.New(1)
	mean := sim.FromSeconds(1 / 10.0) // 10 arrivals/s
	const n = 20000
	var at sim.Time
	for i := 0; i < n; i++ {
		next := nextArrival(at, mean, r)
		if next <= at {
			t.Fatal("arrivals not strictly increasing")
		}
		at = next
	}
	rate := float64(n) / at.Seconds()
	if math.Abs(rate-10)/10 > 0.05 {
		t.Errorf("empirical rate = %.2f/s, want ~10", rate)
	}
}

// TestPoissonValidation: a mice run whose arrival rate is not positive is
// refused before any draw, and a draw never returns a gap under 1 ns.
func TestPoissonValidation(t *testing.T) {
	env, err := topo.Build(topo.Dumbbell(topo.DefaultDumbbellConfig(2)), topo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := MiceConfig{Elephants: 1, Mice: 1, MiceSegments: 1, ArrivalSpan: -time.Second, Measure: time.Second}
	if _, err := RunMiceCtx(context.Background(), env, cfg, nil); err == nil {
		t.Error("negative arrival span accepted")
	}
	if got := nextArrival(5, 0, rng.New(1)); got != 6 {
		t.Errorf("zero-mean arrival after 5 ns = %d ns, want 6", got)
	}
}
