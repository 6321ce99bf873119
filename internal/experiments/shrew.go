package experiments

import (
	"math"
	"time"
)

// ShrewPoint annotates a gain-sweep sample with its shrew-resonance status:
// whether the attack period T_AIMD lies near minRTO/n for some harmonic n,
// in which case pulses synchronize with victims' retransmission timers and
// the measured gain rises above the AIMD analysis (§4.1.3, Fig. 10).
type ShrewPoint struct {
	GainPoint
	Shrew    bool // period matches a minRTO harmonic within tolerance
	Harmonic int  // the matching n (0 when not a shrew point)
}

// ShrewHarmonic reports whether periodSec ≈ minRTO/n for some n in
// [1, maxHarmonic] within the relative tolerance, and if so which n.
func ShrewHarmonic(periodSec float64, minRTO time.Duration, maxHarmonic int, tolRel float64) (int, bool) {
	if periodSec <= 0 || minRTO <= 0 {
		return 0, false
	}
	rto := minRTO.Seconds()
	for n := 1; n <= maxHarmonic; n++ {
		target := rto / float64(n)
		if math.Abs(periodSec-target) <= tolRel*target {
			return n, true
		}
	}
	return 0, false
}

// ShrewGammas returns the γ values at which the attack period lands exactly
// on minRTO/n harmonics, for seeding a sweep grid with the paper's marked
// points (e.g. T_AIMD = 500 ms and 1000 ms for R_attack = 30 Mbps,
// T_extent = 100 ms).
func ShrewGammas(attackRate float64, extent time.Duration, bottleneck float64, minRTO time.Duration, maxHarmonic int) []float64 {
	if maxHarmonic < 1 {
		maxHarmonic = 5
	}
	out := make([]float64, 0, maxHarmonic)
	for n := 1; n <= maxHarmonic; n++ {
		period := minRTO.Seconds() / float64(n)
		gamma := attackRate * extent.Seconds() / (bottleneck * period)
		if gamma > 0 && gamma < 1 {
			out = append(out, gamma)
		}
	}
	return out
}
