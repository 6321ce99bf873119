package experiments

import (
	"fmt"
	"time"
)

// DefenseResult reports how one defense fares against one attack archetype:
// the throughput degradation the attack still achieves and the victims' TCP
// state statistics.
type DefenseResult struct {
	Defense string // "none", "rto-jitter", "adaptive-red"
	Attack  string // "aimd", "shrew"

	Degradation    float64
	BaselineMbps   float64
	AttackedMbps   float64
	Timeouts       uint64
	FastRecoveries uint64
}

// DefenseStudyConfig parameterizes the defense comparison, which
// figures.DefenseStudy runs as the ext-defense figure's documents. Each
// (defense, attack) cell is measured against a baseline with the same
// defense in place, so the degradation isolates the attack's effect.
type DefenseStudyConfig struct {
	Flows      int
	AttackRate float64
	Extent     time.Duration
	MinRTO     time.Duration // shrew anchor; also the victims' RTO floor
	AIMDPeriod time.Duration // off-resonance period for the AIMD attack
	RTOJitter  float64       // jitter fraction for the rto-jitter defense
	Warmup     time.Duration
	Measure    time.Duration
	Seed       uint64
}

// DefaultDefenseStudyConfig returns a study contrasting the two §1.1
// defenses against both attack archetypes on the dumbbell.
func DefaultDefenseStudyConfig() DefenseStudyConfig {
	return DefenseStudyConfig{
		Flows:      15,
		AttackRate: 50e6,
		Extent:     50 * time.Millisecond,
		MinRTO:     time.Second,
		AIMDPeriod: 300 * time.Millisecond, // off the minRTO/n grid
		RTOJitter:  0.5,
		Warmup:     8 * time.Second,
		Measure:    20 * time.Second,
		Seed:       1,
	}
}

// FindDefenseResult selects one cell from a study's results.
func FindDefenseResult(results []DefenseResult, defense, attackName string) (DefenseResult, error) {
	for _, r := range results {
		if r.Defense == defense && r.Attack == attackName {
			return r, nil
		}
	}
	return DefenseResult{}, fmt.Errorf("experiments: no result for (%s, %s)", defense, attackName)
}
