package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"pulsedos/internal/experiments"
	"pulsedos/internal/topo"
)

// canonicalVersion stamps the canonical encoding itself. Bump it whenever
// the shape of the canonical document changes (a field added, a default
// materialized differently), so keys computed under the old encoding can
// never alias keys under the new one.
const canonicalVersion = 1

// shardSchedule stamps the sharded engine's event schedule into the canonical
// document of every run above one worker. Bump it whenever a change can move
// a sharded run's result while every serial run keeps its bytes: bumping
// experiments.EngineVersion instead would move every serial key too. The
// first sharded schedule, whose cross-shard links all ran the golden
// two-event path, carried no stamp; 2 fused them; 3 cuts each flow at the
// trunks instead of placing it whole.
const shardSchedule = 3

// canonicalDoc is the normalized form a scenario hashes as. It contains only
// what determines the run's result:
//
//   - the fully resolved topo.Graph (every kind default, seed, TCP override,
//     and queue discipline materialized by the same Config.Graph path that
//     Build wires), with the cosmetic graph name blanked;
//   - the attack with its ignored knobs zeroed and its defaults applied;
//   - the measurement windows.
//
// Deliberately absent: Config.Name (a label, not a parameter). Workers and
// the shardSchedule stamp appear only above 1 — 0 and 1 both build the
// serial kernel — because a sharded run can break an exact event tie at a
// shard boundary differently (DESIGN.md §9) and must not share the serial
// run's cache entry, nor an entry an older sharded schedule wrote.
// Workers, the stamp and the measure and workload blocks are omitempty:
// documents that predate them canonicalize to the exact bytes they always
// did, which is what keeps every serial scenario.Key (and so every cache
// entry) stable.
type canonicalDoc struct {
	Canon      int                `json:"canon"`
	Graph      topo.Graph         `json:"graph"`
	Workers    int                `json:"workers,omitempty"`
	Schedule   int                `json:"shardSchedule,omitempty"`
	Attack     *canonicalAttack   `json:"attack,omitempty"`
	Workload   *canonicalWorkload `json:"workload,omitempty"`
	Measure    *canonicalMeasure  `json:"measure,omitempty"`
	WarmupSec  float64            `json:"warmupSec"`
	MeasureSec float64            `json:"measureSec"`
	RateBinMs  float64            `json:"rateBinMs"`
	Jitter     bool               `json:"measureJitter"`
}

// canonicalAttack is the normalized attack: defaults materialized, fields
// the kind ignores forced to zero so stray knobs in a hand-edited document
// cannot split the cache.
type canonicalAttack struct {
	Kind       string  `json:"kind"`
	RateMbps   float64 `json:"rateMbps"`
	ExtentMs   float64 `json:"extentMs"`
	Gamma      float64 `json:"gamma"`
	PeriodMs   float64 `json:"periodMs"`
	Harmonic   int     `json:"harmonic"`
	JitterFrac float64 `json:"jitterFrac"`
	TrainSeed  uint64  `json:"trainSeed"`
}

// canonicalizeAttack normalizes one attack spec against the scenario seed.
func canonicalizeAttack(a Attack, seed uint64) *canonicalAttack {
	out := &canonicalAttack{Kind: a.Kind, RateMbps: a.RateMbps}
	switch a.Kind {
	case "aimd":
		out.ExtentMs, out.Gamma, out.PeriodMs = a.ExtentMs, a.Gamma, a.PeriodMs
	case "jittered":
		out.ExtentMs, out.Gamma, out.PeriodMs = a.ExtentMs, a.Gamma, a.PeriodMs
		out.JitterFrac = a.JitterFrac
		// The jitter RNG is seeded from the scenario seed with the same
		// default Train applies.
		out.TrainSeed = seed
		if out.TrainSeed == 0 {
			out.TrainSeed = 1
		}
	case "shrew":
		out.ExtentMs = a.ExtentMs
		out.Harmonic = a.Harmonic
		if out.Harmonic == 0 {
			out.Harmonic = 1
		}
	case "flood":
		// Flood ignores extent, period, gamma, harmonic, and jitter.
	}
	return out
}

// Canonical renders the scenario as its stable, normalized JSON encoding:
// defaults materialized through the same resolution path Build uses, field
// order fixed by the canonicalDoc declaration, cosmetic fields dropped. Two
// documents that run the same simulation produce byte-identical canonical
// encodings; any change that alters the result changes them.
func (c Config) Canonical() ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	g, err := c.Graph()
	if err != nil {
		return nil, err
	}
	g.Name = "" // diagnostic label only; never reaches results
	doc := canonicalDoc{
		Canon:      canonicalVersion,
		Graph:      g,
		Workload:   c.canonicalizeWorkload(),
		Measure:    c.canonicalizeMeasure(),
		WarmupSec:  c.WarmupSec,
		MeasureSec: c.MeasureSec,
		RateBinMs:  c.RateBinMs,
		Jitter:     c.Jitter,
	}
	if c.Topology.Workers > 1 {
		doc.Workers = c.Topology.Workers
		doc.Schedule = shardSchedule
	}
	if c.Attack != nil {
		doc.Attack = canonicalizeAttack(*c.Attack, c.Seed)
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("scenario: canonical encode: %w", err)
	}
	return buf, nil
}

// Key returns the scenario's content address: SHA-256 over the engine
// version stamp and the canonical encoding, in lowercase hex. Because
// determinism is lint-enforced end to end, two scenarios with equal keys
// produce byte-identical result artifacts on the same engine version —
// the precondition internal/runcache memoizes under.
func Key(c Config) (string, error) {
	canon, err := c.Canonical()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(experiments.EngineVersion))
	h.Write([]byte{0})
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}
