package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"pulsedos/internal/runcache"
)

// This file wires the content-addressed run cache into the scaling sweep
// (ScaleSweepConfig.Cache). Points memoize under keys derived from the full
// parameter set plus EngineVersion, so a cache can never serve results from
// a semantically different configuration or an older engine. (Figures cache
// per scenario point under scenario.Key; see internal/figures.)

// cacheKey hashes a namespaced parameter document into a runcache key:
// SHA-256(EngineVersion \x00 namespace \x00 params-JSON). The params value
// must marshal deterministically (structs with fixed field order, no maps).
func cacheKey(namespace string, params any) (string, error) {
	doc, err := json.Marshal(params)
	if err != nil {
		return "", fmt.Errorf("experiments: cache key: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(EngineVersion))
	h.Write([]byte{0})
	h.Write([]byte(namespace))
	h.Write([]byte{0})
	h.Write(doc)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// scaleKeyDoc is the hashed parameter set of one scaling-sweep point.
// Everything that reaches the physics or the topology is included; the
// point's population is the distinguishing field, so each point caches
// independently and growing FlowCounts only computes the new tail.
type scaleKeyDoc struct {
	Flows           int     `json:"flows"`
	PerFlowRate     float64 `json:"perFlowRate"`
	Gamma           float64 `json:"gamma"`
	ExtentNs        int64   `json:"extentNs"`
	RateFactor      float64 `json:"rateFactor"`
	WarmupNs        int64   `json:"warmupNs"`
	MeasureNs       int64   `json:"measureNs"`
	Seed            uint64  `json:"seed"`
	HeapBaseline    bool    `json:"heapBaseline"`
	Shards          int     `json:"shards"`
	ForegroundFlows int     `json:"foregroundFlows"`
}

// ScaleKey is the content address of one scaling-sweep point on the current
// engine version.
func ScaleKey(cfg ScaleSweepConfig, flows int) (string, error) {
	return cacheKey("scale", scaleKeyDoc{
		Flows:           flows,
		PerFlowRate:     cfg.PerFlowRate,
		Gamma:           cfg.Gamma,
		ExtentNs:        cfg.Extent.Nanoseconds(),
		RateFactor:      cfg.RateFactor,
		WarmupNs:        cfg.Warmup.Nanoseconds(),
		MeasureNs:       cfg.measureFor(flows).Nanoseconds(),
		Seed:            cfg.Seed,
		HeapBaseline:    cfg.HeapBaseline,
		Shards:          cfg.Shards,
		ForegroundFlows: cfg.ForegroundFlows,
	})
}

// pointArtifact is the cached scaling point, JSON-encoded.
const pointArtifact = "point.json"

// cachedScalePoint looks one sweep point up in the cache; miss = (zero,
// false). Physics fields replay exactly (they are deterministic); the perf
// fields (wall seconds, events/sec, allocs) replay as recorded at compute
// time — a cached point documents what the run cost when it actually ran,
// it does not re-measure this machine.
func cachedScalePoint(cache *runcache.Store, key string) (ScalePoint, bool) {
	files, ok := cache.Get(key)
	if !ok {
		return ScalePoint{}, false
	}
	raw, ok := files[pointArtifact]
	if !ok {
		return ScalePoint{}, false
	}
	var p ScalePoint
	if err := json.Unmarshal(raw, &p); err != nil {
		return ScalePoint{}, false
	}
	return p, true
}

// storeScalePoint persists one computed sweep point; failures are swallowed
// (the sweep result is already correct, the cache just stays cold).
func storeScalePoint(cache *runcache.Store, key string, flows int, p ScalePoint) {
	raw, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return
	}
	cache.Put(key, fmt.Sprintf("scale:%d-flows", flows), EngineVersion, map[string][]byte{
		pointArtifact: append(raw, '\n'),
	})
}
