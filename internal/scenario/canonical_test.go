package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadDoc parses and validates one scenario literal.
func loadDoc(t *testing.T, doc string) Config {
	t.Helper()
	cfg, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("load %s: %v", doc, err)
	}
	return cfg
}

func keyOf(t *testing.T, cfg Config) string {
	t.Helper()
	k, err := Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestCanonicalCollidesOnSemanticTwins pins the memoization precondition:
// documents that run the same simulation must hash to the same key no matter
// how they spell it — field order, explicit defaults, cosmetic labels,
// a serial worker count, and knobs the attack kind ignores.
func TestCanonicalCollidesOnSemanticTwins(t *testing.T) {
	base := loadDoc(t, `{
		"name": "terse",
		"topology": {"kind": "dumbbell"},
		"attack": {"kind": "aimd", "rateMbps": 30, "extentMs": 75, "gamma": 0.5},
		"warmupSec": 5, "measureSec": 10}`)
	twins := map[string]Config{
		"reordered fields + explicit default flows": loadDoc(t, `{
			"measureSec": 10, "warmupSec": 5,
			"attack": {"gamma": 0.5, "extentMs": 75, "rateMbps": 30, "kind": "aimd"},
			"topology": {"flows": 15, "kind": "dumbbell"},
			"name": "verbose"}`),
		"different cosmetic name": func() Config {
			c := base
			c.Name = "renamed"
			return c
		}(),
		"explicit seed 1 (the default)": func() Config {
			c := base
			c.Seed = 1
			return c
		}(),
		"workers 1 (the serial kernel, as 0 builds)": func() Config {
			c := base
			c.Topology.Workers = 1
			return c
		}(),
	}
	want := keyOf(t, base)
	for name, twin := range twins {
		if got := keyOf(t, twin); got != want {
			t.Errorf("%s: key %s != base %s", name, got, want)
		}
	}

	// Flood ignores extent/gamma/period/harmonic/jitter: stray knobs must
	// not split the cache.
	floodA := loadDoc(t, `{"topology": {"kind": "dumbbell"},
		"attack": {"kind": "flood", "rateMbps": 40},
		"warmupSec": 2, "measureSec": 4}`)
	floodB := loadDoc(t, `{"topology": {"kind": "dumbbell"},
		"attack": {"kind": "flood", "rateMbps": 40, "extentMs": 75, "harmonic": 2, "jitterFrac": 0.5},
		"warmupSec": 2, "measureSec": 4}`)
	if keyOf(t, floodA) != keyOf(t, floodB) {
		t.Error("flood: ignored attack knobs changed the key")
	}

	// Shrew's harmonic default is 1.
	shrewA := loadDoc(t, `{"topology": {"kind": "dumbbell"},
		"attack": {"kind": "shrew", "rateMbps": 40, "extentMs": 100},
		"warmupSec": 2, "measureSec": 4}`)
	shrewB := loadDoc(t, `{"topology": {"kind": "dumbbell"},
		"attack": {"kind": "shrew", "rateMbps": 40, "extentMs": 100, "harmonic": 1},
		"warmupSec": 2, "measureSec": 4}`)
	if keyOf(t, shrewA) != keyOf(t, shrewB) {
		t.Error("shrew: explicit default harmonic changed the key")
	}
}

// TestCanonicalDivergesOnSemanticChange flips every class of knob that does
// change what a run produces and requires a distinct key for each.
func TestCanonicalDivergesOnSemanticChange(t *testing.T) {
	base := loadDoc(t, `{
		"topology": {"kind": "dumbbell"},
		"attack": {"kind": "aimd", "rateMbps": 30, "extentMs": 75, "gamma": 0.5},
		"warmupSec": 5, "measureSec": 10, "rateBinMs": 50}`)
	mutations := map[string]func(c *Config){
		"flows":            func(c *Config) { c.Topology.Flows = 16 },
		"topology kind":    func(c *Config) { c.Topology.Kind = "testbed" },
		"bottleneck":       func(c *Config) { c.Topology.BottleneckMbps = 20 },
		"queue limit":      func(c *Config) { c.Topology.QueuePackets = 80 },
		"drop-tail":        func(c *Config) { c.Topology.DropTail = true },
		"rto-min override": func(c *Config) { c.Topology.RTOMinMs = 200 },
		"limited transmit": func(c *Config) { c.Topology.LimitedTransmit = true },
		"attack rate":      func(c *Config) { c.Attack.RateMbps = 35 },
		"attack extent":    func(c *Config) { c.Attack.ExtentMs = 100 },
		"attack gamma":     func(c *Config) { c.Attack.Gamma = 0.6 },
		"period not gamma": func(c *Config) { c.Attack.Gamma = 0; c.Attack.PeriodMs = 1100 },
		"attack kind":      func(c *Config) { c.Attack.Kind = "jittered"; c.Attack.JitterFrac = 0.3 },
		"no attack":        func(c *Config) { c.Attack = nil },
		"warmup":           func(c *Config) { c.WarmupSec = 6 },
		"measure":          func(c *Config) { c.MeasureSec = 12 },
		"rate bin":         func(c *Config) { c.RateBinMs = 100 },
		"jitter meter":     func(c *Config) { c.Jitter = true },
		"seed":             func(c *Config) { c.Seed = 7 },
		// A sharded run may order boundary ties differently (DESIGN.md §9).
		"workers 4": func(c *Config) { c.Topology.Workers = 4 },
	}
	seen := map[string]string{keyOf(t, base): "base"}
	for name, mutate := range mutations {
		c := base
		if c.Attack != nil {
			a := *c.Attack
			c.Attack = &a
		}
		mutate(&c)
		k := keyOf(t, c)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q (key %s)", name, prev, k)
			continue
		}
		seen[k] = name
	}
}

// TestCanonicalKeysShardedTestbedApart: a sharded run's bytes can differ
// from the serial run's — the shipped test-bed document, delayed ACKs under
// attack, still does at 8 workers, where boundary events tie on (when, at)
// — so a document above one worker must not share a cache entry with its
// serial form.
func TestCanonicalKeysShardedTestbedApart(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "testbed-fig12.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := loadDoc(t, string(raw))
	cfg.Topology.Workers = 1
	serial := keyOf(t, cfg)
	cfg.Topology.Workers = 2
	if keyOf(t, cfg) == serial {
		t.Errorf("testbed-fig12.json keys to %s at workers 1 and 2", serial)
	}
}

// TestCanonicalStampsShardedSchedule: only a document above one worker
// carries the sharded-schedule stamp, so a change to the sharded schedule
// moves sharded keys alone and every serial key stays put.
func TestCanonicalStampsShardedSchedule(t *testing.T) {
	cfg := loadDoc(t, `{
		"topology": {"kind": "dumbbell", "flows": 4},
		"attack": {"kind": "aimd", "rateMbps": 30, "extentMs": 75, "gamma": 0.5},
		"warmupSec": 2, "measureSec": 4, "seed": 3}`)
	stamp := fmt.Sprintf(`"shardSchedule":%d`, shardSchedule)
	for _, workers := range []int{0, 1, 2, 4} {
		cfg.Topology.Workers = workers
		canon, err := cfg.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := bytes.Contains(canon, []byte(stamp)), workers > 1; got != want {
			t.Errorf("workers %d: canonical document carries %s: %v, want %v", workers, stamp, got, want)
		}
	}
}

// TestCanonicalIsStable pins determinism of the encoding itself: repeated
// calls must yield byte-identical documents, and the key must be a 64-hex
// runcache-compatible address.
func TestCanonicalIsStable(t *testing.T) {
	cfg := loadDoc(t, `{
		"topology": {"kind": "parkinglot", "hops": 3},
		"attack": {"kind": "jittered", "rateMbps": 30, "extentMs": 75, "gamma": 0.4, "jitterFrac": 0.2},
		"warmupSec": 3, "measureSec": 6, "seed": 9}`)
	a, err := cfg.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("canonical encoding differs across calls")
	}
	k := keyOf(t, cfg)
	if len(k) != 64 || strings.ToLower(k) != k {
		t.Errorf("key %q is not lowercase 64-hex", k)
	}
}

// TestCanonicalRejectsInvalid ensures hashing never succeeds on a document
// that would not run — an invalid document has no semantics to address.
func TestCanonicalRejectsInvalid(t *testing.T) {
	bad := Config{Topology: Topology{Kind: "möbius"}, MeasureSec: 1}
	if _, err := bad.Canonical(); err == nil {
		t.Error("Canonical accepted an invalid topology kind")
	}
	if _, err := Key(bad); err == nil {
		t.Error("Key accepted an invalid topology kind")
	}
}
