package scenario

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"pulsedos/internal/experiments"
)

func TestLoadValid(t *testing.T) {
	cfg, err := Load(strings.NewReader(`{
		"name": "fig8-style",
		"topology": {"kind": "dumbbell", "flows": 5},
		"attack": {"kind": "aimd", "rateMbps": 35, "extentMs": 75, "gamma": 0.5},
		"warmupSec": 2, "measureSec": 3, "seed": 7
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "fig8-style" || cfg.Topology.Flows != 5 || cfg.Attack.Gamma != 0.5 {
		t.Errorf("parsed = %+v", cfg)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	_, err := Load(strings.NewReader(`{
		"topology": {"kind": "dumbbell"},
		"measureSec": 3,
		"bogusKnob": true
	}`))
	if err == nil {
		t.Error("unknown field accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader(`{nope`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestValidateErrors(t *testing.T) {
	base := func() Config {
		return Config{
			Topology:   Topology{Kind: "dumbbell", Flows: 3},
			MeasureSec: 3,
			WarmupSec:  1,
		}
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad topology", func(c *Config) { c.Topology.Kind = "star" }},
		{"negative flows", func(c *Config) { c.Topology.Flows = -1 }},
		{"zero measure", func(c *Config) { c.MeasureSec = 0 }},
		{"negative warmup", func(c *Config) { c.WarmupSec = -1 }},
		{"bad attack kind", func(c *Config) { c.Attack = &Attack{Kind: "tsunami", RateMbps: 10} }},
		{"aimd no extent", func(c *Config) { c.Attack = &Attack{Kind: "aimd", RateMbps: 10, Gamma: 0.5} }},
		{"aimd no period", func(c *Config) { c.Attack = &Attack{Kind: "aimd", RateMbps: 10, ExtentMs: 50} }},
		{"aimd gamma and period", func(c *Config) {
			c.Attack = &Attack{Kind: "aimd", RateMbps: 10, ExtentMs: 50, Gamma: 0.5, PeriodMs: 600}
		}},
		{"negative workers", func(c *Config) { c.Topology.Workers = -1 }},
		{"graph without spec", func(c *Config) { c.Topology = Topology{Kind: "graph"} }},
		{"gamma too big", func(c *Config) {
			c.Attack = &Attack{Kind: "aimd", RateMbps: 10, ExtentMs: 50, Gamma: 1.5}
		}},
		{"no rate", func(c *Config) { c.Attack = &Attack{Kind: "flood"} }},
		{"jitter frac", func(c *Config) {
			c.Attack = &Attack{Kind: "jittered", RateMbps: 10, ExtentMs: 50, Gamma: 0.5}
		}},
		{"shrew no extent", func(c *Config) { c.Attack = &Attack{Kind: "shrew", RateMbps: 10} }},
		{"NaN bottleneck rate", func(c *Config) { c.Topology.BottleneckMbps = math.NaN() }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestLoadErrorPaths drives Load with malformed documents end to end and
// pins that each rejection names the offending knob — these strings are what
// pdos-serve hands back as HTTP 400 bodies, so they must stay diagnostic.
func TestLoadErrorPaths(t *testing.T) {
	tests := []struct {
		name    string
		doc     string
		wantSub string
	}{
		{"not json", `{nope`, "parse"},
		{"unknown top-level field", `{"topology": {"kind": "dumbbell"}, "measureSec": 3, "bogusKnob": true}`, "bogusKnob"},
		{"unknown nested field", `{"topology": {"kind": "dumbbell", "wings": 2}, "measureSec": 3}`, "wings"},
		{"wrong type", `{"topology": {"kind": "dumbbell"}, "measureSec": "three"}`, "parse"},
		{"unknown topology kind", `{"topology": {"kind": "star"}, "measureSec": 3}`, `"star"`},
		{"graph without spec", `{"topology": {"kind": "graph"}, "measureSec": 3}`, "graph spec"},
		{"bad group model", `{"topology": {"kind": "graph", "graph": {
			"routers": ["A", "B"],
			"trunks": [{"from": 0, "to": 1, "rateMbps": 10, "delayMs": 5, "queuePackets": 100}],
			"groups": [{"flows": 2, "ingress": 0, "egress": 1, "accessRateMbps": 100, "model": "quantum"}],
			"sink": 1}}, "measureSec": 3}`, `"quantum"`},
		{"negative flows", `{"topology": {"kind": "dumbbell", "flows": -3}, "measureSec": 3}`, "flows"},
		{"negative workers", `{"topology": {"kind": "dumbbell", "workers": -1}, "measureSec": 3}`, "workers"},
		{"missing measure", `{"topology": {"kind": "dumbbell"}}`, "measureSec"},
		{"negative measure", `{"topology": {"kind": "dumbbell"}, "measureSec": -2}`, "measureSec"},
		{"negative warmup", `{"topology": {"kind": "dumbbell"}, "measureSec": 3, "warmupSec": -1}`, "warmupSec"},
		{"unknown attack kind", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"attack": {"kind": "tsunami", "rateMbps": 10}}`, `"tsunami"`},
		{"aimd without extent", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"attack": {"kind": "aimd", "rateMbps": 10, "gamma": 0.5}}`, "extentMs"},
		{"aimd without gamma or period", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"attack": {"kind": "aimd", "rateMbps": 10, "extentMs": 50}}`, "gamma or periodMs"},
		{"aimd gamma and period conflict", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"attack": {"kind": "aimd", "rateMbps": 10, "extentMs": 50, "gamma": 0.5, "periodMs": 600}}`, "pick one"},
		{"gamma out of range", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"attack": {"kind": "aimd", "rateMbps": 10, "extentMs": 50, "gamma": 1.5}}`, "gamma"},
		{"attack without rate", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"attack": {"kind": "flood"}}`, "rateMbps"},
		{"shrew without extent", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"attack": {"kind": "shrew", "rateMbps": 10}}`, "extentMs"},
		{"jittered without jitterFrac", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"attack": {"kind": "jittered", "rateMbps": 10, "extentMs": 50, "gamma": 0.5}}`, "jitterFrac"},
		{"jitterFrac above one", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"attack": {"kind": "jittered", "rateMbps": 10, "extentMs": 50, "gamma": 0.5, "jitterFrac": 1.5}}`, "jitterFrac"},
		{"unknown measure tap", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"measure": {"taps": ["goodput", "throughput"]}}`, `measure tap "throughput"`},
		{"repeated measure tap", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"measure": {"taps": ["srtt", "srtt"]}}`, `tap "srtt" repeated`},
		{"sweep without axis", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"measure": {"sweep": {"values": [0.5]}}}`, "needs an axis"},
		{"unknown sweep axis", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"measure": {"sweep": {"axis": "queueDepth", "values": [10]}}}`, `sweep axis "queueDepth"`},
		{"sweep axis without values", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"attack": {"kind": "aimd", "rateMbps": 10, "extentMs": 50},
			"measure": {"sweep": {"axis": "gamma", "values": []}}}`, `axis "gamma" has no values`},
		{"flows sweep on graph topology", `{"topology": {"kind": "graph", "graph": {
			"routers": ["A", "B"],
			"trunks": [{"from": 0, "to": 1, "rateMbps": 10, "delayMs": 5, "queuePackets": 100}],
			"groups": [{"flows": 2, "ingress": 0, "egress": 1, "accessRateMbps": 100}],
			"sink": 1}}, "measureSec": 3,
			"measure": {"sweep": {"axis": "flows", "values": [2, 4]}}}`, "no flows field to sweep"},
		{"gamma sweep conflicts with fixed gamma", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"attack": {"kind": "aimd", "rateMbps": 10, "extentMs": 50, "gamma": 0.5},
			"measure": {"sweep": {"axis": "gamma", "values": [0.3, 0.6]}}}`, "leave both zero"},
		{"gamma sweep value out of range", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"attack": {"kind": "aimd", "rateMbps": 10, "extentMs": 50},
			"measure": {"sweep": {"axis": "gamma", "values": [0.5, 1.2]}}}`, "outside (0,1)"},
		// Rates whose bits-per-second value overflows float64 (FuzzLoad's
		// 1e303 seed): the resolved graph or train would carry +Inf.
		{"bottleneck rate overflows bps", `{"topology":{"kind":"dumbbell","bottleneckMbps":1e303},"measureSec":1}`,
			"scenario: bottleneckMbps 1e+303 is not finite in bits per second"},
		{"trunk rate overflows bps", overflowGraph(`"rateMbps": 1e303`, "10", "100", "1000"), "trunk 0 rateMbps 1e+303"},
		{"trunk reverse rate overflows bps", overflowGraph(`"rateMbps": 10, "revRateMbps": -1e303`, "10", "100", "1000"),
			"trunk 0 revRateMbps -1e+303"},
		{"group access rate overflows bps", overflowGraph(`"rateMbps": 10`, "1e303", "100", "1000"), "group 0 accessRateMbps 1e+303"},
		{"graph attack rate overflows bps", overflowGraph(`"rateMbps": 10`, "10", "1e303", "1000"), "graph attack 0 rateMbps 1e+303"},
		{"attack rate overflows bps", overflowGraph(`"rateMbps": 10`, "10", "100", "1e303"), "attack rateMbps 1e+303"},
		{"attack rate sweep value overflows bps", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"attack": {"kind": "flood"},
			"measure": {"sweep": {"axis": "attackRateMbps", "values": [10, 1e303]}}}`, "sweep attackRateMbps 1e+303"},
		{"negative shrew harmonic", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"attack": {"kind": "shrew", "rateMbps": 40, "extentMs": 100, "harmonic": -1}}`,
			"scenario: shrew harmonic -1 is negative (0 selects 1)"},
		// Times whose nanosecond value does not fit in sim.Time: converted,
		// they wrap negative, and the run fails or drops its series.
		{"warmup overflows virtual time", `{"topology": {"kind": "dumbbell"}, "warmupSec": 1e12, "measureSec": 3}`,
			"scenario: warmupSec 1e+12 does not fit in virtual time"},
		{"measure overflows virtual time", `{"topology": {"kind": "dumbbell"}, "measureSec": 1e12}`,
			"scenario: measureSec 1e+12 does not fit in virtual time"},
		{"run end overflows virtual time", `{"topology": {"kind": "dumbbell"}, "warmupSec": 5e9, "measureSec": 5e9}`,
			"scenario: warmupSec + measureSec in ns 1e+19 does not fit in virtual time"},
		{"rate bin overflows virtual time", `{"topology": {"kind": "dumbbell"}, "measureSec": 3, "rateBinMs": 1e300}`,
			"scenario: rateBinMs 1e+300 does not fit in virtual time"},
		{"attack extent overflows virtual time", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"attack": {"kind": "aimd", "rateMbps": 10, "extentMs": 1e13, "gamma": 0.5}}`,
			"scenario: attack extentMs 1e+13 does not fit in virtual time"},
		{"negative attack period", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"attack": {"kind": "aimd", "rateMbps": 10, "extentMs": 50, "periodMs": -600}}`,
			"scenario: attack periodMs -600 is negative"},
		{"rto floor overflows virtual time", `{"topology": {"kind": "dumbbell", "rtoMinMs": 1e13}, "measureSec": 3}`,
			"scenario: rtoMinMs 1e+13 does not fit in virtual time"},
		{"rtt min overflows virtual time", `{"topology": {"kind": "dumbbell", "rttMinMs": 1e13}, "measureSec": 3}`,
			"scenario: rttMinMs 1e+13 does not fit in virtual time"},
		{"negative rtt max", `{"topology": {"kind": "dumbbell", "rttMaxMs": -5}, "measureSec": 3}`,
			"scenario: rttMaxMs -5 is negative"},
		{"trunk delay overflows virtual time", delayGraph(`1e13`, `"rttMinMs": 30, "rttMaxMs": 60`, `2`),
			"scenario: trunk 0 delayMs 1e+13 does not fit in virtual time"},
		{"group rtt min overflows virtual time", delayGraph(`5`, `"rttMinMs": 1e13, "rttMaxMs": 60`, `2`),
			"scenario: group 0 rttMinMs 1e+13 does not fit in virtual time"},
		{"negative group rtt max", delayGraph(`5`, `"rttMinMs": 30, "rttMaxMs": -60`, `2`),
			"scenario: group 0 rttMaxMs -60 is negative"},
		{"group access delay overflows virtual time", delayGraph(`5`, `"accessOwdMs": 1e300`, `2`),
			"scenario: group 0 accessOwdMs 1e+300 does not fit in virtual time"},
		{"negative graph attack delay", delayGraph(`5`, `"rttMinMs": 30, "rttMaxMs": 60`, `-2`),
			"scenario: graph attack 0 delayMs -2 is negative"},
		{"queue bin overflows virtual time", `{"topology": {"kind": "dumbbell"}, "measureSec": 3,
			"measure": {"taps": ["queue"], "queueBinMs": 1e300}}`,
			"scenario: queueBinMs 1e+300 does not fit in virtual time"},
		{"rate bin rounds to zero", `{"topology": {"kind": "dumbbell"}, "measureSec": 1, "rateBinMs": 1e-7,
			"measure": {"taps": ["sync"]}}`,
			"scenario: rateBinMs 1e-07 rounds to 0 ns"},
		{"queue bin rounds to zero", `{"topology": {"kind": "dumbbell"}, "measureSec": 1,
			"measure": {"taps": ["queue"], "queueBinMs": 1e-7}}`,
			"scenario: queueBinMs 1e-07 rounds to 0 ns"},
		{"rate bin too fine for the window", `{"topology": {"kind": "dumbbell"}, "measureSec": 1, "rateBinMs": 0.0005}`,
			"scenario: rateBinMs 0.0005 cuts measureSec into 2000000 bins, more than 1000000"},
		{"queue bin too fine for the window", `{"topology": {"kind": "dumbbell"}, "measureSec": 60000,
			"measure": {"taps": ["queue"]}}`,
			"scenario: queueBinMs 50 cuts measureSec into 1200000 bins, more than 1000000"},
		{"arrival span overflows virtual time", `{"topology": {"kind": "dumbbell", "flows": 6}, "measureSec": 3,
			"workload": {"kind": "mice", "elephants": 2, "mice": 4, "miceSegments": 10, "arrivalSpanSec": 1e10}}`,
			"scenario: arrivalSpanSec 1e+10 does not fit in virtual time"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tt.doc))
			if err == nil {
				t.Fatalf("document accepted:\n%s", tt.doc)
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q does not mention %q", err, tt.wantSub)
			}
		})
	}
}

// overflowGraph is a graph document whose first trunk carries the given
// rate fields and whose group access, graph attack and flood rates (Mbps)
// are the given literals.
func overflowGraph(trunkRates, access, attacker, flood string) string {
	return `{"topology": {"kind": "graph", "graph": {
		"routers": ["A", "B"],
		"trunks": [{"from": 0, "to": 1, ` + trunkRates + `, "delayMs": 5, "queuePackets": 100}],
		"groups": [{"flows": 2, "ingress": 0, "egress": 1, "accessRateMbps": ` + access + `}],
		"attacks": [{"router": 0, "rateMbps": ` + attacker + `}],
		"sink": 1}}, "measureSec": 3,
		"attack": {"kind": "flood", "rateMbps": ` + flood + `}}`
}

// delayGraph is a graph document whose first trunk has the given delayMs,
// whose group carries the given delay fields, and whose graph attack has
// the given delayMs.
func delayGraph(trunkDelay, groupDelays, attackDelay string) string {
	return `{"topology": {"kind": "graph", "graph": {
		"routers": ["A", "B"],
		"trunks": [{"from": 0, "to": 1, "rateMbps": 10, "delayMs": ` + trunkDelay + `, "queuePackets": 100}],
		"groups": [{"flows": 2, "ingress": 0, "egress": 1, "accessRateMbps": 100, ` + groupDelays + `}],
		"attacks": [{"router": 0, "rateMbps": 100, "delayMs": ` + attackDelay + `}],
		"sink": 1}}, "measureSec": 3}`
}

func TestBuildBothTopologies(t *testing.T) {
	for _, kind := range []string{"dumbbell", "testbed", "parkinglot"} {
		cfg := Config{Topology: Topology{Kind: kind}, MeasureSec: 1}
		env, err := cfg.Build()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(env.Flows()) == 0 {
			t.Errorf("%s: no default flows", kind)
		}
	}
}

func TestBuildDeclaredGraph(t *testing.T) {
	cfg, err := Load(strings.NewReader(`{
		"name": "inline-graph",
		"topology": {"kind": "graph", "workers": 2, "graph": {
			"routers": ["S", "M", "R"],
			"trunks": [
				{"from": 0, "to": 1, "rateMbps": 15, "delayMs": 5, "queuePackets": 150},
				{"from": 1, "to": 2, "rateMbps": 100, "delayMs": 5, "queuePackets": 1000, "dropTail": true}
			],
			"groups": [{"flows": 4, "ingress": 0, "egress": 2, "accessRateMbps": 50,
				"rttMinMs": 30, "rttMaxMs": 460}],
			"attacks": [{"router": 0, "rateMbps": 1000}],
			"sink": 2
		}},
		"measureSec": 2, "seed": 3
	}`))
	if err != nil {
		t.Fatal(err)
	}
	env, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cl, ok := env.(interface{ Close() }); ok {
		defer cl.Close()
	}
	if len(env.Flows()) != 4 {
		t.Errorf("flows = %d", len(env.Flows()))
	}
	if env.ModelParams().Bottleneck != 15e6 {
		t.Errorf("bottleneck = %g", env.ModelParams().Bottleneck)
	}
}

// TestBuildShardedMatchesSerial: the workers knob must not change results.
func TestBuildShardedMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	base := `{
		"topology": {"kind": "dumbbell", "flows": 5%s},
		"attack": {"kind": "aimd", "rateMbps": 35, "extentMs": 75, "gamma": 0.5},
		"warmupSec": 1, "measureSec": 2, "seed": 4
	}`
	load := func(workers string) *experiments.RunResult {
		cfg, err := Load(strings.NewReader(fmt.Sprintf(base, workers)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cfg.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := load("")
	sharded := load(`, "workers": 4`)
	if serial.Delivered != sharded.Delivered {
		t.Errorf("sharded delivered %d, serial %d", sharded.Delivered, serial.Delivered)
	}
	if serial.Timeouts != sharded.Timeouts {
		t.Errorf("sharded timeouts %d, serial %d", sharded.Timeouts, serial.Timeouts)
	}
}

func TestBuildAppliesOverrides(t *testing.T) {
	cfg := Config{
		Topology: Topology{
			Kind:           "dumbbell",
			Flows:          4,
			BottleneckMbps: 20,
			QueuePackets:   77,
			RTOMinMs:       200,
			AckEvery:       2,
			RTOJitter:      0.5,
		},
		MeasureSec: 1,
		Seed:       9,
	}
	env, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	params := env.ModelParams()
	if params.Bottleneck != 20e6 {
		t.Errorf("bottleneck = %g", params.Bottleneck)
	}
	if params.AckRatio != 2 {
		t.Errorf("ack ratio = %g", params.AckRatio)
	}
	if got := env.TimeoutModel(); got.MinRTO != 0.2 || got.BufferPackets != 77 {
		t.Errorf("timeout model = %+v", got)
	}
	if len(env.Flows()) != 4 {
		t.Errorf("flows = %d", len(env.Flows()))
	}
}

func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg, err := Load(strings.NewReader(`{
		"topology": {"kind": "dumbbell", "flows": 5},
		"attack": {"kind": "aimd", "rateMbps": 35, "extentMs": 75, "gamma": 0.5},
		"warmupSec": 2, "measureSec": 3, "rateBinMs": 50, "measureJitter": true
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Error("no victim bytes delivered")
	}
	if res.AttackStats.PacketsSent == 0 {
		t.Error("attack never fired")
	}
	if res.Rate == nil || len(res.Rate.Bytes()) == 0 {
		t.Error("rate series missing")
	}
	if res.Jitter == nil {
		t.Error("jitter meter missing")
	}
}

// TestMiceRunReportsProgress: a mice-workload document reports the
// completed fraction after each timeline slice, as a plain document does —
// strictly increasing, ending at exactly 1 — and a context cancelled
// mid-run aborts it with context.Canceled.
func TestMiceRunReportsProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg, err := Load(strings.NewReader(`{
		"topology": {"kind": "dumbbell", "flows": 6},
		"workload": {"kind": "mice", "elephants": 2, "mice": 4, "miceSegments": 10, "arrivalSpanSec": 1},
		"attack": {"kind": "aimd", "rateMbps": 30, "extentMs": 75, "periodMs": 400},
		"warmupSec": 1, "measureSec": 2
	}`))
	if err != nil {
		t.Fatal(err)
	}
	var fracs []float64
	if _, err := ComputeArtifacts(context.Background(), cfg, func(f float64) { fracs = append(fracs, f) }); err != nil {
		t.Fatal(err)
	}
	if len(fracs) == 0 || fracs[len(fracs)-1] != 1 {
		t.Fatalf("progress %v, want fractions ending at 1", fracs)
	}
	for i := 1; i < len(fracs); i++ {
		if fracs[i] <= fracs[i-1] {
			t.Fatalf("progress not strictly increasing at %d: %v", i, fracs)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = ComputeArtifacts(ctx, cfg, func(f float64) {
		if f >= 0.25 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunFloodAndShrewAndJittered(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	for _, attackJSON := range []string{
		`{"kind": "flood", "rateMbps": 20}`,
		`{"kind": "shrew", "rateMbps": 40, "extentMs": 50, "harmonic": 1}`,
		`{"kind": "jittered", "rateMbps": 35, "extentMs": 75, "gamma": 0.4, "jitterFrac": 0.3}`,
	} {
		cfg, err := Load(strings.NewReader(`{
			"topology": {"kind": "dumbbell", "flows": 3},
			"attack": ` + attackJSON + `,
			"warmupSec": 1, "measureSec": 2
		}`))
		if err != nil {
			t.Fatalf("%s: %v", attackJSON, err)
		}
		res, err := cfg.Run()
		if err != nil {
			t.Fatalf("%s: %v", attackJSON, err)
		}
		if res.AttackStats.PacketsSent == 0 {
			t.Errorf("%s: attack never fired", attackJSON)
		}
	}
}

func TestTrainUnreachableGamma(t *testing.T) {
	cfg := Config{
		Topology:   Topology{Kind: "dumbbell", Flows: 2},
		Attack:     &Attack{Kind: "aimd", RateMbps: 10, ExtentMs: 75, Gamma: 0.9},
		MeasureSec: 2,
	}
	env, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.Train(env); err == nil {
		t.Error("unreachable gamma accepted")
	}
}

func TestTrainNoAttack(t *testing.T) {
	cfg := Config{Topology: Topology{Kind: "dumbbell", Flows: 2}, MeasureSec: 1}
	env, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	train, err := cfg.Train(env)
	if err != nil || train != nil {
		t.Errorf("no-attack train = %v, %v", train, err)
	}
}
