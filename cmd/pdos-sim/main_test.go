package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pulsedos/internal/pins"
	"pulsedos/internal/scenario"
)

// TestStdoutPins holds the printed report to its committed digest
// (testdata/stdout.sha256): the flag path at the defaults, on every other
// topology and sharded over two workers, and -config on every shipped
// scenario. Every pin names a case and every case has a pin.
func TestStdoutPins(t *testing.T) {
	set := pins.Load(t, "testdata/stdout.sha256")
	cases := map[string][]string{
		"default":               nil,
		"topology=testbed":      {"-topology", "testbed"},
		"topology=parkinglot":   {"-topology", "parkinglot"},
		"topology=crosstraffic": {"-topology", "crosstraffic"},
		"workers=2":             {"-workers", "2"},
	}
	shipped, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(shipped) == 0 {
		t.Fatalf("no shipped scenarios: %v", err)
	}
	for _, path := range shipped {
		cases["config="+filepath.Base(path)] = []string{"-config", path}
	}
	for name := range set.Sums {
		if _, ok := cases[name]; !ok {
			t.Errorf("pin %s names no case", name)
		}
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			var out strings.Builder
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			set.Check(t, name, out.String())
		})
	}
}

// TestCrossTrafficMatchesShippedScenario: -topology crosstraffic runs the
// graph of scenarios/cross-traffic.json with the main group resized.
func TestCrossTrafficMatchesShippedScenario(t *testing.T) {
	f, err := os.Open("../../scenarios/cross-traffic.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg, err := scenario.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Topology.Graph
	if got := crossTraffic(want.Groups[0].Flows); !reflect.DeepEqual(got, want) {
		t.Errorf("crosstraffic graph\n%+v\nwant the shipped\n%+v", got, want)
	}
}

func TestRunDumbbellScenario(t *testing.T) {
	err := run([]string{
		"-flows", "5", "-warmup", "3s", "-measure", "4s", "-gamma", "0.5",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunTestbedScenario(t *testing.T) {
	err := run([]string{
		"-topology", "testbed", "-flows", "4",
		"-rate", "20e6", "-extent", "150ms",
		"-warmup", "3s", "-measure", "4s", "-gamma", "0.3",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-topology", "ring"}, io.Discard); err == nil {
		t.Error("unknown topology accepted")
	}
	if err := run([]string{"-rate", "10e6", "-gamma", "0.9", "-measure", "2s", "-warmup", "1s"}, io.Discard); err == nil {
		t.Error("unreachable gamma accepted")
	}
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
	// A document reads flows 0 and seed 0 as the kind's defaults.
	if err := run([]string{"-flows", "0"}, io.Discard); err == nil {
		t.Error("zero flows accepted")
	}
	if err := run([]string{"-seed", "0"}, io.Discard); err == nil {
		t.Error("zero seed accepted")
	}
	// A reachable γ ≥ 1 is not a pulse attack; the document rejects it.
	if err := run([]string{"-gamma", "1.5"}, io.Discard); err == nil {
		t.Error("gamma 1.5 accepted")
	}
}

func TestRunScenarioConfig(t *testing.T) {
	dir := t.TempDir()
	for name, doc := range map[string]string{
		"plain": `{
			"name": "test",
			"topology": {"kind": "dumbbell", "flows": 3},
			"attack": {"kind": "aimd", "rateMbps": 35, "extentMs": 75, "gamma": 0.5},
			"warmupSec": 2, "measureSec": 3
		}`,
		// A sweep document runs point by point, each against its own
		// no-attack baseline (the shipped fig6-gain-sweep.json's shape).
		"gamma-sweep": `{
			"name": "sweep",
			"topology": {"kind": "dumbbell", "flows": 3},
			"attack": {"kind": "aimd", "rateMbps": 35, "extentMs": 75},
			"measure": {"sweep": {"axis": "gamma", "values": [0.3, 0.6]}},
			"warmupSec": 2, "measureSec": 3
		}`,
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-config", path}, io.Discard); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunScenarioConfigErrors(t *testing.T) {
	if err := run([]string{"-config", "/nonexistent.json"}, io.Discard); err == nil {
		t.Error("missing config accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"topology": {"kind": "star"}, "measureSec": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", bad}, io.Discard); err == nil {
		t.Error("invalid config accepted")
	}
}
