package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunDumbbellScenario(t *testing.T) {
	err := run([]string{
		"-flows", "5", "-warmup", "3s", "-measure", "4s", "-gamma", "0.5",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunTestbedScenario(t *testing.T) {
	err := run([]string{
		"-topology", "testbed", "-flows", "4",
		"-rate", "20e6", "-extent", "150ms",
		"-warmup", "3s", "-measure", "4s", "-gamma", "0.3",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-topology", "ring"}); err == nil {
		t.Error("unknown topology accepted")
	}
	if err := run([]string{"-rate", "10e6", "-gamma", "0.9", "-measure", "2s", "-warmup", "1s"}); err == nil {
		t.Error("unreachable gamma accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
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
		if err := run([]string{"-config", path}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunScenarioConfigErrors(t *testing.T) {
	if err := run([]string{"-config", "/nonexistent.json"}); err == nil {
		t.Error("missing config accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"topology": {"kind": "star"}, "measureSec": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", bad}); err == nil {
		t.Error("invalid config accepted")
	}
}
